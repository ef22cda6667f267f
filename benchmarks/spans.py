"""Wrappers that observe the affectstream package from outside.

Two kinds of wrapper are installed over the module attributes and class
methods the package calls through:

* ``Probes`` are always on. They time ``Model.train_step`` and the dataset
  calls, including those inside ``cli.main``, and record what ``fit``
  returns: step latency, per-call I/O rates and the per-epoch losses
  cannot be seen through the public entry points alone. Each costs two
  clock reads per call.
* ``Tracer`` is on only in a traced run. It records one span per call
  (name, start, end, parent, amount) into memory, for every layer listed
  by ``trace_points``; ``Summary`` turns the spans into per-name call
  counts, inclusive time and self time.

Functions are replaced in every package module that binds them, since
``from .data import load_dataset`` copies the binding into ``cli`` and
``train``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "affectstream" or name.startswith("affectstream."))]


class Patch:
    """Swap attributes for wrappers and put the originals back on exit."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr, make):
        """Replace module.attr wherever the package binds that function."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


class Probes:
    """Step latencies and fit histories, bucketed by run phase."""

    def __init__(self, lib):
        self.lib = lib
        self.phase = "setup"
        self.traced = False
        # (phase, traced, seconds) per train_step
        self.steps = []
        # (phase, traced, samples presented, seconds, [epoch losses]) per fit
        self.fits = []
        # (phase, traced, "save" or "load", rows, seconds) per dataset call
        self.dataset_io = []
        self._patch = Patch()

    def install(self):
        steps, fits, dataset_io = self.steps, self.fits, self.dataset_io

        def time_step(step):
            def train_step(model, batch, optimizer):
                start = perf_counter()
                result = step(model, batch, optimizer)
                steps.append((self.phase, self.traced, perf_counter() - start))
                return result
            return train_step

        def record_fit(fit):
            def probed_fit(model, records, settings, *args, **kwargs):
                records = list(records)
                start = perf_counter()
                history = fit(model, records, settings, *args, **kwargs)
                seconds = perf_counter() - start
                fits.append((self.phase, self.traced, len(records) * settings.epochs, seconds,
                             [float(h.total) for h in history]))
                return history
            return probed_fit

        def time_io(kind):
            def wrap(fn):
                def timed(*args, **kwargs):
                    start = perf_counter()
                    result = fn(*args, **kwargs)
                    rows = len(result if kind == "load" else args[0])
                    dataset_io.append((self.phase, self.traced, kind, rows,
                                       perf_counter() - start))
                    return result
                return timed
            return wrap

        self._patch.method(self.lib.model.Model, "train_step", time_step)
        self._patch.function(self.lib.train, "fit", record_fit)
        self._patch.function(self.lib.data, "save_dataset", time_io("save"))
        self._patch.function(self.lib.data, "load_dataset", time_io("load"))

    def restore(self):
        self._patch.restore()

    def untraced_steps(self, phase):
        return [s for p, t, s in self.steps if p == phase and not t]

    def fits_in(self, phase):
        """(samples, seconds, epoch losses) of each untraced fit in a phase."""
        return [f[2:] for f in self.fits if f[0] == phase and not f[1]]

    def rows_per_s(self, kind):
        """Rows per second of each untraced dataset call in the timed passes."""
        return [rows / s for p, t, k, rows, s in self.dataset_io
                if p == "pipeline" and not t and k == kind]


def _rows(arr):
    return int(getattr(arr, "shape", (len(arr),))[0])


def trace_points(lib):
    """(owner, attribute, kind, name or namer, amount) for every traced layer.

    The amount is the unit a per-layer rate divides by: rows for data and
    GEMM calls, epochs for fit.
    """
    eng, los, mod, dat = lib.engine, lib.losses, lib.model, lib.data
    return [
        (eng, "linear_forward", "function",
         lambda a: f"engine.linear_forward.{a[1]}", lambda a, r: _rows(a[2])),
        (eng, "linear_backward", "function",
         lambda a: f"engine.linear_backward.{a[1]}", lambda a, r: _rows(a[2])),
        (eng.Optimizer, "step", "method", "engine.Optimizer.step", None),
        (los, "total_loss", "function", "losses.total_loss", None),
        (los, "multilabel_ce", "function", "losses.multilabel_ce", None),
        (los, "softmax_ce", "function", "losses.softmax_ce", None),
        (los, "va_loss", "function", "losses.va_loss", None),
        (mod.Model, "train_step", "step", "model.train_step", None),
        (mod.Model, "loss_and_grads", "method", "model.loss_and_grads", None),
        (mod.Model, "forward", "method",
         lambda a: "model.forward.b1" if _rows(a[1]) == 1 else "model.forward.batch", None),
        (mod.Model, "predict", "method", "model.predict", None),
        (mod, "save_checkpoint", "function", "model.save_checkpoint", None),
        (mod, "load_checkpoint", "function", "model.load_checkpoint", None),
        (dat, "load_dataset", "function", "data.load_dataset", lambda a, r: len(r)),
        (dat, "save_dataset", "function", "data.save_dataset", lambda a, r: len(a[0])),
        (dat, "kfold_split", "function", "data.kfold_split", None),
        (dat, "batch_iter", "generator", "data.batch_iter", None),
        (lib.pseudo, "pseudo_apply", "function", "pseudo.pseudo_apply", lambda a, r: len(a[0])),
        (lib.synth, "synth_generate", "function", "synth.synth_generate", None),
        (lib.metrics, "evaluate", "function", "metrics.evaluate", None),
        (lib.train, "fit", "function", "train.fit", lambda a, r: a[2].epochs),
        (lib.train, "run_fold", "function", "train.run_fold", None),
        (lib.train, "run_kfold", "function", "train.run_kfold", None),
        (lib.train, "evaluate_model", "function", "train.evaluate_model", None),
        (lib.cli, "main", "function", lambda a: f"cli.main.{a[0][0]}", None),
    ]


class Tracer:
    """In-memory spans: (name, start, end, parent index, amount).

    A parent's index is always lower than its children's, because a span
    reserves its slot when it starts. Only every other train step of each
    batch size is traced; the others run untraced and their durations go
    to ``reference_steps``, so traced and untraced steps are compared
    milliseconds apart rather than across passes.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.reference_steps = []
        self.paused = False
        self._stack = []
        self._patch = None

    def _wrap(self, fn, name, amount):
        spans, stack = self.spans, self._stack
        namer = name if callable(name) else (lambda a, _n=name: _n)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (namer(args), start, end, parent, 0)
            if amount is not None:
                spans[idx] = spans[idx][:4] + (amount(args, result),)
            return result
        return traced

    def _wrap_step(self, fn, name):
        traced = self._wrap(fn, name, None)
        # alternate per batch size, so an epoch's short last batch is not
        # always on the same side
        last_traced = {}

        def step(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rows = len(args[1])
            last_traced[rows] = not last_traced.get(rows, False)
            if last_traced[rows]:
                return traced(*args, **kwargs)
            self.paused = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.reference_steps.append(perf_counter() - start)
                self.paused = False
        return step

    def _wrap_generator(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if self.paused:
                yield from it
                return
            while True:
                parent = stack[-1] if stack else -1
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                spans.append((name, start, perf_counter(), parent, len(item)))
                yield item
        return traced

    def install(self):
        self._patch = Patch()
        for owner, attr, kind, name, amount in trace_points(self.lib):
            if kind == "generator":
                self._patch.function(owner, attr, lambda f, n=name: self._wrap_generator(f, n))
            elif kind == "step":
                self._patch.method(owner, attr, lambda f, n=name: self._wrap_step(f, n))
            elif kind == "method":
                self._patch.method(owner, attr, lambda f, n=name, a=amount: self._wrap(f, n, a))
            else:
                self._patch.function(owner, attr, lambda f, n=name, a=amount: self._wrap(f, n, a))

    def restore(self):
        self._patch.restore()

    def span_cost_us(self, calls=20000, repeats=3):
        """Time one span adds to a call: best of a few no-op loops."""
        def noop():
            return None
        wrapped = self._wrap(noop, "calibration", None)
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                noop()
            plain = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, perf_counter() - start - plain)
            del self.spans[-calls:]
        return 1e6 * best / calls

    def write(self, path):
        """One tab-separated line per span: index, parent, name, start, end, amount."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tamount\n")
            for i, (name, start, end, parent, amount) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{amount}\n")


class Summary:
    """Per-name aggregates of a span list, overall and inside train steps."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = defaultdict(float)
        # self time and calls of spans nested in model.train_step
        self.in_step_self = defaultdict(float)
        self.in_step_calls = defaultdict(int)
        in_step = [False] * len(spans)
        for i, (name, start, end, parent, amount) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            in_step[i] = name == "model.train_step" or (parent >= 0 and in_step[parent])
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += own
            self.amount[name] += amount
            if in_step[i]:
                self.in_step_self[name] += own
                self.in_step_calls[name] += 1

    def mean_ms(self, name):
        return 1e3 * self.total[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_self_ms(self, name):
        return 1e3 * self.self_time[name] / self.calls[name] if self.calls[name] else 0.0

    def rate(self, name):
        """Amount per second of inclusive time; 0 when the layer never ran."""
        return self.amount[name] / self.total[name] if self.total[name] > 0 else 0.0

    def step_split_ms(self):
        """Mean self ms per train step for each span name inside the steps."""
        steps = self.calls["model.train_step"]
        if not steps:
            return {}
        return {name: 1e3 * t / steps for name, t in sorted(self.in_step_self.items())}
