"""affectstream benchmark: one workload per run, untraced or traced.

    python3 benchmarks/bench.py --workload io-infer --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. The
run sets up the workload three times (set-up time is import plus the
median set-up), then repeats the workload's pipeline in a closed loop for
about ``--seconds`` (at least twice). With ``--trace 0`` it reports the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
passes, traces all but the first set-up (in both, every other train step),
and reports the per-layer split plus the tracing overhead. The last line
of standard output is the result object; the lines before it, all
starting with ``#``, give provenance, check outcomes and every metric
with its unit. ``--report PATH`` also
writes all of it as one JSON document.

Workload inputs derive from ``--seed`` only. Scratch files live in
``.bench_out/`` at the repository root and are removed at exit; a traced
run leaves its spans there as a TSV file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "affectstream"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
IMPORT_REPS = 5
MIN_ITERATIONS = 2
# the highest nearest-rank percentile that leaves >= 10 train steps beyond
# it at 250 steps or more: io-infer times 300, kfold-b256 72 per pass. It
# is reported; the gated tail is p90, which preempted steps move less.
STEP_TAIL_PERCENTILE = 96
# batch-1 latencies are cut into blocks of this many calls; the p99 of
# each block has 10 samples beyond it, and the run reports the median
# block, so one preempted stretch of the host does not set the tail
PREDICT1_BLOCK = 1000
MODULES = ("engine", "losses", "model", "data", "metrics", "pseudo", "synth", "train", "cli")
# the 300 s gate of acceptance criterion 5, for the full 120-epoch recipe
RECIPE_FULL_EPOCHS = 120
RECIPE_GATE_S = 300.0
SPEC = ROOT / "BENCHMARK.json"


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use.

    Must run before NumPy is imported; returns the OpenBLAS setting.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_package():
    """Import affectstream from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        pkg = importlib.import_module("affectstream")
    except ModuleNotFoundError as exc:
        raise SystemExit(f"error: cannot import affectstream from {ROOT / 'src'}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"error: imported affectstream from {pkg.__file__}, not {PACKAGE_DIR}")
    return argparse.Namespace(**{m: importlib.import_module(f"affectstream.{m}") for m in MODULES})


# -- provenance -------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the repository this file sits in, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(blas_threads):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        blas = {}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
                 "threads": blas_threads},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_affectstream_lines": lines,
    }


# -- statistics -------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values, q):
    """Percentile plus how many samples lie beyond it (want >= 10)."""
    value = percentile(values, q)
    return value, sum(1 for v in values if v > value)


def import_seconds(reps=IMPORT_REPS):
    """Median wall time of a fresh interpreter importing the package."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import affectstream.cli"
    times = []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def cpu_ticks():
    """(steal, total) jiffies of the host CPU counters, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


# -- the run ------------------------------------------------------------------


def execute(lib, workload, args, workdir):
    from spans import Probes, Tracer
    from workloads import Run

    probes = Probes(lib)
    probes.install()
    tracer = Tracer(lib) if args.trace else None
    run = Run(lib, args.seed, workdir, probes, tracer)
    iterations = []  # (seconds, traced)
    setup_s = []
    error = None
    try:
        for rep in range(SETUP_REPS):
            traced = tracer is not None and rep > 0
            probes.phase, probes.traced = "setup", traced
            if traced:
                tracer.install()
            start = perf_counter()
            try:
                workload.setup(run)
            finally:
                setup_s.append(perf_counter() - start)
                if traced:
                    tracer.restore()
        probes.phase = "pipeline"
        deadline = perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            probes.traced = traced
            if traced:
                tracer.install()
            start = perf_counter()
            try:
                checks = workload.iteration(run)
            finally:
                seconds = perf_counter() - start
                if traced:
                    tracer.restore()
            iterations.append((seconds, traced))
            probes.phase = "checks"
            checks()
            probes.phase = "pipeline"
            if len(iterations) >= MIN_ITERATIONS and perf_counter() + seconds / 2 > deadline:
                break
        probes.phase = "checks"
        workload.final_checks(run)
    except Exception:  # a failing operation is reported, not hidden
        run.attempted += 1
        run.failed += 1
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        probes.restore()
    return run, probes, tracer, setup_s, iterations, error


def end_to_end(run, probes, workload, import_s, setup_s, iterations):
    steps = [1e3 * s for s in probes.untraced_steps(workload.train_phase)]
    fits = probes.fits_in(workload.train_phase)
    lat = [1e3 * s for s in run.samples["predict1"]]
    step_tail, step_beyond = tail(steps, STEP_TAIL_PERCENTILE)
    blocks = [tail(lat[i:i + PREDICT1_BLOCK], 99)
              for i in range(0, len(lat) - PREDICT1_BLOCK + 1, PREDICT1_BLOCK)]
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        # the mean, not the median: pass times drift within a run as the
        # host's speed changes, and the mean spreads less over seeds
        "pipeline_s": statistics.fmean(s for s, traced in iterations if not traced),
        "train_samples_per_s": statistics.median(n / s for n, s, _ in fits),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": percentile(steps, 90),
        **run.quality,
        "predict1_ms_p50": statistics.median(lat),
        "predict_rows_per_s": statistics.median(run.samples["predict"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"steps": len(steps), f"steps_beyond_p{STEP_TAIL_PERCENTILE}": step_beyond,
               "fits": len(fits),
               "dataset_saves": len(probes.rows_per_s("save")),
               "dataset_loads": len(probes.rows_per_s("load")),
               "predict1": len(lat), "predict1_p99_blocks": len(blocks),
               "predict1_beyond_p99_per_block": min(beyond for _, beyond in blocks),
               "iterations": len(iterations), "setup_reps": len(setup_s),
               "pass_s": [s for s, _ in iterations], "setup_rep_s": setup_s}
    # reported, but not gated: see "Host noise" in benchmarks/README.md
    extra = {f"step_ms_p{STEP_TAIL_PERCENTILE}": step_tail,
             "dataset_load_rows_per_s": statistics.median(probes.rows_per_s("load")),
             "dataset_save_rows_per_s": statistics.median(probes.rows_per_s("save")),
             "predict1_ms_p99": statistics.median(value for value, _ in blocks)}
    if workload.recipe:
        # the set-up is the acceptance recipe cut to a few epochs; swap them
        # for the full 120 to see the headroom under its 300 s gate
        epoch_s = statistics.median(s for _, s, _ in fits) / workload.epochs
        extra["recipe.epoch_s"] = epoch_s
        extra["recipe.projected_120ep_s"] = (metrics["setup_s"] + (RECIPE_FULL_EPOCHS
                                                                   - workload.epochs) * epoch_s)
        extra["recipe.gate_s"] = RECIPE_GATE_S
    return metrics, samples, extra


def per_layer(lib, tracer, work, iterations):
    from counts import layer_shapes, span_flops
    from spans import Summary

    s = Summary(tracer.spans)
    shapes = layer_shapes(lib)
    metrics = {}
    # per call inside train steps, so batch-1 predictions do not dilute them
    for kind in ("linear_forward", "linear_backward"):
        for layer in shapes:
            name = f"engine.{kind}.{layer}"
            calls = s.in_step_calls[name]
            metrics[f"{name}.ms"] = 1e3 * s.in_step_self[name] / calls if calls else 0.0
    flops = sum(span_flops(shapes, name, rows) for name, _, _, _, rows in tracer.spans
                if name.startswith("engine.linear_"))
    gemm_s = sum(t for name, t in s.total.items() if name.startswith("engine.linear_"))
    metrics["engine.gemm_gflops"] = flops / gemm_s / 1e9 if gemm_s else 0.0
    opt, step = "engine.Optimizer.step", "model.train_step"
    metrics["engine.Optimizer.step.ms"] = s.mean_ms(opt)
    metrics["engine.optimizer_share"] = s.total[opt] / s.total[step] if s.total[step] else 0.0
    metrics["engine.optimizer_gbps"] = (work["optimizer_bytes_per_step"] * s.calls[opt]
                                        / s.total[opt] / 1e9 if s.total[opt] else 0.0)
    batches = s.calls["losses.total_loss"]
    metrics["losses.total_loss.ms"] = s.mean_ms("losses.total_loss")
    for loss in ("multilabel_ce", "softmax_ce", "va_loss"):
        total = s.total[f"losses.{loss}"]
        metrics[f"losses.{loss}.ms"] = 1e3 * total / batches if batches else 0.0
    metrics["model.loss_and_grads.self_ms"] = s.mean_self_ms("model.loss_and_grads")
    metrics["model.forward.b1.self_ms"] = s.mean_self_ms("model.forward.b1")
    metrics["data.batch_iter.ms_per_batch"] = s.mean_ms("data.batch_iter")
    metrics["data.load_dataset.rows_per_s"] = s.rate("data.load_dataset")
    metrics["data.save_dataset.rows_per_s"] = s.rate("data.save_dataset")
    metrics["synth.synth_generate.ms"] = s.mean_ms("synth.synth_generate")
    metrics["metrics.evaluate.ms"] = s.mean_ms("metrics.evaluate")
    fit_epochs = s.amount["train.fit"]
    metrics["train.fit.epoch_s"] = s.total["train.fit"] / fit_epochs if fit_epochs else 0.0
    # module self times per traced step against the untraced steps between
    # them; the difference is what tracing adds to a step, to be set
    # against spans per step times the calibrated cost of one span
    split = s.step_split_ms()
    metrics["trace.step_self_sum_ms"] = sum(split.values())
    metrics["trace.untraced_step_ms"] = 1e3 * statistics.fmean(tracer.reference_steps)
    metrics["trace.spans_per_step"] = (sum(s.in_step_calls.values())
                                       / s.calls["model.train_step"])
    metrics["trace.span_cost_us"] = tracer.span_cost_us()

    # layers that only one workload calls, and differences that host noise
    # can make negative, go to the report, not to the per-layer metrics
    traced = [t for t, on in iterations if on]
    untraced = [t for t, on in iterations if not on]
    extra = {"trace.overhead_pipeline_s": statistics.median(traced) - statistics.median(untraced),
             "trace.step_overhead_ms": (metrics["trace.step_self_sum_ms"]
                                        - metrics["trace.untraced_step_ms"])}
    one_workload = {"model.save_checkpoint.ms": s.mean_ms("model.save_checkpoint"),
                    "model.load_checkpoint.ms": s.mean_ms("model.load_checkpoint"),
                    "data.kfold_split.ms": s.mean_ms("data.kfold_split"),
                    "pseudo.pseudo_apply.rows_per_s": s.rate("pseudo.pseudo_apply"),
                    "train.run_kfold.fold_s": s.mean_ms("train.run_fold") / 1e3,
                    **{f"cli.main.{verb}.s": s.mean_ms(f"cli.main.{verb}") / 1e3
                       for verb in ("synth", "pseudo", "eval")}}
    extra.update((name, value) for name, value in one_workload.items() if value)
    return metrics, extra, split


def declared_units(trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", default=None, help="also write the full report as JSON here")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args, WORKLOADS[args.workload]


def main(argv=None):
    blas_threads = cap_blas_threads()
    ticks = cpu_ticks()
    lib = import_package()
    # numpy is loaded by now, with the thread cap in force
    from counts import work as computed_work

    args, workload = parse_args(argv)
    import_s = 0.0 if args.trace else import_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        run, probes, tracer, setup_s, iterations, error = execute(lib, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ticks_end = cpu_ticks()
    if not iterations or run.quality is None:
        print(f"error: {workload.name} completed no pipeline pass", file=sys.stderr)
        return 1

    work = computed_work(lib)
    doc = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "provenance": provenance(blas_threads), "computed_work": work}
    e2e, samples, extra = end_to_end(run, probes, workload, import_s, setup_s, iterations)
    if ticks and ticks_end and ticks_end[1] > ticks[1]:
        # share of all CPU time the hypervisor gave to other guests
        samples["host_cpu_steal_share"] = (ticks_end[0] - ticks[0]) / (ticks_end[1] - ticks[1])
    doc.update(samples=samples, extra=extra)
    if args.trace:
        metrics, layer_extra, split = per_layer(lib, tracer, work, iterations)
        extra.update(layer_extra)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.write(spans_file)
        del e2e["setup_s"]  # set-ups after the first are traced
        doc.update(per_layer=metrics, step_split_ms=split, spans_file=str(spans_file.name),
                   end_to_end_of_untraced_passes=e2e)
    else:
        metrics = e2e
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         f"differ from {SPEC.name}")
    metrics = {name: metrics[name] for name in units}
    doc.update(attempted=run.attempted, failed=run.failed,
               fail_ratio=run.failed / run.attempted, checks=run.checks,
               failures=run.failures + ([error] if error else []))

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(doc["provenance"], sort_keys=True))
    print("# computed_work " + json.dumps(work, sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    for name, (passed, total) in sorted(run.checks.items()):
        print(f"# check {name}: {passed}/{total} passed")
    for failure in doc["failures"]:
        print(f"# FAILED {failure.splitlines()[-1]}")
    print(f"# fail_ratio {run.failed}/{run.attempted} = {doc['fail_ratio']!r}")
    for name, value in extra.items():
        print(f"# {name} {value!r}")
    if args.trace:
        for name, ms in sorted(doc["step_split_ms"].items(), key=lambda kv: -kv[1]):
            print(f"# step_split {name} {ms!r} ms")
    for name, value in metrics.items():
        print(f"# metric {name} {value!r} {units[name]}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
