"""The benchmark workloads.

Every workload is a closed loop with one caller and runs the whole
data -> train -> checkpoint -> predict life cycle, so that each reports
every end-to-end metric; each puts its weight on a different layer:

* ``kfold-b256``: ``run_kfold`` on fully labelled records at batch 256.
  Few large steps with every loss track active on every sample, so the
  GEMMs and the per-sample losses dominate and the optimizer matters less.
* ``io-infer``: the non-training path through ``cli.main`` (synth, pseudo,
  eval) plus streamed batch-1 and full-batch predictions on a read-only
  model. Text parse and format dominate. Its set-up trains that model with
  the acceptance recipe (batch 32, many small steps, so fixed per-step
  costs such as optimizer passes and per-sample loss glue dominate), and
  its training metrics come from there, so the timed part stays read-only.

``setup`` builds a workload's inputs from the seed and warms up; the run
repeats it to time set-up. ``iteration`` is one timed pass of the
pipeline. ``final_checks`` runs once, untimed, after the last pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from time import perf_counter

import numpy as np

RECIPE_EPOCHS = 2
KFOLD_EPOCHS = 3
KFOLD_K = 4
PREDICT1_CALLS = 2000
PREDICT_REPEATS = 9
N_ROWS = 2000
HOLDOUT_FRACTION = 0.2
MASKED = dict(missing_au=0.3, missing_ce=0.3, missing_va=0.3)


class Run:
    """Samples, quality scores and check outcomes of one benchmark run."""

    def __init__(self, lib, seed, workdir, probes, tracer=None):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.probes = probes
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = {}
        self.samples = {"predict": [], "predict1": []}
        self.quality = None
        self.state = {}

    @contextlib.contextmanager
    def unmeasured(self):
        """Keep warm-up work out of step samples and spans."""
        phase, self.probes.phase = self.probes.phase, "warmup"
        if self.tracer:
            self.tracer.paused = True
        try:
            yield
        finally:
            self.probes.phase = phase
            if self.tracer:
                self.tracer.paused = False

    def path(self, name):
        return os.path.join(self.workdir, name)

    def call(self, fn, *args, **kwargs):
        """One operation through a public entry point."""
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        passed, total = self.checks.get(name, (0, 0))
        self.checks[name] = (passed + bool(ok), total + 1)
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def cli(self, argv):
        """Run one CLI verb in-process; returns its standard output."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(self.lib.cli.main, argv)
        self.check(f"cli_{argv[0]}_exit_0", code == 0, f"exit {code}")
        return out.getvalue()

    # -- shared stages ----------------------------------------------------

    def predict_stages(self, model, emb, calls):
        """Full-batch predictions, then a stream of batch-1 predictions.

        Timings of traced passes are not kept.
        """
        rates, lat = [], []
        for _ in range(PREDICT_REPEATS):
            start = perf_counter()
            self.call(model.predict, emb)
            rates.append(len(emb) / (perf_counter() - start))
        rows = [emb[i % len(emb)][None, :] for i in range(calls)]
        for row in rows:
            start = perf_counter()
            self.call(model.predict, row)
            lat.append(perf_counter() - start)
        if not self.probes.traced:
            self.samples["predict"] += rates
            self.samples["predict1"] += lat

    def check_history(self, history, what):
        ok = len(history) >= 2 and all(np.isfinite(history)) and history[-1] < history[0]
        self.check("epoch_loss_finite_and_decreasing", ok, f"{what}: {history}")

    def check_round_trip(self, records, first_file):
        """save -> load -> save gives the same bytes."""
        second = self.path("roundtrip.csv")
        self.call(self.lib.data.save_dataset, records, second)
        with open(first_file, "rb") as a, open(second, "rb") as b:
            same = a.read() == b.read()
        self.check("dataset_round_trip_bytes", same, f"{first_file} != {second}")

    def check_checkpoint(self, before, after):
        a, b = before.store, after.store
        same = (a.names() == b.names() and before.config == after.config
                and np.array_equal(before.au_thresholds, after.au_thresholds)
                and all(np.array_equal(x, y) and x.dtype == y.dtype
                        for name in a.names()
                        for x, y in zip(a.params(name), b.params(name))))
        self.check("checkpoint_round_trip_exact", same, "loaded parameters differ")


def synth_config(lib, seed, masked=True):
    return lib.synth.SynthConfig(n=N_ROWS, latent_dim=16, noise_std=0.05, seed=seed,
                                 **(MASKED if masked else {}))


def covered_fill_count(lib, records, truth):
    """Missing-CE records with AU present whose true AUs fire one rule."""
    table = lib.pseudo.default_rule_table()
    true_au = {t.id: t.labels.au for t in truth}
    return sum(1 for r in records
               if r.labels.ce is None and r.labels.au is not None
               and lib.pseudo.pseudo_infer(true_au[r.id], table) is not None)


def quality_of(report):
    return {"holdout_au_f1": float(report.au_f1_macro), "holdout_ce_acc": float(report.ce_acc),
            "holdout_va_ccc": float(report.ccc_v + report.ccc_a) / 2.0}


def train_settings(lib, seed, epochs, batch_size, weight_decay):
    return lib.train.TrainSettings(epochs=epochs, batch_size=batch_size, lr=1e-3,
                                   weight_decay=weight_decay, seed=seed)


def warm_up(run, records):
    """A short fit and predictions over all records, untimed."""
    lib = run.lib
    with run.unmeasured():
        model = lib.model.Model(lib.model.NetConfig(seed=run.seed))
        lib.train.fit(model, records[:64], train_settings(lib, run.seed, 1, 32, 0.0))
        emb = np.stack([r.embedding for r in records])
        model.predict(emb)
        model.predict(emb[:1])
    return model


class KfoldB256:
    """save -> load of the fully labelled truth records, then run_kfold
    (k=4, batch 256, streaming net, default workers), then predictions."""

    name = "kfold-b256"
    train_phase = "pipeline"
    epochs = KFOLD_EPOCHS
    recipe = False

    def setup(self, run):
        lib = run.lib
        _, truth = lib.synth.synth_generate(synth_config(lib, run.seed, masked=False))
        run.state["truth"] = truth
        run.state["emb"] = np.stack([r.embedding for r in truth])
        # run_kfold does not return its fold models; prediction cost does
        # not depend on the weight values, so the warm-up model of the same
        # shape serves the predictions
        run.state["model"] = warm_up(run, truth)

    def iteration(self, run):
        lib = run.lib
        truth = run.state["truth"]
        data_file = run.path("truth.csv")
        run.call(lib.data.save_dataset, truth, data_file)
        records = run.call(lib.data.load_dataset, data_file)
        first_fit = len(run.probes.fits)
        reports, aggregate = run.call(
            lib.train.run_kfold, records, KFOLD_K, run.seed, lib.model.NetConfig(seed=run.seed),
            train_settings(lib, run.seed, self.epochs, 256, 0.0))
        run.predict_stages(run.state["model"], run.state["emb"], PREDICT1_CALLS)
        return lambda: self._checks(run, reports, aggregate, first_fit, records, data_file)

    def _checks(self, run, reports, aggregate, first_fit, records, data_file):
        fits = run.probes.fits[first_fit:]
        run.check("kfold_fold_count", len(reports) == KFOLD_K and len(fits) == KFOLD_K,
                  f"{len(reports)} reports, {len(fits)} fits")
        for *_, history in fits:
            run.check_history(history, "fold")
        per_fold = [quality_of(r) for r in reports]
        run.quality = {k: float(np.mean([q[k] for q in per_fold])) for k in per_fold[0]}
        mean_au = float(np.mean([r.au_score for r in reports]))
        run.check("kfold_aggregate_is_fold_mean", abs(aggregate["au_score"] - mean_au) <= 1e-12,
                  f"{aggregate['au_score']} vs {mean_au}")
        run.state["last"] = (records, data_file)

    def final_checks(self, run):
        run.check_round_trip(*run.state["last"])


class IoInfer:
    """Set-up: the acceptance recipe (synth 2000 with 30% of each track
    masked -> save -> load -> holdout 0.2 -> pseudo -> fit at batch 32,
    lr 1e-3, wd 2e-3, cut to RECIPE_EPOCHS epochs -> checkpoint). Pass:
    cli synth -> cli pseudo -> cli eval of that checkpoint on the true
    labels of the holdout rows, then checkpoint load and full-batch and
    batch-1 predictions."""

    name = "io-infer"
    train_phase = "setup"
    epochs = RECIPE_EPOCHS
    recipe = True

    def setup(self, run):
        lib = run.lib
        records, truth = lib.synth.synth_generate(synth_config(lib, run.seed))
        run.state["expected_fill"] = covered_fill_count(lib, records, truth)
        run.state["emb"] = np.stack([r.embedding for r in truth])
        warm_up(run, truth)
        # the program trains from a dataset file, so the recipe does too
        data_file = run.path("recipe.csv")
        lib.data.save_dataset(records, data_file)
        records = lib.data.load_dataset(data_file)
        train, holdout = lib.train.holdout_split(records, HOLDOUT_FRACTION, seed=run.seed)
        held = {r.id for r in holdout}
        lib.data.save_dataset([t for t in truth if t.id in held], run.path("io_holdout.csv"))
        train, _ = lib.pseudo.pseudo_apply(train, lib.pseudo.default_rule_table())
        truth_ce = {t.id: t.labels.ce for t in truth}
        wrong = sum(1 for r in train if r.labels.ce is not None and r.labels.ce != truth_ce[r.id])
        run.check("pseudo_fill_matches_truth", wrong == 0, f"{wrong} CE labels differ")
        model = lib.model.Model(lib.model.NetConfig(seed=run.seed))
        history = lib.train.fit(model, train,
                                train_settings(lib, run.seed, self.epochs, 32, 2e-3))
        run.check_history([h.total for h in history], "set-up fit")
        lib.model.save_checkpoint(model, run.path("io_model.json"))
        run.state["model"] = model

    def iteration(self, run):
        lib = run.lib
        raw, filled_file = run.path("io.csv"), run.path("io_filled.csv")
        report_file = run.path("io_report.json")
        run.cli(["synth", "--n", str(N_ROWS), "--latent-dim", "16", "--noise-std", "0.05",
                 "--missing-au", "0.3", "--missing-ce", "0.3", "--missing-va", "0.3",
                 "--seed", str(run.seed), "--out", raw])
        pseudo_out = run.cli(["pseudo", "--data", raw, "--out", filled_file])
        run.cli(["eval", "--data", run.path("io_holdout.csv"),
                 "--checkpoint", run.path("io_model.json"), "--out", report_file])
        model = run.call(lib.model.load_checkpoint, run.path("io_model.json"))
        run.predict_stages(model, run.state["emb"], PREDICT1_CALLS)
        return lambda: self._checks(run, pseudo_out, report_file, model)

    def _checks(self, run, pseudo_out, report_file, model):
        m = re.search(r"filled (\d+) CE labels", pseudo_out)
        filled = int(m.group(1)) if m else -1
        run.check("pseudo_fill_count", filled == run.state["expected_fill"],
                  f"filled {filled}, rules cover {run.state['expected_fill']}")
        run.check_checkpoint(run.state["model"], model)
        with open(report_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        run.quality = {"holdout_au_f1": doc["au"]["f1_macro"], "holdout_ce_acc": doc["ce"]["acc"],
                       "holdout_va_ccc": (doc["va"]["ccc_v"] + doc["va"]["ccc_a"]) / 2.0}

    def final_checks(self, run):
        filled_file = run.path("io_filled.csv")
        run.check_round_trip(run.call(run.lib.data.load_dataset, filled_file), filled_file)
        oracle = run.path("oracle.json")
        run.cli(["eval", "--data", run.path("io.csv.truth"), "--oracle", "--out", oracle])
        with open(oracle, encoding="utf-8") as fh:
            doc = json.load(fh)
        scores = {track: doc[track]["score"] for track in ("au", "ce", "va") if track in doc}
        run.check("eval_oracle_scores_one", len(scores) == 3 and all(
            s == 1.0 for s in scores.values()), f"oracle scores {scores}")


WORKLOADS = {w.name: w for w in (KfoldB256(), IoInfer())}
