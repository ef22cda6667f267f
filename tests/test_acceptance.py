"""Top-level acceptance checks.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line (bypassing pytest's capture) so a full run yields a compact
scoreboard. Criterion 5 trains a real model; its artifacts are reused by
the determinism check so the suite stays inside the stated time budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from affectstream.data import Batch, kfold_split, load_dataset, save_dataset
from affectstream.engine import finite_diff_check
from affectstream.losses import ccc, multilabel_ce, softmax_ce, va_loss
from affectstream.metrics import track_scores
from affectstream.model import Model, NetConfig, save_checkpoint
from affectstream.pseudo import default_rule_table, pseudo_apply, pseudo_infer
from affectstream.synth import SynthConfig, synth_generate
from affectstream.train import (GRADCHECK_DIMS, TrainSettings, evaluate_model, fit,
                                holdout_split, make_gradcheck_setup, run_kfold)


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({detail})",
              flush=True)
    assert ok, f"criterion {num} {label}: {detail}"


# -- 1: score formulas ----------------------------------------------------


def test_criterion_1_score_formulas(capsys):
    au, _, _ = track_scores(au_f1=0.588, au_tacc=0.896)
    _, ce, _ = track_scores(ce_f1=0.757, ce_acc=0.856)
    _, _, va = track_scores(ccc_v=0.488, ccc_a=0.502)
    ok = (abs(au - 0.742) <= 1e-9 and abs(ce - 0.790) <= 5e-4
          and abs(va - 0.495) <= 1e-9)
    verdict(capsys, 1, "challenge score formulas",
            ok, f"au={au:.9f} ce={ce:.6f} va={va:.9f}")


# -- 2: loss oracles ------------------------------------------------------


def test_criterion_2_loss_oracles(capsys):
    all_neg, _ = multilabel_ce(np.zeros(12), np.zeros(12, dtype=int))
    target = np.zeros(12, dtype=int)
    target[:4] = 1
    mixed, _ = multilabel_ce(np.zeros(12), target)
    uniform, _ = softmax_ce(np.zeros(7), 3)
    concordance = ccc(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    errs = (abs(all_neg - np.log(13.0)),
            abs(mixed - (np.log(9.0) + np.log(5.0))),
            abs(uniform - np.log(7.0)),
            abs(concordance - 2.0 / 3.0))
    ok = errs[0] <= 1e-9 and errs[1] <= 1e-9 and errs[2] <= 1e-9 and errs[3] <= 1e-12
    verdict(capsys, 2, "closed-form loss values",
            ok, "max err {:.2e}".format(max(errs)))


# -- 3: gradient checks ---------------------------------------------------


def _max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _central_diff(fn, x, eps=1e-5):
    out = np.zeros_like(x)
    flat = x.ravel()
    g = out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn()
        flat[i] = orig - eps
        f_minus = fn()
        flat[i] = orig
        g[i] = (f_plus - f_minus) / (2.0 * eps)
    return out


def test_criterion_3_gradient_checks(capsys):
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(11))
    worst = 0.0

    logits = rng.normal(0.0, 1.5, 12)
    target = (rng.random(12) < 0.5).astype(int)
    _, grad = multilabel_ce(logits, target)
    worst = max(worst, _max_rel_err(
        grad, _central_diff(lambda: multilabel_ce(logits, target)[0], logits)))

    logits7 = rng.normal(0.0, 1.5, 7)
    _, grad = softmax_ce(logits7, 2)
    worst = max(worst, _max_rel_err(
        grad, _central_diff(lambda: softmax_ce(logits7, 2)[0], logits7)))

    pred = rng.normal(0.0, 0.6, (6, 2))
    truth = rng.normal(0.0, 0.6, (6, 2))
    _, grad = va_loss(pred, truth)
    worst = max(worst, _max_rel_err(
        grad, _central_diff(lambda: va_loss(pred, truth)[0], pred)))

    for variant in ("streaming", "parallel"):
        model, batch = make_gradcheck_setup(variant=variant)
        result = finite_diff_check(lambda: model.loss_and_grads(batch).total,
                                   model.store, eps=1e-5)
        worst = max(worst, result.max_rel_err)

    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    verdict(capsys, 3, "analytic gradients vs central differences",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 4: masking exactness -------------------------------------------------


def _masked_batch(drop):
    model, batch = make_gradcheck_setup()
    labels = batch.labels
    return Batch(batch.emb, replace(
        labels,
        au_mask=labels.au_mask & ("au" not in drop),
        ce=np.where("ce" in drop, -1, labels.ce),
        va_mask=labels.va_mask & ("va" not in drop)))


def test_criterion_4_masking_exactness(capsys):
    t0 = time.time()
    ok = True
    notes = []
    _, base_batch = make_gradcheck_setup()

    # a fully-masked track leaves its head untouched
    for track in ("au", "ce", "va"):
        model = Model(NetConfig(seed=0, **GRADCHECK_DIMS))
        model.store.zero_grads()
        model.loss_and_grads(_masked_batch({track}))
        for name in model.store.names():
            if name.startswith(f"head_{track}."):
                for g in model.store.grads(name):
                    if not np.all(g == 0.0):
                        ok = False
                        notes.append(f"nonzero grad in {name} with {track} masked")

    # VA-only labels reach the AU extractor only through the chained heads
    va_only = _masked_batch({"au", "ce"})
    grads = {}
    for variant in ("streaming", "parallel"):
        model = Model(NetConfig(variant=variant, seed=0, **GRADCHECK_DIMS))
        model.store.zero_grads()
        model.loss_and_grads(va_only)
        total = sum(float(np.abs(g).sum())
                    for name in model.store.names() if name.startswith("extractor_au.")
                    for g in model.store.grads(name))
        grads[variant] = total
    if not grads["streaming"] > 0.0:
        ok = False
        notes.append("streaming extractor_au grads all zero under VA-only labels")
    if grads["parallel"] != 0.0:
        ok = False
        notes.append("parallel extractor_au grads nonzero under VA-only labels")

    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    verdict(capsys, 4, "label masks gate gradients exactly",
            ok, "; ".join(notes) if notes else f"{elapsed:.1f}s")


# -- 5 + 7: convergence run and artifact determinism ----------------------

HOLDOUT_SEED = 1
TRAIN_RECIPE = dict(epochs=120, batch_size=32, lr=1e-3, weight_decay=2e-3,
                    optimizer="adam", seed=0)


def _convergence_run(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    cfg = SynthConfig(n=2000, latent_dim=16, missing_au=0.3, missing_ce=0.3,
                      missing_va=0.3, noise_std=0.05, seed=0)
    records, truth = synth_generate(cfg)
    save_dataset(records, str(out_dir / "train.csv"), dim=cfg.embed_dim)
    save_dataset(truth, str(out_dir / "train.csv.truth"), dim=cfg.embed_dim)
    train, hold = holdout_split(records, 0.2, seed=HOLDOUT_SEED)
    train, _ = pseudo_apply(train, default_rule_table())
    model = Model(NetConfig(seed=0))
    fit(model, train, TrainSettings(**TRAIN_RECIPE))
    save_checkpoint(model, str(out_dir / "model.json"))
    report = evaluate_model(model, hold)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    return report, time.time() - t0


@pytest.fixture(scope="session")
def convergence(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance") / "run1"
    report, seconds = _convergence_run(out_dir)
    return {"dir": out_dir, "report": report, "seconds": seconds}


@pytest.mark.slow
def test_criterion_5_synthetic_convergence(capsys, convergence):
    report = convergence["report"]
    mean_ccc = (report.ccc_v + report.ccc_a) / 2.0
    ok = (report.au_f1_macro >= 0.85 and report.ce_acc >= 0.85
          and mean_ccc >= 0.75 and convergence["seconds"] < 300.0)
    verdict(capsys, 5, "holdout metrics after training on masked synthetic data", ok,
            f"au_f1={report.au_f1_macro:.3f} ce_acc={report.ce_acc:.3f} "
            f"ccc={mean_ccc:.3f} in {convergence['seconds']:.0f}s")


# -- 6: pseudo-label correctness ------------------------------------------


def test_criterion_6_pseudo_label_correctness(capsys):
    t0 = time.time()
    cfg = SynthConfig(n=2000, latent_dim=16, missing_ce=1.0, seed=0)
    records, truth = synth_generate(cfg)
    table = default_rule_table()
    filled_records, filled = pseudo_apply(records, table)

    truth_by_id = {r.id: r for r in truth}
    mismatches = 0
    covered = 0
    for rec in filled_records:
        tr = truth_by_id[rec.id]
        if pseudo_infer(tr.labels.au, table) is not None:
            covered += 1
            if rec.labels.ce != tr.labels.ce:
                mismatches += 1
    again, filled_again = pseudo_apply(filled_records, table)
    stable = filled_again == 0 and all(
        a.labels.ce == b.labels.ce for a, b in zip(filled_records, again))

    elapsed = time.time() - t0
    ok = filled > 0 and filled == covered and mismatches == 0 and stable and elapsed < 10.0
    verdict(capsys, 6, "rule-filled CE labels match generator truth", ok,
            f"filled {filled}/{covered} covered, {mismatches} mismatches, "
            f"idempotent={stable}, {elapsed:.1f}s")


# -- 7: determinism -------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_artifact_determinism(capsys, convergence, tmp_path):
    run2 = tmp_path / "run2"
    _, seconds = _convergence_run(run2)
    names = ["train.csv", "train.csv.truth", "model.json", "report.json"]
    same = [(convergence["dir"] / n).read_bytes() == (run2 / n).read_bytes()
            for n in names]
    total = convergence["seconds"] + seconds
    ok = all(same) and total < 360.0
    detail = ", ".join(f"{n}={'=' if s else '!'}" for n, s in zip(names, same))
    verdict(capsys, 7, "byte-identical artifacts across two seeded runs", ok,
            f"{detail}, {total:.0f}s for both runs")


# -- 8: k-fold protocol ---------------------------------------------------


def test_criterion_8_kfold_protocol(capsys):
    t0 = time.time()
    cfg = SynthConfig(n=100, latent_dim=8, embed_dim=32, lift_hidden=16, seed=4)
    _, records = synth_generate(cfg)
    splits = kfold_split(records, 5, seed=0)

    all_ids = {r.id for r in records}
    val_ids = [frozenset(r.id for r in val) for _, val in splits]
    disjoint = sum(len(v) for v in val_ids) == len(frozenset().union(*val_ids))
    exhaustive = frozenset().union(*val_ids) == all_ids
    sizes = [len(v) for v in val_ids]
    balanced = max(sizes) - min(sizes) <= 1
    partitioned = all(
        {r.id for r in tr} == all_ids - val for (tr, _), val in zip(splits, val_ids))

    net = NetConfig(embed_dim=32, au_feat_dim=12, ce_feat_dim=8, va_feat_dim=8,
                    translator_dim=8, extractor_hidden=16, head_hidden=8, seed=0)
    reports, aggregate = run_kfold(records, 5, 0, net,
                                   TrainSettings(epochs=1, batch_size=32, seed=0))
    mean_ok = all(
        aggregate[key] == pytest.approx(
            np.mean([getattr(r, key) for r in reports]), abs=1e-12)
        for key in ("au_score", "ce_score", "va_score"))

    elapsed = time.time() - t0
    ok = disjoint and exhaustive and balanced and partitioned and mean_ok and elapsed < 10.0
    verdict(capsys, 8, "fold partition and aggregate mean", ok,
            f"sizes={sizes} disjoint={disjoint} exhaustive={exhaustive} "
            f"mean-of-folds={mean_ok}, {elapsed:.1f}s")
