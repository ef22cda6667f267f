import json

import numpy as np
import pytest

from affectstream.data import LabelColumns, LabelSet
from affectstream.engine import make_rng
from affectstream.metrics import (MetricReport, ScoreWeights, au_metrics,
                                  binary_f1, ce_metrics, evaluate, track_scores)


# -- binary F1 -----------------------------------------------------------


def test_binary_f1_confusion_cells():
    # TP=2, FP=1, FN=1  ->  2*2 / (2*2 + 1 + 1)
    pred = [1, 1, 1, 0, 0]
    truth = [1, 1, 0, 1, 0]
    assert binary_f1(pred, truth) == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_binary_f1_perfect_and_disjoint():
    assert binary_f1([1, 0, 1], [1, 0, 1]) == 1.0
    assert binary_f1([1, 1, 0], [0, 0, 1]) == 0.0


def test_binary_f1_no_positives_anywhere():
    assert binary_f1([0, 0, 0], [0, 0, 0]) == 1.0


def test_binary_f1_symmetric_in_arguments():
    rng = make_rng(40)
    for _ in range(30):
        a = rng.integers(0, 2, 25)
        b = rng.integers(0, 2, 25)
        assert binary_f1(a, b) == pytest.approx(binary_f1(b, a), abs=1e-15)


def test_binary_f1_differs_from_accuracy_under_imbalance():
    # 1 TP, 1 FN, 18 TN: accuracy 0.95 but F1 only 2/3
    truth = np.zeros(20, int)
    truth[:2] = 1
    pred = np.zeros(20, int)
    pred[0] = 1
    assert np.mean(pred == truth) == pytest.approx(0.95)
    assert binary_f1(pred, truth) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_binary_f1_shape_mismatch():
    with pytest.raises(ValueError):
        binary_f1([1, 0], [1, 0, 1])


# -- AU track ------------------------------------------------------------


def au_case():
    # per-column (truth, pred) over three samples, chosen to cover perfect,
    # partial, degenerate and all-wrong columns
    cols = [
        ([1, 1, 0], [1, 1, 0]),  # perfect               -> 1
        ([1, 1, 0], [1, 0, 0]),  # TP=1 FN=1             -> 2/3
        ([1, 1, 0], [1, 1, 1]),  # TP=2 FP=1             -> 4/5
        ([1, 1, 0], [0, 0, 1]),  # all three cells wrong -> 0
        ([0, 0, 0], [0, 0, 0]),  # no positives          -> 1
        ([0, 0, 0], [0, 0, 0]),
        ([0, 0, 0], [0, 0, 0]),
        ([0, 0, 0], [1, 0, 0]),  # lone FP               -> 0
        ([1, 0, 1], [1, 0, 1]),  # perfect               -> 1
        ([1, 0, 1], [1, 1, 1]),  # TP=2 FP=1             -> 4/5
        ([1, 0, 1], [0, 0, 0]),  # FN=2                  -> 0
        ([1, 0, 1], [1, 0, 0]),  # TP=1 FN=1             -> 2/3
    ]
    truth = np.array([c[0] for c in cols]).T
    pred = np.array([c[1] for c in cols]).T
    return pred, truth


def test_au_metrics_hand_enumeration():
    pred, truth = au_case()
    f1_macro, tacc, per_unit = au_metrics(pred, truth)
    expected_units = [1, 2 / 3, 4 / 5, 0, 1, 1, 1, 0, 1, 4 / 5, 0, 2 / 3]
    assert per_unit == pytest.approx(expected_units, abs=1e-15)
    assert f1_macro == pytest.approx(119.0 / 180.0, abs=1e-15)
    assert tacc == pytest.approx(26.0 / 36.0, abs=1e-15)


def test_au_metrics_sample_order_invariant():
    rng = make_rng(41)
    pred = rng.integers(0, 2, (40, 12))
    truth = rng.integers(0, 2, (40, 12))
    base = au_metrics(pred, truth)
    perm = rng.permutation(40)
    shuffled = au_metrics(pred[perm], truth[perm])
    assert shuffled[0] == pytest.approx(base[0], abs=1e-15)
    assert shuffled[1] == pytest.approx(base[1], abs=1e-15)


def test_au_metrics_corruption_never_helps():
    rng = make_rng(42)
    truth = rng.integers(0, 2, (30, 12))
    pred = truth.copy()
    f1_prev, tacc_prev, _ = au_metrics(pred, truth)
    assert f1_prev == 1.0 and tacc_prev == 1.0
    order = list(np.ndindex(pred.shape))
    rng.shuffle(order)
    for idx in order[:60]:
        pred[idx] ^= 1  # flip one correct cell to incorrect
        f1, tacc, _ = au_metrics(pred, truth)
        assert f1 <= f1_prev + 1e-12
        assert tacc < tacc_prev
        f1_prev, tacc_prev = f1, tacc


def test_au_metrics_rejects_wrong_width():
    with pytest.raises(ValueError):
        au_metrics(np.zeros((3, 11)), np.zeros((3, 11)))


# -- CE track ------------------------------------------------------------


def test_ce_metrics_hand_confusion():
    truth = np.array([0, 0, 0, 1, 1, 2])
    pred = np.array([0, 1, 0, 1, 1, 1])
    f1_macro, acc = ce_metrics(pred, truth)
    # class0 4/5, class1 2/3, class2 0, classes 3..6 degenerate 1 each
    assert f1_macro == pytest.approx((4 / 5 + 2 / 3 + 0 + 4) / 7, abs=1e-15)
    assert acc == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_ce_metrics_perfect():
    truth = np.array([0, 1, 2, 3, 4, 5, 6])
    f1_macro, acc = ce_metrics(truth.copy(), truth)
    assert f1_macro == 1.0 and acc == 1.0


def test_ce_metrics_random_guess_accuracy():
    rng = make_rng(43)
    n = 20000
    truth = rng.integers(0, 7, n)
    pred = rng.integers(0, 7, n)
    _, acc = ce_metrics(pred, truth)
    assert abs(acc - 1.0 / 7.0) < 0.02


def test_ce_metrics_rejects_out_of_range():
    with pytest.raises(ValueError):
        ce_metrics(np.array([0, 7]), np.array([0, 1]))
    with pytest.raises(ValueError):
        ce_metrics(np.array([0, 1]), np.array([-1, 1]))


def test_ce_metrics_sample_order_invariant():
    rng = make_rng(44)
    pred = rng.integers(0, 7, 50)
    truth = rng.integers(0, 7, 50)
    perm = rng.permutation(50)
    assert ce_metrics(pred, truth) == pytest.approx(ce_metrics(pred[perm], truth[perm]))


# -- combined scores -----------------------------------------------------


def test_track_scores_reference_values():
    au, ce, va = track_scores(au_f1=0.588, au_tacc=0.896,
                              ce_f1=0.757, ce_acc=0.856,
                              ccc_v=0.488, ccc_a=0.502)
    assert au == pytest.approx(0.742, abs=1e-9)
    assert ce == pytest.approx(0.790, abs=5e-4)
    assert ce == pytest.approx(0.67 * 0.757 + 0.33 * 0.856, abs=1e-9)
    assert va == pytest.approx(0.495, abs=1e-9)


def test_track_scores_missing_components_are_none():
    au, ce, va = track_scores(au_f1=0.5)
    assert au is None and ce is None and va is None
    au, ce, va = track_scores(ccc_v=0.3, ccc_a=0.5)
    assert au is None and ce is None and va == pytest.approx(0.4)


def test_track_scores_custom_weights():
    w = ScoreWeights(ce_f1=0.9, ce_acc=0.1)
    _, ce, _ = track_scores(ce_f1=1.0, ce_acc=0.0, weights=w)
    assert ce == pytest.approx(0.9)


# -- evaluate over partial labels ----------------------------------------


def test_evaluate_per_track_subsets():
    rng = make_rng(45)
    n = 10
    au_pred = rng.integers(0, 2, (n, 12))
    ce_pred = rng.integers(0, 7, n)
    va_pred = rng.uniform(-1, 1, (n, 2))
    labels = []
    for i in range(n):
        labels.append(LabelSet(
            au=au_pred[i] if i < 4 else None,        # AU truth = pred on 0..3
            ce=int(ce_pred[i]) if 4 <= i < 7 else None,
            va=va_pred[i] if i >= 7 else None))
    report = evaluate(au_pred, ce_pred, va_pred, LabelColumns.from_labels(labels))
    assert (report.n_au, report.n_ce, report.n_va) == (4, 3, 3)
    assert report.au_score == 1.0 and report.ce_acc == 1.0
    assert report.va_score == pytest.approx(1.0, abs=1e-12)


def test_evaluate_absent_tracks_are_none():
    rng = make_rng(46)
    au_pred = rng.integers(0, 2, (5, 12))
    ce_pred = rng.integers(0, 7, 5)
    va_pred = rng.uniform(-1, 1, (5, 2))
    labels = [LabelSet(ce=int(rng.integers(0, 7))) for _ in range(5)]
    report = evaluate(au_pred, ce_pred, va_pred, LabelColumns.from_labels(labels))
    assert report.au_score is None and report.va_score is None
    assert report.ce_score is not None and report.n_ce == 5


def test_evaluate_single_va_label_not_scored():
    rng = make_rng(47)
    labels = [LabelSet(va=np.array([0.1, 0.2])), LabelSet(au=rng.integers(0, 2, 12))]
    report = evaluate(rng.integers(0, 2, (2, 12)), rng.integers(0, 7, 2),
                      rng.uniform(-1, 1, (2, 2)), LabelColumns.from_labels(labels))
    assert report.va_score is None and report.n_va == 0


def test_report_serialization_round_trip():
    rng = make_rng(48)
    n = 8
    au_pred = rng.integers(0, 2, (n, 12))
    labels = [LabelSet(au=rng.integers(0, 2, 12), va=rng.uniform(-1, 1, 2))
              for _ in range(n)]
    report = evaluate(au_pred, rng.integers(0, 7, n), rng.uniform(-1, 1, (n, 2)),
                      LabelColumns.from_labels(labels))
    doc = json.loads(report.to_json())
    assert set(doc) == {"au", "va"}
    assert doc["au"]["score"] == pytest.approx(report.au_score)
    assert len(doc["au"]["f1_per_unit"]) == 12
    text = report.to_text()
    assert f"au.score = {report.au_score:.6f}" in text
    assert "ce." not in text
    for line in text.strip().splitlines():
        assert " = " in line


def test_report_json_is_deterministic():
    rng = make_rng(49)
    labels = [LabelSet(au=rng.integers(0, 2, 12)) for _ in range(4)]
    preds = (rng.integers(0, 2, (4, 12)), rng.integers(0, 7, 4), rng.uniform(-1, 1, (4, 2)))
    a = evaluate(*preds, LabelColumns.from_labels(labels)).to_json()
    b = evaluate(*preds, LabelColumns.from_labels(labels)).to_json()
    assert a == b
