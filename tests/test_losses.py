import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affectstream.data import LabelColumns, LabelSet
from affectstream.engine import make_rng
from affectstream.losses import (ccc, multilabel_ce, softmax_ce, total_loss, va_loss)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(x)
        x[idx] = orig - eps
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
    return grad


# -- multilabel cross entropy --------------------------------------------


def test_multilabel_ce_zero_logits_all_positive():
    loss, _ = multilabel_ce(np.zeros(12), np.ones(12))
    assert loss == pytest.approx(math.log(13), abs=1e-12)


def test_multilabel_ce_zero_logits_mixed():
    target = np.array([0] * 8 + [1] * 4)
    loss, _ = multilabel_ce(np.zeros(12), target)
    assert loss == pytest.approx(math.log(9) + math.log(5), abs=1e-12)


def test_multilabel_ce_two_label_case():
    loss, _ = multilabel_ce(np.array([2.0, -1.0]), np.array([1, 0]))
    expected = math.log(1 + math.exp(-1)) + math.log(1 + math.exp(-2))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_multilabel_ce_rejects_non_binary_target():
    with pytest.raises(ValueError):
        multilabel_ce(np.zeros(12), np.full(12, 0.5))


def test_multilabel_ce_nonnegative_and_saturates():
    rng = make_rng(0)
    for _ in range(50):
        logits = rng.normal(0, 3, 12)
        target = rng.integers(0, 2, 12)
        loss, _ = multilabel_ce(logits, target)
        assert loss >= 0.0
    # saturated limit: negatives far down, positives far up
    target = np.array([0] * 6 + [1] * 6)
    logits = np.where(target == 1, 50.0, -50.0)
    loss, _ = multilabel_ce(logits, target)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_multilabel_ce_permutation_equivariant():
    rng = make_rng(1)
    logits = rng.normal(0, 2, 12)
    target = rng.integers(0, 2, 12)
    loss, grad = multilabel_ce(logits, target)
    for _ in range(10):
        perm = rng.permutation(12)
        loss_p, grad_p = multilabel_ce(logits[perm], target[perm])
        assert loss_p == pytest.approx(loss, rel=1e-14)
        assert np.allclose(grad_p, grad[perm], rtol=1e-14, atol=0)


def test_multilabel_ce_overflow_safe():
    logits = np.array([1e4, -1e4] * 6)
    target = np.array([0, 1] * 6)
    loss, grad = multilabel_ce(logits, target)
    assert np.isfinite(loss) and np.isfinite(grad).all()
    target_flipped = np.array([1, 0] * 6)
    loss2, grad2 = multilabel_ce(logits, target_flipped)
    assert np.isfinite(loss2) and np.isfinite(grad2).all()


def test_multilabel_ce_gradient_matches_finite_differences():
    rng = make_rng(2)
    logits = rng.normal(0, 2, 12)
    target = rng.integers(0, 2, 12)
    _, grad = multilabel_ce(logits, target)
    num = numeric_grad(lambda l: multilabel_ce(l, target)[0], logits.copy())
    assert np.allclose(grad, num, atol=1e-8)


# -- softmax cross entropy -----------------------------------------------


def test_softmax_ce_uniform():
    loss, _ = softmax_ce(np.zeros(7), 3)
    assert loss == pytest.approx(math.log(7), abs=1e-12)


def test_softmax_ce_saturation():
    logits = np.zeros(7)
    logits[2] = 1000.0
    loss, _ = softmax_ce(logits, 2)
    assert 0.0 <= loss < 1e-6


def test_softmax_ce_three_class_case():
    loss, _ = softmax_ce(np.array([1.0, 2.0, 3.0]), 2)
    expected = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
    assert loss == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.40760596444438, abs=1e-11)


def test_softmax_ce_rejects_out_of_range_class():
    with pytest.raises(ValueError):
        softmax_ce(np.zeros(7), 7)
    with pytest.raises(ValueError):
        softmax_ce(np.zeros(7), -1)


def test_softmax_ce_gradient_structure():
    rng = make_rng(3)
    for _ in range(20):
        logits = rng.normal(0, 3, 7)
        target = int(rng.integers(0, 7))
        _, grad = softmax_ce(logits, target)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)
        num = numeric_grad(lambda l: softmax_ce(l, target)[0], logits.copy())
        assert np.allclose(grad, num, atol=1e-8)


def test_softmax_ce_overflow_safe():
    logits = np.array([1e4, -1e4, 0.0, 0.0, 0.0, 0.0, 0.0])
    loss, grad = softmax_ce(logits, 1)
    assert np.isfinite(loss) and np.isfinite(grad).all()


# -- concordance correlation ---------------------------------------------


def test_ccc_perfect_concordance():
    x = np.array([0.1, 0.4, -0.3, 0.8])
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ccc_perfect_anticoncordance():
    x = np.array([-1.0, -0.5, 0.5, 1.0])  # zero mean
    assert ccc(-x, x) == pytest.approx(-1.0, abs=1e-12)


def test_ccc_hand_case():
    assert ccc([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ccc_degenerate_cases():
    assert ccc([0.5, 0.5], [0.5, 0.5]) == 1.0
    # constant but unequal: denominator is (mean gap)^2 > 0, cov = 0
    assert ccc([0.5, 0.5], [0.7, 0.7]) == 0.0


def test_ccc_symmetric_and_invariant():
    rng = make_rng(4)
    p = rng.normal(0, 1, 20)
    t = rng.normal(0, 1, 20)
    base = ccc(p, t)
    assert ccc(t, p) == pytest.approx(base, rel=1e-12)
    assert ccc(p + 2.5, t + 2.5) == pytest.approx(base, rel=1e-9)
    assert ccc(3.0 * p, 3.0 * t) == pytest.approx(base, rel=1e-12)


def test_ccc_requires_two_samples():
    with pytest.raises(ValueError):
        ccc([1.0], [1.0])


# -- VA loss -------------------------------------------------------------


def test_va_loss_perfect_prediction():
    rng = make_rng(5)
    truth = rng.uniform(-1, 1, (6, 2))
    loss, grad = va_loss(truth.copy(), truth)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert grad.shape == (6, 2)


def test_va_loss_anticoncordant():
    truth = np.array([[-0.5, -0.2], [0.5, 0.2], [-0.3, -0.6], [0.3, 0.6]])  # zero mean
    loss, _ = va_loss(-truth, truth)
    assert loss == pytest.approx(4.0, abs=1e-12)


def test_va_loss_gradient_matches_finite_differences():
    rng = make_rng(6)
    pred = rng.uniform(-1, 1, (16, 2))
    truth = rng.uniform(-1, 1, (16, 2))
    _, grad = va_loss(pred, truth)
    num = numeric_grad(lambda p: va_loss(p, truth)[0], pred.copy())
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(num)), 1e-8)
    assert (np.abs(grad - num) / denom).max() < 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-160, 2.0 ** -511, 2.0 ** -532, 1e-300])
def test_va_loss_is_scale_free_down_to_underflowing_denominators(scale):
    """CCC is scale-free, so the loss at (s*pred, s*truth) equals the loss at
    (pred, truth) and the gradient is that gradient divided by s, also where
    the squared spreads underflow (a subnormal or zero CCC denominator)."""
    rng = make_rng(21)
    truth = rng.uniform(-1, 1, (8, 2))
    pred = truth.copy()
    pred[0] += 0.1  # one entry per column
    loss, grad = va_loss(pred, truth)
    loss_s, grad_s = va_loss(scale * pred, scale * truth)
    assert loss_s == (1.0 - ccc(scale * pred[:, 0], scale * truth[:, 0])) \
        + (1.0 - ccc(scale * pred[:, 1], scale * truth[:, 1]))
    assert np.isfinite(grad_s).all()
    assert loss_s == pytest.approx(loss, rel=1e-12)
    np.testing.assert_allclose(grad_s * scale, grad, rtol=1e-12, atol=0.0)


def test_va_loss_needs_two_samples():
    with pytest.raises(ValueError):
        va_loss(np.zeros((1, 2)), np.zeros((1, 2)))


# -- total masked loss ---------------------------------------------------


def make_labels(au=None, ce=None, va=None):
    return LabelSet(au=au, ce=ce, va=va)


def random_batch_outputs(rng, n):
    return (rng.normal(0, 1, (n, 12)), rng.normal(0, 1, (n, 7)),
            rng.uniform(-0.9, 0.9, (n, 2)))


def test_total_loss_no_va_labels_gives_zero_va():
    rng = make_rng(7)
    au_l, ce_l, va_p = random_batch_outputs(rng, 4)
    labels = [make_labels(au=rng.integers(0, 2, 12)) for _ in range(4)]
    bd, (g_au, g_ce, g_va) = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))
    assert bd.l_va == 0.0 and bd.n_va == 0
    assert np.array_equal(g_va, np.zeros((4, 2)))
    assert np.array_equal(g_ce, np.zeros((4, 7)))
    assert bd.total == pytest.approx(bd.l_au)


def test_total_loss_single_va_sample_skipped():
    rng = make_rng(8)
    au_l, ce_l, va_p = random_batch_outputs(rng, 1)
    labels = [make_labels(au=rng.integers(0, 2, 12), ce=3,
                          va=np.array([0.1, -0.2]))]
    bd, (_, _, g_va) = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))
    assert bd.n_va == 0 and bd.l_va == 0.0
    assert np.array_equal(g_va, np.zeros((1, 2)))
    assert bd.total == pytest.approx(bd.l_au + bd.l_ce)


def test_total_loss_mixed_batch_decomposes():
    rng = make_rng(9)
    n = 12
    au_l, ce_l, va_p = random_batch_outputs(rng, n)
    labels = []
    for i in range(n):
        if i < 4:
            labels.append(make_labels(au=rng.integers(0, 2, 12)))
        elif i < 8:
            labels.append(make_labels(ce=int(rng.integers(0, 7))))
        else:
            labels.append(make_labels(va=rng.uniform(-1, 1, 2)))
    bd, _ = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))
    assert (bd.n_au, bd.n_ce, bd.n_va) == (4, 4, 4)

    # each track computed independently on its own subset
    au_ref = np.mean([multilabel_ce(au_l[i], labels[i].au)[0] for i in range(4)])
    ce_ref = np.mean([softmax_ce(ce_l[i], labels[i].ce)[0] for i in range(4, 8)])
    va_ref, _ = va_loss(va_p[8:], np.stack([labels[i].va for i in range(8, 12)]))
    assert bd.l_au == pytest.approx(au_ref, rel=1e-12)
    assert bd.l_ce == pytest.approx(ce_ref, rel=1e-12)
    assert bd.l_va == pytest.approx(va_ref, rel=1e-12)
    assert bd.total == pytest.approx(au_ref + ce_ref + va_ref, rel=1e-12)


def test_total_loss_unlabeled_rows_get_zero_gradient():
    rng = make_rng(10)
    au_l, ce_l, va_p = random_batch_outputs(rng, 6)
    labels = [make_labels(au=rng.integers(0, 2, 12)) if i % 2 == 0 else
              make_labels(va=rng.uniform(-1, 1, 2)) for i in range(6)]
    _, (g_au, g_ce, g_va) = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))
    for i in range(6):
        if i % 2 == 0:
            assert np.any(g_au[i] != 0)
            assert np.array_equal(g_va[i], np.zeros(2))
        else:
            assert np.array_equal(g_au[i], np.zeros(12))
    assert np.array_equal(g_ce, np.zeros((6, 7)))


def test_total_loss_rejects_fully_unlabeled_batch():
    rng = make_rng(11)
    au_l, ce_l, va_p = random_batch_outputs(rng, 3)
    labels = [make_labels() for _ in range(3)]
    with pytest.raises(ValueError):
        total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))


def test_total_loss_gradients_match_finite_differences():
    rng = make_rng(12)
    n = 8
    au_l, ce_l, va_p = random_batch_outputs(rng, n)
    labels = []
    for i in range(n):
        labels.append(make_labels(
            au=rng.integers(0, 2, 12) if i % 2 == 0 else None,
            ce=int(rng.integers(0, 7)) if i % 3 == 0 else None,
            va=rng.uniform(-1, 1, 2) if i % 2 == 1 else None))
    _, (g_au, g_ce, g_va) = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))

    def loss_of(au, ce, va):
        return total_loss(au, ce, va, LabelColumns.from_labels(labels))[0].total

    num_au = numeric_grad(lambda a: loss_of(a, ce_l, va_p), au_l.copy())
    num_ce = numeric_grad(lambda c: loss_of(au_l, c, va_p), ce_l.copy())
    num_va = numeric_grad(lambda v: loss_of(au_l, ce_l, v), va_p.copy())
    assert np.allclose(g_au, num_au, atol=1e-8)
    assert np.allclose(g_ce, num_ce, atol=1e-8)
    assert np.allclose(g_va, num_va, atol=1e-7)


def test_total_loss_reads_only_minus_one_as_a_missing_class():
    rng = make_rng(14)
    au_l, ce_l, va_p = random_batch_outputs(rng, 2)
    cols = LabelColumns.from_labels([make_labels(ce=0), make_labels(ce=1)])
    with pytest.raises(ValueError):
        total_loss(au_l, ce_l, va_p, replace(cols, ce=np.array([-2, 1])))


# -- batch-vectorised total loss against the per-sample oracles ----------

LOGIT = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-1e3, 1e3]))


@st.composite
def labelled_outputs(draw):
    """Network outputs plus labels with random per-track masks; AU rows are
    drawn mixed, all-positive or all-negative."""
    n = draw(st.integers(1, 10))
    au_l = draw(hnp.arrays(float, (n, 12), elements=LOGIT))
    ce_l = draw(hnp.arrays(float, (n, 7), elements=LOGIT))
    va_p = draw(hnp.arrays(float, (n, 2), elements=st.floats(-0.99, 0.99)))
    labels = []
    for _ in range(n):
        au = ce = va = None
        if draw(st.booleans()):
            kind = draw(st.sampled_from(["mixed", "all_pos", "all_neg"]))
            if kind == "mixed":
                au = draw(hnp.arrays(int, 12, elements=st.integers(0, 1)))
            else:
                au = np.full(12, int(kind == "all_pos"))
        if draw(st.booleans()):
            ce = draw(st.integers(0, 6))
        if draw(st.booleans()):
            va = draw(hnp.arrays(float, 2, elements=st.floats(-1.0, 1.0)))
        labels.append(make_labels(au=au, ce=ce, va=va))
    assume(any(lab.au is not None or lab.ce is not None or lab.va is not None
               for lab in labels))
    return au_l, ce_l, va_p, labels


def oracle_total_loss(au_l, ce_l, va_p, labels):
    """Sum of the scalar per-sample losses, track by track."""
    losses = {"au": 0.0, "ce": 0.0, "va": 0.0}
    grads = (np.zeros_like(au_l), np.zeros_like(ce_l), np.zeros_like(va_p))
    for key, fn, logits, grad in (("au", multilabel_ce, au_l, grads[0]),
                                  ("ce", softmax_ce, ce_l, grads[1])):
        rows = [i for i, lab in enumerate(labels) if getattr(lab, key) is not None]
        for i in rows:
            loss_i, g_i = fn(logits[i], getattr(labels[i], key))
            losses[key] += loss_i / len(rows)
            grad[i] = g_i / len(rows)
    rows = [i for i, lab in enumerate(labels) if lab.va is not None]
    if len(rows) >= 2:
        losses["va"], g_va = va_loss(va_p[rows], np.stack([labels[i].va for i in rows]))
        grads[2][rows] = g_va
    return losses, grads


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(labelled_outputs())
def test_total_loss_matches_per_sample_oracles(batch):
    au_l, ce_l, va_p, labels = batch
    bd, grads = total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(labels))
    ref, ref_grads = oracle_total_loss(au_l, ce_l, va_p, labels)
    assert bd.l_au == pytest.approx(ref["au"], rel=1e-12, abs=1e-12)
    assert bd.l_ce == pytest.approx(ref["ce"], rel=1e-12, abs=1e-12)
    assert bd.l_va == pytest.approx(ref["va"], rel=1e-12, abs=1e-12)
    assert bd.total == pytest.approx(sum(ref.values()), rel=1e-12, abs=1e-12)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_total_loss_keeps_oracle_validation():
    rng = make_rng(13)
    au_l, ce_l, va_p = random_batch_outputs(rng, 2)
    with pytest.raises(ValueError):
        total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(
            [make_labels(au=np.full(12, 2)), make_labels(ce=1)]))
    with pytest.raises(ValueError):
        total_loss(au_l, ce_l, va_p, LabelColumns.from_labels(
            [make_labels(ce=7), make_labels(ce=1)]))
    with pytest.raises(ValueError):
        total_loss(au_l[:1], ce_l, va_p, LabelColumns.from_labels(
            [make_labels(ce=0), make_labels(ce=1)]))
