"""Loss functions for the three label tracks, with analytic gradients.

AU uses a multi-label cross entropy over positive/negative logit sets, CE a
softmax cross entropy, VA one minus the concordance correlation coefficient
per dimension. Presence masks gate every term: unlabeled samples contribute
zero loss and exactly-zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import N_AU, N_CE

# smallest normal float64; a CCC denominator below it has lost precision
_TINY = np.finfo(float).tiny


@dataclass
class LossBreakdown:
    """Per-track losses and contributing-sample counts for one batch."""

    l_au: float = 0.0
    l_ce: float = 0.0
    l_va: float = 0.0
    total: float = 0.0
    n_au: int = 0
    n_ce: int = 0
    n_va: int = 0


def _log1p_sum_exp(x):
    """log(1 + sum(exp(x))) with log-sum-exp shifting; x may be empty."""
    if x.size == 0:
        return 0.0
    m = max(0.0, float(x.max()))
    return m + math.log(np.exp(-m) + np.exp(x - m).sum())


def multilabel_ce(logits, target):
    """Multi-label cross entropy over a 12-unit logit vector.

    loss = log(1 + sum_{i: target_i=0} exp(v_i))
         + log(1 + sum_{j: target_j=1} exp(-v_j))

    Returns (loss, gradient w.r.t. each logit). Targets must be 0/1.
    """
    logits = np.asarray(logits, dtype=float)
    target = np.asarray(target)
    if logits.shape != target.shape:
        raise ValueError(f"logits shape {logits.shape} != target shape {target.shape}")
    if not np.isin(target, (0, 1)).all():
        raise ValueError(f"target entries must be 0 or 1, got {target!r}")
    neg = target == 0
    pos = target == 1
    term_neg = _log1p_sum_exp(logits[neg])
    term_pos = _log1p_sum_exp(-logits[pos])
    grad = np.zeros_like(logits)
    # exp(v_i - term) <= 1 by construction, so these never overflow
    grad[neg] = np.exp(logits[neg] - term_neg)
    grad[pos] = -np.exp(-logits[pos] - term_pos)
    return term_neg + term_pos, grad


def softmax_ce(logits, target):
    """Softmax cross entropy with an integer class target.

    Returns (loss, gradient) with gradient = softmax(logits) - onehot(target).
    """
    logits = np.asarray(logits, dtype=float)
    k = logits.shape[0]
    target = int(target)
    if not 0 <= target < k:
        raise ValueError(f"class target {target} out of range 0..{k - 1}")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    z = exp.sum()
    loss = math.log(z) - shifted[target]
    grad = exp / z
    grad[target] -= 1.0
    return loss, grad


def ccc(pred, truth):
    """Concordance correlation coefficient with population (1/n) statistics.

    CCC = 2 cov / (var_pred + var_truth + (mean_pred - mean_truth)^2).
    Degenerate denominators: both sequences constant and equal -> 1;
    an otherwise-zero denominator -> 0.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"ccc expects equal-length vectors, got {pred.shape} and {truth.shape}")
    n = pred.shape[0]
    if n < 2:
        raise ValueError(f"ccc needs at least 2 samples, got {n}")
    mp, mt = pred.mean(), truth.mean()
    vp, vt = pred.var(), truth.var()
    cov = ((pred - mp) * (truth - mt)).mean()
    denom = vp + vt + (mp - mt) ** 2
    if denom < _TINY:
        e = _unit_exponent(pred, truth)
        if e > 0:
            return ccc(np.ldexp(pred, e), np.ldexp(truth, e))
    if denom == 0.0:
        return 1.0 if (vp == 0.0 and vt == 0.0 and mp == mt) else 0.0
    return 2.0 * cov / denom


def _ccc_grad(pred, truth):
    """d ccc / d pred_i; zero when the denominator is degenerate."""
    n = pred.shape[0]
    mp, mt = pred.mean(), truth.mean()
    vp, vt = pred.var(), truth.var()
    cov = ((pred - mp) * (truth - mt)).mean()
    denom = vp + vt + (mp - mt) ** 2
    # overflow surfaces as inf, which the optimizer's finiteness check names
    with np.errstate(over="ignore", divide="ignore"):
        factor = 2.0 / (n * denom)
        if math.isinf(factor):
            # the denominator underflowed: d ccc/d pred = k * (d ccc/d pred)(k pred, k truth)
            e = _unit_exponent(pred, truth)
            if e > 0:
                return np.ldexp(_ccc_grad(np.ldexp(pred, e), np.ldexp(truth, e)), e)
    if denom == 0.0:
        return np.zeros_like(pred)
    c = 2.0 * cov / denom
    return factor * ((truth - mt) - c * (pred - mt))


def _unit_exponent(pred, truth):
    """The e for which k = 2**e lifts max(|pred|, |truth|) into [0.5, 1).

    CCC is scale-free, and scaling by a power of two is exact, so inputs
    that differ only far below 1e-150, whose squared spreads underflow, are
    scored at k times their size instead.
    """
    return -math.frexp(max(np.abs(pred).max(), np.abs(truth).max()))[1]


def va_loss(pred, truth):
    """(1 - CCC_valence) + (1 - CCC_arousal) over a VA-labeled batch.

    pred, truth: arrays of shape (n, 2) with n >= 2. Returns (loss, gradient
    of shape (n, 2)).
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ValueError(f"va_loss expects (n, 2) arrays, got {pred.shape} and {truth.shape}")
    if pred.shape[0] < 2:
        raise ValueError(f"va_loss needs at least 2 samples, got {pred.shape[0]}")
    loss = 0.0
    grad = np.zeros_like(pred)
    for d in range(2):
        loss += 1.0 - ccc(pred[:, d], truth[:, d])
        grad[:, d] = -_ccc_grad(pred[:, d], truth[:, d])
    return loss, grad


def total_loss(au_logits, ce_logits, va_pred, labels):
    """Masked multi-task loss over one batch.

    au_logits (B, 12), ce_logits (B, 7), va_pred (B, 2) are the network
    outputs; labels is a list of B LabelSet. AU and CE losses are averaged
    over their labeled samples; the VA loss is a single batch-level quantity
    over the VA-labeled subset and is skipped (zero, count 0) when that
    subset has fewer than 2 samples. Unlabeled tracks get exactly-zero
    gradients. Each track is evaluated for the whole batch at once; the
    scalar multilabel_ce, softmax_ce and va_loss are its reference.

    Returns (LossBreakdown, (grad_au, grad_ce, grad_va)).
    """
    au_logits = np.asarray(au_logits, dtype=float)
    ce_logits = np.asarray(ce_logits, dtype=float)
    va_pred = np.asarray(va_pred, dtype=float)
    n = len(labels)
    if n == 0 or au_logits.shape != (n, N_AU) or ce_logits.shape != (n, N_CE) \
            or va_pred.shape != (n, 2):
        raise ValueError("prediction shapes do not match the batch")
    au_idx = [i for i, lab in enumerate(labels) if lab.au is not None]
    ce_idx = [i for i, lab in enumerate(labels) if lab.ce is not None]
    va_idx = [i for i, lab in enumerate(labels) if lab.va is not None]
    if not (au_idx or ce_idx or va_idx):
        raise ValueError("batch has no labels on any track")

    bd = LossBreakdown()
    grad_au = np.zeros_like(au_logits)
    grad_ce = np.zeros_like(ce_logits)
    grad_va = np.zeros_like(va_pred)

    if au_idx:
        target = np.array([labels[i].au for i in au_idx])
        losses, grad = _multilabel_ce_rows(au_logits[au_idx], target)
        bd.l_au = float(losses.sum()) / len(au_idx)
        bd.n_au = len(au_idx)
        grad_au[au_idx] = grad / len(au_idx)

    if ce_idx:
        target = np.array([int(labels[i].ce) for i in ce_idx])
        losses, grad = _softmax_ce_rows(ce_logits[ce_idx], target)
        bd.l_ce = float(losses.sum()) / len(ce_idx)
        bd.n_ce = len(ce_idx)
        grad_ce[ce_idx] = grad / len(ce_idx)

    if len(va_idx) >= 2:
        truth = np.stack([labels[i].va for i in va_idx])
        loss_va, g_va = va_loss(va_pred[va_idx], truth)
        bd.l_va = loss_va
        bd.n_va = len(va_idx)
        grad_va[va_idx] = g_va

    bd.total = bd.l_au + bd.l_ce + bd.l_va
    return bd, (grad_au, grad_ce, grad_va)


def _multilabel_ce_rows(logits, target):
    """multilabel_ce for every row of (n, 12) logits and 0/1 targets at once.

    Returns (per-row losses (n,), gradient (n, 12)).
    """
    if target.shape != logits.shape:
        raise ValueError(f"AU targets of shape {target.shape} do not match logits "
                         f"{logits.shape}")
    pos = target == 1
    if not (pos | (target == 0)).all():
        raise ValueError("AU target entries must be 0 or 1")
    # each logit enters its own set's log-sum-exp with a sign, +v for
    # negatives and -v for positives, shifted by max(0, that set's max)
    signed = np.where(pos, -logits, logits)

    def own(neg_val, pos_val):
        return np.where(pos, pos_val[:, None], neg_val[:, None])

    m_neg = np.maximum(np.where(pos, -np.inf, signed).max(axis=1), 0.0)
    m_pos = np.maximum(np.where(pos, signed, -np.inf).max(axis=1), 0.0)
    # exp(s - shift) <= 1 by construction, so these never overflow
    e = np.exp(signed - own(m_neg, m_pos))
    term_neg = m_neg + np.log(np.exp(-m_neg) + np.where(pos, 0.0, e).sum(axis=1))
    term_pos = m_pos + np.log(np.exp(-m_pos) + np.where(pos, e, 0.0).sum(axis=1))
    grad = np.exp(signed - own(term_neg, term_pos))
    np.negative(grad, out=grad, where=pos)
    return term_neg + term_pos, grad


def _softmax_ce_rows(logits, target):
    """softmax_ce for every row of (n, k) logits and integer targets at once.

    Returns (per-row losses (n,), gradient (n, k)).
    """
    k = logits.shape[1]
    bad = (target < 0) | (target >= k)
    if bad.any():
        raise ValueError(f"class target {target[bad][0]} out of range 0..{k - 1}")
    rows = np.arange(target.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    grad = exp / z[:, None]
    grad[rows, target] -= 1.0
    return np.log(z) - shifted[rows, target], grad
