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
    return _ccc_and_grad(pred, truth)[0]


def _ccc_and_grad(pred, truth):
    """(ccc, d ccc / d pred_i) of two float vectors from one set of moments;
    the gradient is zero when the denominator is degenerate.

    CCC is scale-free, and scaling by a power of two is exact, so inputs
    that differ only far below 1e-150, whose squared spreads underflow (a
    denominator below _TINY), are scored at k = 2**e times their size, with
    e lifting max(|pred|, |truth|) into [0.5, 1); the gradient at k times
    the inputs is then scaled back by k.
    """
    n = pred.shape[0]
    mp, mt = pred.mean(), truth.mean()
    vp, vt = pred.var(), truth.var()
    cov = ((pred - mp) * (truth - mt)).mean()
    denom = vp + vt + (mp - mt) ** 2
    if denom < _TINY:
        e = -math.frexp(max(np.abs(pred).max(), np.abs(truth).max()))[1]
        if e > 0:
            value, grad = _ccc_and_grad(np.ldexp(pred, e), np.ldexp(truth, e))
            return value, np.ldexp(grad, e)
    if denom == 0.0:
        value = 1.0 if (vp == 0.0 and vt == 0.0 and mp == mt) else 0.0
        return value, np.zeros_like(pred)
    c = 2.0 * cov / denom
    return c, 2.0 / (n * denom) * ((truth - mt) - c * (pred - mt))


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
        value, grad_d = _ccc_and_grad(pred[:, d], truth[:, d])
        loss += 1.0 - value
        grad[:, d] = -grad_d
    return loss, grad


def total_loss(au_logits, ce_logits, va_pred, labels):
    """Masked multi-task loss over one batch.

    au_logits (B, 12), ce_logits (B, 7), va_pred (B, 2) are the network
    outputs; labels is the batch's LabelColumns (B rows). AU and CE losses
    are averaged over their labeled samples; the VA loss is a single
    batch-level quantity over the VA-labeled subset and is skipped (zero,
    count 0) when that subset has fewer than 2 samples. Unlabeled tracks get
    exactly-zero gradients. Each track is evaluated for the whole batch at
    once; the scalar multilabel_ce, softmax_ce and va_loss are its reference.

    Returns (LossBreakdown, (grad_au, grad_ce, grad_va)).
    """
    au_logits = np.asarray(au_logits, dtype=float)
    ce_logits = np.asarray(ce_logits, dtype=float)
    va_pred = np.asarray(va_pred, dtype=float)
    n = len(labels)
    if n == 0 or au_logits.shape != (n, N_AU) or ce_logits.shape != (n, N_CE) \
            or va_pred.shape != (n, 2):
        raise ValueError("prediction shapes do not match the batch")
    au_idx = np.flatnonzero(labels.au_mask)
    ce_idx = np.flatnonzero(labels.ce_mask)
    va_idx = np.flatnonzero(labels.va_mask)
    if not (au_idx.size or ce_idx.size or va_idx.size):
        raise ValueError("batch has no labels on any track")

    bd = LossBreakdown()
    grad_au = np.zeros_like(au_logits)
    grad_ce = np.zeros_like(ce_logits)
    grad_va = np.zeros_like(va_pred)

    if au_idx.size:
        losses, grad = _multilabel_ce_rows(au_logits[au_idx], labels.au[au_idx])
        bd.n_au = au_idx.size
        bd.l_au = float(losses.sum()) / bd.n_au
        grad_au[au_idx] = grad / bd.n_au

    if ce_idx.size:
        losses, grad = _softmax_ce_rows(ce_logits[ce_idx], labels.ce[ce_idx])
        bd.n_ce = ce_idx.size
        bd.l_ce = float(losses.sum()) / bd.n_ce
        grad_ce[ce_idx] = grad / bd.n_ce

    if va_idx.size >= 2:
        bd.l_va, grad_va[va_idx] = va_loss(va_pred[va_idx], labels.va[va_idx])
        bd.n_va = va_idx.size

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
