"""Competition-style evaluation: per-track F1 / accuracy / CCC and the
combined challenge scores.

Score weights follow the challenge conventions (AU: mean of macro-F1 and
total accuracy; CE: 0.67 macro-F1 + 0.33 accuracy; VA: mean of the two
CCCs) and are config-exposed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._options import FINITE, Options, option
from .data import N_AU, N_CE
from .losses import ccc  # single shared CCC definition


def binary_f1(pred, truth):
    """F1 = 2TP / (2TP + FP + FN) over binary vectors.

    With no positives anywhere (TP = FP = FN = 0) returns 1, so perfect
    predictions always score 1.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def au_metrics(pred, truth):
    """(macro F1, total accuracy, per-unit F1) over (N, 12) bit arrays.

    Total accuracy counts every one of the N x 12 binary decisions.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 2 or pred.shape[1] != N_AU:
        raise ValueError(f"expected matching (N, {N_AU}) arrays, got {pred.shape} and {truth.shape}")
    per_unit = [binary_f1(pred[:, j], truth[:, j]) for j in range(N_AU)]
    f1_macro = float(np.mean(per_unit))
    tacc = float(np.mean(pred == truth))
    return f1_macro, tacc, per_unit


def ce_metrics(pred, truth):
    """(macro F1 over the 7 classes, exact-match accuracy).

    Macro F1 averages one-vs-rest F1 per class; a class absent from both
    pred and truth contributes 1 per the binary_f1 degenerate rule.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"expected matching 1-d arrays, got {pred.shape} and {truth.shape}")
    for arr, what in ((pred, "pred"), (truth, "truth")):
        if arr.size and (arr.min() < 0 or arr.max() >= N_CE):
            raise ValueError(f"{what} classes out of range 0..{N_CE - 1}")
    per_class = [binary_f1((pred == c).astype(int), (truth == c).astype(int))
                 for c in range(N_CE)]
    f1_macro = float(np.mean(per_class))
    acc = float(np.mean(pred == truth))
    return f1_macro, acc


@dataclass
class ScoreWeights(Options):
    """Challenge score composition weights."""

    au_f1: float = option(0.5, *FINITE)
    au_tacc: float = option(0.5, *FINITE)
    ce_f1: float = option(0.67, *FINITE)
    ce_acc: float = option(0.33, *FINITE)
    va_v: float = option(0.5, *FINITE)
    va_a: float = option(0.5, *FINITE)


def track_scores(au_f1=None, au_tacc=None, ce_f1=None, ce_acc=None,
                 ccc_v=None, ccc_a=None, weights=None):
    """Combine component metrics into the three challenge scores.

    Any track missing its components yields None for that score.
    """
    w = weights or ScoreWeights()
    au = ce = va = None
    if au_f1 is not None and au_tacc is not None:
        au = w.au_f1 * au_f1 + w.au_tacc * au_tacc
    if ce_f1 is not None and ce_acc is not None:
        ce = w.ce_f1 * ce_f1 + w.ce_acc * ce_acc
    if ccc_v is not None and ccc_a is not None:
        va = w.va_v * ccc_v + w.va_a * ccc_a
    return au, ce, va


@dataclass
class MetricReport:
    """Per-track metrics and challenge scores; absent tracks stay None."""

    au_f1: list = field(default_factory=list)
    au_f1_macro: float | None = None
    au_tacc: float | None = None
    au_score: float | None = None
    n_au: int = 0
    ce_f1_macro: float | None = None
    ce_acc: float | None = None
    ce_score: float | None = None
    n_ce: int = 0
    ccc_v: float | None = None
    ccc_a: float | None = None
    va_score: float | None = None
    n_va: int = 0

    def to_dict(self):
        d = {}
        if self.au_score is not None:
            d["au"] = {"f1_per_unit": list(self.au_f1), "f1_macro": self.au_f1_macro,
                       "tacc": self.au_tacc, "score": self.au_score, "n": self.n_au}
        if self.ce_score is not None:
            d["ce"] = {"f1_macro": self.ce_f1_macro, "acc": self.ce_acc,
                       "score": self.ce_score, "n": self.n_ce}
        if self.va_score is not None:
            d["va"] = {"ccc_v": self.ccc_v, "ccc_a": self.ccc_a,
                       "score": self.va_score, "n": self.n_va}
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        """One metric per line, 'key = value', in the order of to_dict."""
        lines = []
        for track, block in self.to_dict().items():
            for key, value in block.items():
                if key == "f1_per_unit":
                    lines += [f"{track}.f1[{j}] = {f1:.6f}" for j, f1 in enumerate(value)]
                elif key == "n":
                    lines.append(f"{track}.n = {value}")
                else:
                    lines.append(f"{track}.{key} = {value:.6f}")
        return "\n".join(lines) + "\n"


def evaluate(au_pred, ce_pred, va_pred, labels, weights=None):
    """Score predictions against partially labeled truth.

    au_pred (N, 12) bits, ce_pred (N,) classes, va_pred (N, 2); labels is
    the LabelColumns of the N samples. Each track is evaluated on its
    labeled subset and reported absent when that subset is empty (VA
    additionally needs >= 2 samples for the CCC). weights must be finite.
    """
    if weights is not None:
        weights.validate()
    report = MetricReport()
    au_idx = np.flatnonzero(labels.au_mask)
    if au_idx.size:
        report.au_f1_macro, report.au_tacc, report.au_f1 = au_metrics(
            np.asarray(au_pred)[au_idx], labels.au[au_idx])
        report.n_au = au_idx.size
    ce_idx = np.flatnonzero(labels.ce_mask)
    if ce_idx.size:
        report.ce_f1_macro, report.ce_acc = ce_metrics(np.asarray(ce_pred)[ce_idx],
                                                       labels.ce[ce_idx])
        report.n_ce = ce_idx.size
    va_idx = np.flatnonzero(labels.va_mask)
    if va_idx.size >= 2:
        truth = labels.va[va_idx]
        pred = np.asarray(va_pred)[va_idx]
        report.ccc_v = ccc(pred[:, 0], truth[:, 0])
        report.ccc_a = ccc(pred[:, 1], truth[:, 1])
        report.n_va = va_idx.size
    report.au_score, report.ce_score, report.va_score = track_scores(
        au_f1=report.au_f1_macro, au_tacc=report.au_tacc,
        ce_f1=report.ce_f1_macro, ce_acc=report.ce_acc,
        ccc_v=report.ccc_v, ccc_a=report.ccc_a, weights=weights)
    return report
