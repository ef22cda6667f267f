"""Training loops, evaluation driver, and the k-fold protocol."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._options import COUNT, NONNEGATIVE, POSITIVE, SEED, Options, option
from .data import Batch, LabelColumns, LabelSet, batch_iter, kfold_split
from .engine import OPTIMIZERS, Optimizer, make_rng
from .losses import LossBreakdown
from .metrics import evaluate
from .model import Model, NetConfig
from .synth import SynthConfig, synth_generate


class NoLabeledDataError(ValueError):
    """Dataset contains no labeled track at all."""


@dataclass
class TrainSettings(Options):
    epochs: int = option(50, *COUNT)
    batch_size: int = option(64, *COUNT)
    lr: float = option(1e-3, *POSITIVE)
    optimizer: str = option("adam", lambda v: v in OPTIMIZERS, "one of " + ", ".join(OPTIMIZERS))
    weight_decay: float = option(0.0, *NONNEGATIVE)
    seed: int = option(0, *SEED)

    def validate(self):
        super().validate()
        # decoupled decay scales every weight by 1 - lr * weight_decay per step
        if self.lr * self.weight_decay >= 1.0:
            raise ValueError(f"lr * weight_decay must be < 1, got lr={self.lr!r} and "
                             f"weight_decay={self.weight_decay!r}")


def _epoch_mean(breakdowns):
    """Aggregate batch breakdowns into per-sample epoch means.

    Track means are weighted by each batch's contributing-sample count, so
    the result matches computing the loss once over all labeled samples.
    """
    agg = LossBreakdown()
    sums = {"au": 0.0, "ce": 0.0, "va": 0.0}
    for bd in breakdowns:
        sums["au"] += bd.l_au * bd.n_au
        sums["ce"] += bd.l_ce * bd.n_ce
        sums["va"] += bd.l_va * bd.n_va
        agg.n_au += bd.n_au
        agg.n_ce += bd.n_ce
        agg.n_va += bd.n_va
    agg.l_au = sums["au"] / agg.n_au if agg.n_au else 0.0
    agg.l_ce = sums["ce"] / agg.n_ce if agg.n_ce else 0.0
    agg.l_va = sums["va"] / agg.n_va if agg.n_va else 0.0
    agg.total = agg.l_au + agg.l_ce + agg.l_va
    return agg


def fit(model, records, settings, log_path=None):
    """Train for settings.epochs over seeded shuffled batches.

    records is a sequence of AffectRecords; their labels are turned into
    LabelColumns once, and each step trains on a Batch of them (see
    batch_iter). Returns the per-epoch mean LossBreakdowns. Batches where
    every record is unlabeled are skipped. Raises NoLabeledDataError when
    the dataset has no labels at all, or when an epoch ends without a
    single sample contributing to any loss (only VA labels, never two in
    one batch), so that only weight decay would have moved the weights.
    """
    settings.validate()
    records = list(records)
    labels = LabelColumns.from_labels(r.labels for r in records)
    if not labels.any_present():
        raise NoLabeledDataError("no record carries any label")
    optimizer = Optimizer(mode=settings.optimizer, lr=settings.lr,
                          weight_decay=settings.weight_decay)
    history = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, settings.epochs + 1):
            batch_stats = []
            for batch in batch_iter(records, labels, settings.batch_size, settings.seed, epoch):
                if not batch.labels.any_present():
                    continue
                batch_stats.append(model.train_step(batch, optimizer))
            stats = _epoch_mean(batch_stats)
            if stats.n_au + stats.n_ce + stats.n_va == 0:
                n_va = int(labels.va_mask.sum())
                raise NoLabeledDataError(
                    f"epoch {epoch}: no sample contributed to any loss; the only labels "
                    f"are VA ({n_va} records), and the VA loss needs at least 2 "
                    f"VA-labelled records in one batch (batch size {settings.batch_size})")
            history.append(stats)
            if log_fh:
                log_fh.write(f"{epoch},{stats.l_au:.6f},{stats.l_ce:.6f},"
                             f"{stats.l_va:.6f},{stats.total:.6f},"
                             f"{stats.n_au},{stats.n_ce},{stats.n_va}\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    return history


def evaluate_model(model, records, weights=None):
    """Predict on records and score against their labels."""
    if not records:
        raise ValueError("evaluate_model needs at least one record, got none")
    emb = np.stack([r.embedding for r in records])
    au, ce, va = model.predict(emb)
    return evaluate(au, ce, va, LabelColumns.from_labels(r.labels for r in records),
                    weights=weights)


def holdout_split(records, fraction, seed):
    """Seeded (train, holdout) split with the given holdout fraction."""
    records = list(records)
    rng = make_rng(seed)
    order = rng.permutation(len(records))
    n_hold = round(len(records) * fraction)
    train = [records[i] for i in order[n_hold:]]
    hold = [records[i] for i in order[:n_hold]]
    return train, hold


def run_fold(records_pair, net_config, settings, weights=None):
    """Train a fresh model on one (train, validation) pair and score it."""
    train_recs, val_recs = records_pair
    model = Model(net_config)
    fit(model, train_recs, settings)
    return evaluate_model(model, val_recs, weights=weights)


# compact widths for exhaustive finite-difference sweeps; the composed
# graph (all stages, translators, and losses) matches the full-size net
GRADCHECK_DIMS = dict(embed_dim=20, au_feat_dim=10, ce_feat_dim=6, va_feat_dim=6,
                      translator_dim=6, extractor_hidden=8, head_hidden=8)


def make_gradcheck_setup(variant="streaming", adapter=False, seed=0):
    """Compact seeded model plus an 8-row Batch with mixed label masks.

    Rows cycle through fully-labeled / AU-only / CE-only / VA-only, so
    every loss term and masked path is active during the check.
    """
    config = NetConfig(variant=variant, adapter=adapter, seed=seed, **GRADCHECK_DIMS)
    synth_cfg = SynthConfig(n=8, latent_dim=6, embed_dim=config.embed_dim,
                            lift_hidden=12, noise_std=0.0, seed=seed + 1)
    _, truth = synth_generate(synth_cfg)
    labels = [LabelSet(au=rec.labels.au if i % 4 in (0, 1) else None,
                       ce=rec.labels.ce if i % 4 in (0, 2) else None,
                       va=rec.labels.va if i % 4 in (0, 3) else None)
              for i, rec in enumerate(truth)]
    batch = Batch(np.stack([rec.embedding for rec in truth]), LabelColumns.from_labels(labels))
    return Model(config), batch


def run_kfold(records, k, seed, net_config, settings, weights=None):
    """k-fold cross validation; returns (per-fold reports, aggregate dict).

    Each fold trains an independent model with a fold-derived seed. The
    aggregate is the arithmetic mean of the fold scores.
    """
    reports = [run_fold(pair, replace(net_config, seed=net_config.seed + i),
                        replace(settings, seed=settings.seed + i), weights=weights)
               for i, pair in enumerate(kfold_split(records, k, seed))]
    aggregate = {}
    for key in ("au_score", "ce_score", "va_score"):
        vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
        aggregate[key] = float(np.mean(vals)) if vals else None
    return reports, aggregate
