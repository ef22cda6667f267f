"""Training loops, evaluation driver, and the k-fold protocol."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import AffectRecord, LabelSet, batch_iter, kfold_split
from .engine import Optimizer
from .losses import LossBreakdown
from .metrics import evaluate
from .model import Model, NetConfig
from .synth import SynthConfig, synth_generate


class NoLabeledDataError(ValueError):
    """Dataset contains no labeled track at all."""


@dataclass
class TrainSettings:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    weight_decay: float = 0.0
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    Returns the per-epoch mean LossBreakdowns. Batches where every record
    is unlabeled are skipped. Raises NoLabeledDataError when the dataset
    has no labels at all, or when an epoch ends without a single sample
    contributing to any loss (only VA labels, never two in one batch), so
    that only weight decay would have moved the weights.
    """
    settings.validate()
    records = [r for r in records]
    if not any(r.labels.any_present() for r in records):
        raise NoLabeledDataError("no record carries any label")
    optimizer = Optimizer(mode=settings.optimizer, lr=settings.lr,
                          weight_decay=settings.weight_decay)
    history = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, settings.epochs + 1):
            batch_stats = []
            for batch in batch_iter(records, settings.batch_size, settings.seed, epoch):
                if not any(r.labels.any_present() for r in batch):
                    continue
                batch_stats.append(model.train_step(batch, optimizer))
            stats = _epoch_mean(batch_stats)
            if stats.n_au + stats.n_ce + stats.n_va == 0:
                n_va = sum(r.labels.va is not None for r in records)
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
    emb = np.stack([r.embedding for r in records])
    au, ce, va = model.predict(emb)
    return evaluate(au, ce, va, [r.labels for r in records], weights=weights)


def holdout_split(records, fraction, seed):
    """Seeded (train, holdout) split with the given holdout fraction."""
    records = list(records)
    rng = np.random.Generator(np.random.PCG64(seed))
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
    """Compact seeded model plus an 8-record batch with mixed label masks.

    Records cycle through fully-labeled / AU-only / CE-only / VA-only, so
    every loss term and masked path is active during the check.
    """
    config = NetConfig(variant=variant, adapter=adapter, seed=seed, **GRADCHECK_DIMS)
    synth_cfg = SynthConfig(n=8, latent_dim=6, embed_dim=config.embed_dim,
                            lift_hidden=12, noise_std=0.0, seed=seed + 1)
    _, truth = synth_generate(synth_cfg)
    batch = []
    for i, rec in enumerate(truth):
        pattern = i % 4
        labels = LabelSet(
            au=rec.labels.au if pattern in (0, 1) else None,
            ce=rec.labels.ce if pattern in (0, 2) else None,
            va=rec.labels.va if pattern in (0, 3) else None)
        batch.append(AffectRecord(id=rec.id, embedding=rec.embedding, labels=labels))
    return Model(config), batch


def run_kfold(records, k, seed, net_config, settings, weights=None, workers=1):
    """k-fold cross validation; returns (per-fold reports, aggregate dict).

    Each fold trains an independent model with a fold-derived seed, so the
    result is identical whether folds run sequentially or in parallel. The
    aggregate is the arithmetic mean of the fold scores.
    """
    splits = kfold_split(records, k, seed)
    jobs = []
    for i, pair in enumerate(splits):
        cfg = replace(net_config, seed=net_config.seed + i)
        st = replace(settings, seed=settings.seed + i)
        jobs.append((pair, cfg, st))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(
                lambda job: run_fold(job[0], job[1], job[2], weights=weights), jobs))
    else:
        reports = [run_fold(pair, cfg, st, weights=weights) for pair, cfg, st in jobs]
    aggregate = {}
    for key in ("au_score", "ce_score", "va_score"):
        vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
        aggregate[key] = float(np.mean(vals)) if vals else None
    return reports, aggregate
