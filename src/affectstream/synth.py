"""Seeded synthetic datasets with fully known ground truth.

All three label tracks derive from one low-dimensional latent, arranged so
they share structure the way affect annotations do: a two-dimensional
"circumplex" plane inside the latent carries the VA projection, the AU
hyperplane normals sit at fixed angles in that plane (plus a seeded
off-plane component), and the CE fallback partitions the same plane into a
neutral hub surrounded by per-emotion sectors. Rule-driven CE labels and
the sector fallback therefore agree instead of fragmenting each other,
which keeps every track learnable from a few thousand samples.

Labels: AU bits from linear thresholds; CE via the pseudo-label rule table
on the AU bits (sector argmax fallback when no rule fires); VA from a
squashed linear projection plus noise. The embedding is a fixed random
nonlinear lift of the latent, so a network reading only embeddings can in
principle recover every label.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from ._options import COUNT, NONNEGATIVE, RATE, SEED, Options, option
from .data import AffectRecord, LabelSet, N_AU, N_CE
from .engine import make_rng
from .pseudo import default_rule_table, rule_classes

# spread of the pre-tanh VA projection; keeps values well inside (-1, 1)
_VA_GAIN = 1.5

# In-plane angle (degrees) of each AU's hyperplane normal, ordered as
# AU1, AU2, AU4, AU6, AU7, AU10, AU12, AU15, AU23, AU24, AU25, AU26.
# Units that co-occur in a rule pattern sit close together (AU6/AU12 near
# 0, AU1/AU4/AU15 around 130-185, AU4/AU7/AU23 around 185-250), so each
# rule fires over a contiguous arc of the plane.
_AU_PLANE_ANGLES = [130.0, 80.0, 185.0, 350.0, 250.0, 40.0,
                    10.0, 165.0, 220.0, 280.0, 100.0, 310.0]

# Fallback sector direction per emotion class (Neutral is the hub).
# Sectors adjoin the matching rule arcs: Happiness 0, Surprise 75,
# Fear 130, Sadness 170, Anger 220, Disgust 280.
_CE_SECTOR_ANGLES = {4: 0.0, 6: 75.0, 3: 130.0, 5: 170.0, 1: 220.0, 2: 280.0}

# relative weight of the off-plane component of each AU normal
_AU_OFF_PLANE = 0.25

# constant score of the neutral hub; larger values grow the hub region
_CE_HUB_SCORE = 0.30


@dataclass
class SynthConfig(Options):
    n: int = option(MISSING, *COUNT)
    latent_dim: int = option(16, lambda v: v >= 2, ">= 2 (the label plane needs two axes)")
    missing_au: float = option(0.0, *RATE)
    missing_ce: float = option(0.0, *RATE)
    missing_va: float = option(0.0, *RATE)
    noise_std: float = option(0.0, *NONNEGATIVE)
    embed_dim: int = option(512, *COUNT)
    lift_hidden: int = option(64, *COUNT)
    seed: int = option(0, *SEED)


def _label_maps(rng, ld):
    """Draw the fixed latent->label projections for one dataset.

    Returns (w_au, c_au, w_ce, b_ce, p_va). All AU normals are unit length
    so their base rates stay moderate for any seed.
    """
    p_va = rng.normal(0.0, 1.0, (2, ld)) / np.sqrt(ld)
    q, _ = np.linalg.qr(p_va.T)  # (ld, 2) orthonormal basis of the plane

    ang = np.deg2rad(_AU_PLANE_ANGLES)
    planar = np.stack([np.cos(ang), np.sin(ang)], axis=1) @ q.T
    fresh = rng.normal(0.0, 1.0, (N_AU, ld)) / np.sqrt(ld)
    fresh -= (fresh @ q) @ q.T  # keep only the off-plane part
    w_au = planar + _AU_OFF_PLANE * fresh
    w_au /= np.linalg.norm(w_au, axis=1, keepdims=True)
    c_au = rng.uniform(-0.35, 0.35, N_AU)

    w_ce = np.zeros((N_CE, ld))
    b_ce = np.zeros(N_CE)
    b_ce[0] = _CE_HUB_SCORE
    for cls, deg in _CE_SECTOR_ANGLES.items():
        a = np.deg2rad(deg)
        w_ce[cls] = np.cos(a) * q[:, 0] + np.sin(a) * q[:, 1]
    return w_au, c_au, w_ce, b_ce, p_va


def synth_generate(config, rules=None):
    """Generate (masked records, fully labeled truth records).

    The same seed always produces identical datasets. CE labels route
    through the supplied (default) rule table so that pseudo-label
    correctness can be checked mechanically against the truth records.
    """
    config.validate()
    if rules is None:
        rules = default_rule_table()
    rng = make_rng(config.seed)
    ld = config.latent_dim

    # fixed projections, drawn before any per-sample data
    w_au, c_au, w_ce, b_ce, p_va = _label_maps(rng, ld)
    lift_w1 = rng.normal(0.0, 1.0, (config.lift_hidden, ld)) / np.sqrt(ld)
    lift_b1 = rng.normal(0.0, 0.1, config.lift_hidden)
    lift_w2 = rng.normal(0.0, 1.0, (config.embed_dim, config.lift_hidden)) / np.sqrt(config.lift_hidden)

    z = rng.uniform(-1.0, 1.0, (config.n, ld))
    va_noise = rng.normal(0.0, 1.0, (config.n, 2))
    drop_au = rng.random(config.n)
    drop_ce = rng.random(config.n)
    drop_va = rng.random(config.n)

    au_bits = (z @ w_au.T + c_au > 0.0).astype(np.int64)
    ce_fallback = np.argmax(z @ w_ce.T + b_ce, axis=1)
    va = np.tanh(_VA_GAIN * (z @ p_va.T)) + config.noise_std * va_noise
    va = np.clip(va, -1.0, 1.0)
    embeddings = np.tanh(z @ lift_w1.T + lift_b1) @ lift_w2.T
    inferred = rule_classes(au_bits, rules)
    ce_labels = np.where(inferred >= 0, inferred, ce_fallback).tolist()

    records = []
    truth = []
    for i, ce in enumerate(ce_labels):
        rec_id = f"s{i:06d}"
        # one row object for both records lets save_datasets format it once
        emb = embeddings[i]
        truth.append(AffectRecord(
            id=rec_id, embedding=emb,
            labels=LabelSet(au=au_bits[i].copy(), ce=ce, va=va[i].copy())))
        records.append(AffectRecord(
            id=rec_id, embedding=emb,
            labels=LabelSet(
                au=au_bits[i].copy() if drop_au[i] >= config.missing_au else None,
                ce=ce if drop_ce[i] >= config.missing_ce else None,
                va=va[i].copy() if drop_va[i] >= config.missing_va else None)))
    return records, truth
