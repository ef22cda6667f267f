import numpy as np
import pytest

from affectstream.pseudo import default_rule_table, pseudo_infer
from affectstream.synth import SynthConfig, synth_generate


def records_equal(a, b):
    if a.id != b.id or not np.array_equal(a.embedding, b.embedding):
        return False
    la, lb = a.labels, b.labels
    if (la.au is None) != (lb.au is None) or (la.va is None) != (lb.va is None):
        return False
    if la.au is not None and not np.array_equal(la.au, lb.au):
        return False
    if la.ce != lb.ce:
        return False
    if la.va is not None and not np.array_equal(la.va, lb.va):
        return False
    return True


def test_same_seed_same_dataset():
    cfg = SynthConfig(n=50, latent_dim=8, embed_dim=32, lift_hidden=16,
                      missing_au=0.2, missing_ce=0.5, missing_va=0.1,
                      noise_std=0.05, seed=3)
    r1, t1 = synth_generate(cfg)
    r2, t2 = synth_generate(cfg)
    assert all(records_equal(a, b) for a, b in zip(r1, r2))
    assert all(records_equal(a, b) for a, b in zip(t1, t2))


def test_different_seed_different_dataset():
    base = dict(n=20, latent_dim=8, embed_dim=32, lift_hidden=16)
    _, t1 = synth_generate(SynthConfig(seed=0, **base))
    _, t2 = synth_generate(SynthConfig(seed=1, **base))
    assert not np.array_equal(t1[0].embedding, t2[0].embedding)


def test_shapes_and_ranges():
    cfg = SynthConfig(n=40, latent_dim=8, embed_dim=48, lift_hidden=16,
                      noise_std=0.3, seed=4)
    records, truth = synth_generate(cfg)
    assert len(records) == len(truth) == 40
    for t in truth:
        assert t.embedding.shape == (48,)
        assert t.labels.au.shape == (12,) and set(np.unique(t.labels.au)) <= {0, 1}
        assert 0 <= t.labels.ce < 7
        assert np.abs(t.labels.va).max() <= 1.0  # clipped even with noise
        t.validate(48)


def test_truth_is_fully_labeled_and_consistent_with_masked():
    cfg = SynthConfig(n=60, latent_dim=8, embed_dim=32, lift_hidden=16,
                      missing_au=0.5, missing_ce=0.5, missing_va=0.5, seed=5)
    records, truth = synth_generate(cfg)
    for rec, t in zip(records, truth):
        assert t.labels.au is not None and t.labels.ce is not None and t.labels.va is not None
        assert rec.id == t.id
        assert np.array_equal(rec.embedding, t.embedding)
        if rec.labels.au is not None:
            assert np.array_equal(rec.labels.au, t.labels.au)
        if rec.labels.ce is not None:
            assert rec.labels.ce == t.labels.ce
        if rec.labels.va is not None:
            assert np.array_equal(rec.labels.va, t.labels.va)


def test_missing_rate_extremes():
    base = dict(n=30, latent_dim=8, embed_dim=32, lift_hidden=16, seed=6)
    records, _ = synth_generate(SynthConfig(**base))
    assert all(r.labels.au is not None and r.labels.ce is not None
               and r.labels.va is not None for r in records)
    records, _ = synth_generate(SynthConfig(missing_au=1.0, missing_ce=1.0,
                                            missing_va=1.0, **base))
    assert all(not (r.labels.au is not None or r.labels.ce is not None
                    or r.labels.va is not None) for r in records)


def test_missing_rate_statistics():
    cfg = SynthConfig(n=4000, latent_dim=8, embed_dim=16, lift_hidden=8,
                      missing_au=0.3, missing_ce=0.7, missing_va=0.3, seed=7)
    records, _ = synth_generate(cfg)
    au_missing = np.mean([r.labels.au is None for r in records])
    ce_missing = np.mean([r.labels.ce is None for r in records])
    va_missing = np.mean([r.labels.va is None for r in records])
    assert abs(au_missing - 0.3) < 0.05
    assert abs(ce_missing - 0.7) < 0.05
    assert abs(va_missing - 0.3) < 0.05


def test_au_base_rates_are_moderate():
    _, truth = synth_generate(SynthConfig(n=10000, latent_dim=16,
                                          embed_dim=32, lift_hidden=16, seed=0))
    rates = np.stack([t.labels.au for t in truth]).mean(axis=0)
    assert rates.min() > 0.2 and rates.max() < 0.8


def test_every_ce_class_appears():
    _, truth = synth_generate(SynthConfig(n=10000, latent_dim=16,
                                          embed_dim=32, lift_hidden=16, seed=0))
    counts = np.bincount([t.labels.ce for t in truth], minlength=7)
    assert (counts > 0).all()


def test_ce_labels_agree_with_rule_table():
    table = default_rule_table()
    _, truth = synth_generate(SynthConfig(n=500, latent_dim=8, embed_dim=16,
                                          lift_hidden=8, seed=8), rules=table)
    fired = 0
    for t in truth:
        inferred = pseudo_infer(t.labels.au, table)
        if inferred is not None:
            assert t.labels.ce == inferred
            fired += 1
    assert fired > 0  # rule-covered patterns do occur


def test_noise_free_va_is_a_clean_function_of_seed():
    base = dict(n=30, latent_dim=8, embed_dim=16, lift_hidden=8, seed=9)
    _, clean = synth_generate(SynthConfig(noise_std=0.0, **base))
    _, noisy = synth_generate(SynthConfig(noise_std=0.2, **base))
    va_clean = np.stack([t.labels.va for t in clean])
    va_noisy = np.stack([t.labels.va for t in noisy])
    assert np.abs(va_clean).max() < 1.0  # strictly inside without noise
    assert not np.array_equal(va_clean, va_noisy)
    # same latent draw underneath: noisy values scatter around the clean ones
    assert np.abs(va_noisy - va_clean).max() < 1.5
    assert np.abs(va_noisy - va_clean).mean() < 0.4


def test_config_validation():
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(n=0))
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(n=5, missing_au=1.5))
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(n=5, noise_std=-0.1))


def test_negative_seed_is_named_by_the_config():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        synth_generate(SynthConfig(n=5, seed=-1))


def test_record_ids_are_stable_and_sorted():
    records, _ = synth_generate(SynthConfig(n=12, latent_dim=4, embed_dim=8,
                                            lift_hidden=4, seed=10))
    ids = [r.id for r in records]
    assert ids == sorted(ids)
    assert ids[0] == "s000000" and ids[-1] == "s000011"
