import numpy as np
import pytest

from affectstream.data import AffectRecord, LabelSet
from affectstream.model import Model, NetConfig
from affectstream.synth import SynthConfig, synth_generate
from affectstream.train import (NoLabeledDataError, TrainSettings, evaluate_model,
                                fit, holdout_split, run_kfold)

SMALL_NET = dict(embed_dim=32, au_feat_dim=12, ce_feat_dim=8, va_feat_dim=8,
                 translator_dim=8, extractor_hidden=16, head_hidden=8)


def small_records(n=24, seed=2, **synth_kw):
    cfg = SynthConfig(n=n, latent_dim=6, embed_dim=32, lift_hidden=12,
                      seed=seed, **synth_kw)
    _, truth = synth_generate(cfg)
    return truth


def quick_settings(**kw):
    defaults = dict(epochs=2, batch_size=8, lr=1e-3, seed=0)
    defaults.update(kw)
    return TrainSettings(**defaults)


def test_settings_validation():
    with pytest.raises(ValueError):
        TrainSettings(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainSettings(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainSettings(weight_decay=-1e-3).validate()


def test_negative_seed_is_named_by_the_settings():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainSettings(seed=-1).validate()


def test_fit_returns_one_breakdown_per_epoch(tmp_path):
    records = small_records()
    model = Model(NetConfig(seed=0, **SMALL_NET))
    log = tmp_path / "train.log"
    history = fit(model, records, quick_settings(epochs=3), log_path=str(log))
    assert len(history) == 3
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    for epoch, (line, stats) in enumerate(zip(lines, history), start=1):
        fields = line.split(",")
        assert fields[0] == str(epoch)
        assert fields[4] == f"{stats.total:.6f}"
        assert fields[5:] == [str(stats.n_au), str(stats.n_ce), str(stats.n_va)]
        assert stats.n_au == stats.n_ce == stats.n_va == len(records)


def test_fit_rejects_fully_unlabeled_data():
    records = [AffectRecord(id=f"r{i}", embedding=np.zeros(32), labels=LabelSet())
               for i in range(6)]
    model = Model(NetConfig(seed=0, **SMALL_NET))
    with pytest.raises(NoLabeledDataError):
        fit(model, records, quick_settings())


def va_only(records):
    return [AffectRecord(id=r.id, embedding=r.embedding, labels=LabelSet(va=r.labels.va))
            for r in records]


def test_fit_rejects_epoch_without_contributing_sample():
    """VA-only data at batch size 1 never forms a VA loss: no silent no-op."""
    records = va_only(small_records(n=6))
    model = Model(NetConfig(seed=0, **SMALL_NET))
    with pytest.raises(NoLabeledDataError, match="epoch 1.*VA"):
        fit(model, records, quick_settings(batch_size=1, weight_decay=0.01))
    history = fit(model, records, quick_settings(batch_size=3))
    assert all(bd.n_va == 6 and bd.l_va > 0.0 for bd in history)


def test_fit_counts_only_labeled_samples():
    labeled = small_records(n=10)
    bare = [AffectRecord(id=f"u{i}", embedding=np.zeros(32), labels=LabelSet())
            for i in range(6)]
    model = Model(NetConfig(seed=0, **SMALL_NET))
    history = fit(model, labeled + bare, quick_settings(epochs=1, batch_size=4))
    assert history[0].n_au == 10
    assert history[0].n_ce == 10
    assert history[0].n_va == 10


def test_fit_same_seed_reproduces_weights_exactly():
    records = small_records()
    stores = []
    for _ in range(2):
        model = Model(NetConfig(seed=1, **SMALL_NET))
        fit(model, records, quick_settings(seed=4))
        stores.append(model.store)
    for name in stores[0].names():
        for a, b in zip(stores[0].params(name), stores[1].params(name)):
            assert np.array_equal(a, b)


def test_fit_training_seed_changes_outcome():
    records = small_records()
    finals = []
    for seed in (0, 1):
        model = Model(NetConfig(seed=1, **SMALL_NET))
        history = fit(model, records, quick_settings(epochs=2, seed=seed))
        finals.append(history[-1].total)
    assert finals[0] != finals[1]


def test_fit_loss_decreases_on_learnable_data():
    records = small_records(n=48)
    model = Model(NetConfig(seed=0, **SMALL_NET))
    history = fit(model, records, quick_settings(epochs=25, batch_size=16))
    assert history[-1].total < history[0].total


def test_holdout_split_properties():
    records = small_records(n=30)
    train, hold = holdout_split(records, 0.2, seed=9)
    assert len(hold) == 6
    assert len(train) == 24
    assert {r.id for r in train} | {r.id for r in hold} == {r.id for r in records}
    assert not ({r.id for r in train} & {r.id for r in hold})
    train2, hold2 = holdout_split(records, 0.2, seed=9)
    assert [r.id for r in hold2] == [r.id for r in hold]
    _, hold3 = holdout_split(records, 0.2, seed=10)
    assert [r.id for r in hold3] != [r.id for r in hold]


def test_run_kfold_aggregate_is_fold_mean():
    records = small_records(n=30)
    cfg = NetConfig(seed=0, **SMALL_NET)
    reports, aggregate = run_kfold(records, 3, 0, cfg, quick_settings(epochs=1))
    assert len(reports) == 3
    for key, attr in (("au_score", "au_score"), ("ce_score", "ce_score"),
                      ("va_score", "va_score")):
        vals = [getattr(r, attr) for r in reports]
        assert aggregate[key] == pytest.approx(np.mean(vals), abs=1e-12)


def test_run_kfold_workers_do_not_change_results():
    records = small_records(n=30)
    cfg = NetConfig(seed=0, **SMALL_NET)
    serial, agg1 = run_kfold(records, 3, 0, cfg, quick_settings(epochs=1))
    threaded, agg2 = run_kfold(records, 3, 0, cfg, quick_settings(epochs=1), workers=3)
    assert agg1 == agg2
    for a, b in zip(serial, threaded):
        assert a.to_dict() == b.to_dict()


def test_evaluate_model_reports_all_tracks():
    records = small_records(n=16)
    model = Model(NetConfig(seed=0, **SMALL_NET))
    report = evaluate_model(model, records)
    assert report.n_au == report.n_ce == report.n_va == 16
    assert report.au_score is not None
    assert report.ce_score is not None
    assert report.va_score is not None
