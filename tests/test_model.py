import numpy as np
import pytest

from affectstream.data import AffectRecord, Batch, LabelColumns, LabelSet
from affectstream.engine import Optimizer, finite_diff_check, make_rng
from affectstream.model import (CheckpointError, Model, NetConfig, layer_plan,
                                load_checkpoint, save_checkpoint)
from affectstream.train import make_gradcheck_setup

SMALL = dict(embed_dim=24, au_feat_dim=10, ce_feat_dim=6, va_feat_dim=6,
             translator_dim=5, extractor_hidden=12, head_hidden=8)


def small_config(**over):
    kw = dict(SMALL)
    kw.update(over)
    return NetConfig(**kw)


def plan_param_count(config):
    # independent tally straight off the (fan_in, fan_out) plan
    return sum(fi * fo + fo for _, fi, fo in layer_plan(config))


# -- sizing --------------------------------------------------------------


def test_default_streaming_param_count():
    model = Model(NetConfig())
    assert model.store.param_count() == 527061
    assert plan_param_count(NetConfig()) == 527061


def test_default_parallel_param_count():
    model = Model(NetConfig(variant="parallel"))
    assert model.store.param_count() == 498261
    assert plan_param_count(NetConfig(variant="parallel")) == 498261


def test_parallel_is_smaller():
    s = Model(small_config()).store.param_count()
    p = Model(small_config(variant="parallel")).store.param_count()
    assert p < s


def test_adapter_adds_square_layer():
    base = Model(small_config()).store.param_count()
    with_a = Model(small_config(adapter=True)).store.param_count()
    e = SMALL["embed_dim"]
    assert with_a - base == e * e + e


def test_layer_plan_orders_and_names():
    names = [n for n, _, _ in layer_plan(small_config())]
    assert names.index("trans_au_ce") < names.index("head_ce.fc1")
    assert names.index("trans_ce_va") < names.index("head_va.fc1")
    par = [n for n, _, _ in layer_plan(small_config(variant="parallel"))]
    assert "trans_au_ce" not in par and "trans_ce_va" not in par


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(embed_dim=0).validate()
    with pytest.raises(ValueError):
        NetConfig(variant="serial").validate()


def test_negative_seed_is_named_by_the_config():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Model(NetConfig(seed=-1))


# -- forward semantics ---------------------------------------------------


def test_forward_shapes_and_va_bound():
    model = Model(small_config(seed=1))
    x = make_rng(2).normal(0, 1, (5, SMALL["embed_dim"]))
    pred = model.forward(x)
    assert pred.au_logits.shape == (5, 12)
    assert pred.ce_logits.shape == (5, 7)
    assert pred.va.shape == (5, 2)
    assert np.abs(pred.va).max() <= 1.0


def test_forward_rejects_wrong_width():
    model = Model(small_config())
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, SMALL["embed_dim"] + 1)))


def test_zero_params_give_zero_outputs():
    model = Model(small_config(seed=3))
    for name in model.store.names():
        w, b = model.store.params(name)
        model.store.set_params(name, np.zeros_like(w), np.zeros_like(b))
    pred = model.forward(make_rng(4).normal(0, 1, (3, SMALL["embed_dim"])))
    assert np.array_equal(pred.au_logits, np.zeros((3, 12)))
    assert np.array_equal(pred.ce_logits, np.zeros((3, 7)))
    assert np.array_equal(pred.va, np.zeros((3, 2)))


def relu(v):
    return np.maximum(v, 0.0)


def replay_mlp(store, prefix, x):
    w1, b1 = store.params(prefix + ".fc1")
    w2, b2 = store.params(prefix + ".fc2")
    return relu(x @ w1 + b1) @ w2 + b2


def test_streaming_forward_matches_manual_replay():
    cfg = small_config(seed=5)
    model = Model(cfg)
    x = make_rng(6).normal(0, 1, (4, cfg.embed_dim))
    pred = model.forward(x)

    st = model.store
    f_au = replay_mlp(st, "extractor_au", x)
    f_ce = replay_mlp(st, "extractor_ce", x)
    f_va = replay_mlp(st, "extractor_va", x)
    au_logits = replay_mlp(st, "head_au", f_au)
    w, b = st.params("trans_au_ce")
    j_ce = np.concatenate([f_au @ w + b, f_ce], axis=1)
    ce_logits = replay_mlp(st, "head_ce", j_ce)
    w, b = st.params("trans_ce_va")
    j_va = np.concatenate([f_va, j_ce @ w + b], axis=1)
    va = np.tanh(replay_mlp(st, "head_va", j_va))

    assert np.array_equal(pred.au_logits, au_logits)
    assert np.array_equal(pred.ce_logits, ce_logits)
    assert np.allclose(pred.va, va, rtol=0, atol=0)


def test_parallel_forward_matches_manual_replay():
    cfg = small_config(seed=7, variant="parallel")
    model = Model(cfg)
    x = make_rng(8).normal(0, 1, (4, cfg.embed_dim))
    pred = model.forward(x)
    st = model.store
    assert np.array_equal(pred.au_logits, replay_mlp(st, "head_au", replay_mlp(st, "extractor_au", x)))
    assert np.array_equal(pred.ce_logits, replay_mlp(st, "head_ce", replay_mlp(st, "extractor_ce", x)))
    assert np.array_equal(pred.va, np.tanh(replay_mlp(st, "head_va", replay_mlp(st, "extractor_va", x))))


def test_adapter_feeds_all_extractors():
    cfg = small_config(seed=9, adapter=True)
    model = Model(cfg)
    x = make_rng(10).normal(0, 1, (3, cfg.embed_dim))
    w, b = model.store.params("adapter")
    plain = Model(cfg)  # same seed: adapter params identical
    # replaying through the adapter by hand must reproduce the full forward
    st = model.store
    xa = x @ w + b
    f_au = replay_mlp(st, "extractor_au", xa)
    assert np.array_equal(model.forward(x).au_logits, replay_mlp(st, "head_au", f_au))
    del plain


def test_forward_batch_row_independence():
    model = Model(small_config(seed=11))
    x = make_rng(12).normal(0, 1, (6, SMALL["embed_dim"]))
    whole = model.forward(x)
    for i in range(6):
        row = model.forward(x[i:i + 1])
        assert np.allclose(whole.au_logits[i], row.au_logits[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(whole.va[i], row.va[0], rtol=1e-12, atol=1e-14)


# -- init / determinism --------------------------------------------------


def test_seeded_build_is_reproducible():
    a = Model(small_config(seed=13))
    b = Model(small_config(seed=13))
    c = Model(small_config(seed=14))
    for name in a.store.names():
        wa, ba = a.store.params(name)
        wb, bb = b.store.params(name)
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    diff = any(not np.array_equal(a.store.params(n)[0], c.store.params(n)[0])
               for n in a.store.names())
    assert diff


def test_biases_start_at_zero():
    model = Model(small_config(seed=15))
    for name in model.store.names():
        _, b = model.store.params(name)
        assert np.array_equal(b, np.zeros_like(b))


# -- prediction decoding -------------------------------------------------


def test_predict_decodes_thresholds_and_argmax():
    model = Model(small_config(seed=16))
    x = make_rng(17).normal(0, 1, (10, SMALL["embed_dim"]))
    pred = model.forward(x)
    au, ce, va = model.predict(x)
    assert np.array_equal(au, (pred.au_logits > 0).astype(np.int64))
    assert np.array_equal(ce, pred.ce_logits.argmax(axis=1))
    assert np.array_equal(va, pred.va)
    assert set(np.unique(au)) <= {0, 1}


def test_predict_respects_custom_thresholds():
    model = Model(small_config(seed=18))
    x = make_rng(19).normal(0, 1, (8, SMALL["embed_dim"]))
    logits = model.forward(x).au_logits
    model.au_thresholds = np.full(12, 1e9)
    au, _, _ = model.predict(x)
    assert np.array_equal(au, np.zeros((8, 12), dtype=np.int64))
    model.au_thresholds = np.full(12, -1e9)
    au, _, _ = model.predict(x)
    assert np.array_equal(au, np.ones((8, 12), dtype=np.int64))
    del logits


# -- gradients through the whole graph -----------------------------------


def make_batch(cfg, rng, n, pattern="full"):
    out = []
    for i in range(n):
        emb = rng.normal(0, 1, cfg.embed_dim)
        if pattern == "full":
            labels = LabelSet(au=rng.integers(0, 2, 12), ce=int(rng.integers(0, 7)),
                              va=rng.uniform(-1, 1, 2))
        elif pattern == "va_only":
            labels = LabelSet(va=rng.uniform(-1, 1, 2))
        elif pattern == "au_only":
            labels = LabelSet(au=rng.integers(0, 2, 12))
        else:
            raise ValueError(pattern)
        out.append(AffectRecord(id=f"r{i}", embedding=emb, labels=labels))
    return Batch(np.stack([r.embedding for r in out]),
                 LabelColumns.from_labels(r.labels for r in out))


def grad_norm(model, name):
    dw, db = model.store.grads(name)
    return float(np.abs(dw).sum() + np.abs(db).sum())


def test_va_only_batch_reaches_au_extractor_in_streaming():
    cfg = small_config(seed=20)
    model = Model(cfg)
    batch = make_batch(cfg, make_rng(21), 4, pattern="va_only")
    model.loss_and_grads(batch)
    assert grad_norm(model, "extractor_au.fc1") > 0
    assert grad_norm(model, "head_au.fc2") == 0.0
    assert grad_norm(model, "head_ce.fc2") == 0.0


def test_va_only_batch_isolated_in_parallel():
    cfg = small_config(seed=22, variant="parallel")
    model = Model(cfg)
    batch = make_batch(cfg, make_rng(23), 4, pattern="va_only")
    model.loss_and_grads(batch)
    assert grad_norm(model, "extractor_au.fc1") == 0.0
    assert grad_norm(model, "extractor_ce.fc1") == 0.0
    assert grad_norm(model, "extractor_va.fc1") > 0


def test_au_only_batch_never_reaches_downstream_heads():
    for variant in ("streaming", "parallel"):
        cfg = small_config(seed=24, variant=variant)
        model = Model(cfg)
        batch = make_batch(cfg, make_rng(25), 4, pattern="au_only")
        model.loss_and_grads(batch)
        assert grad_norm(model, "extractor_au.fc1") > 0
        assert grad_norm(model, "head_ce.fc1") == 0.0
        assert grad_norm(model, "head_va.fc1") == 0.0
        assert grad_norm(model, "extractor_va.fc1") == 0.0


def test_loss_and_grads_assigns_rather_than_accumulates():
    """A second call on the same batch leaves the same gradient buffers."""
    for variant, adapter in (("streaming", True), ("parallel", False)):
        cfg = small_config(seed=28, variant=variant, adapter=adapter)
        model = Model(cfg)
        batch = make_batch(cfg, make_rng(29), 6)
        model.loss_and_grads(batch)
        first = {name: [g.copy() for g in model.store.grads(name)]
                 for name in model.store.names()}
        model.loss_and_grads(batch)
        for name in model.store.names():
            for got, want in zip(model.store.grads(name), first[name]):
                assert np.array_equal(got, want), name


def test_full_graph_gradient_check_both_variants():
    for variant in ("streaming", "parallel"):
        model, batch = make_gradcheck_setup(variant=variant)
        result = finite_diff_check(lambda: model.loss_and_grads(batch).total,
                                   model.store, eps=1e-5)
        assert result.max_rel_err < 1e-5, (variant, result)


def test_full_graph_gradient_check_with_adapter():
    for variant in ("streaming", "parallel"):
        model, batch = make_gradcheck_setup(variant=variant, adapter=True)
        result = finite_diff_check(lambda: model.loss_and_grads(batch).total,
                                   model.store, eps=1e-5)
        assert result.max_rel_err < 1e-5, (variant, result)


def test_train_step_changes_params_and_lowers_loss():
    cfg = small_config(seed=26)
    model = Model(cfg)
    batch = make_batch(cfg, make_rng(27), 8)
    opt = Optimizer(mode="adam", lr=5e-3)
    first = model.train_step(batch, opt).total
    for _ in range(60):
        last = model.train_step(batch, opt).total
    assert last < first


def test_train_step_skips_a_batch_without_contributing_samples():
    cfg = small_config(seed=30)
    model = Model(cfg)
    opt = Optimizer(mode="adam", lr=5e-3, weight_decay=1e-2)
    model.train_step(make_batch(cfg, make_rng(31), 8), opt)
    before = {name: [p.copy() for p in model.store.params(name)] for name in model.store.names()}
    moments = {name: [m.copy() for m in opt._m[name] + opt._v[name]] for name in opt._m}
    steps = opt._t
    bd = model.train_step(make_batch(cfg, make_rng(32), 1, pattern="va_only"), opt)
    assert bd.n_au == bd.n_ce == bd.n_va == 0
    assert opt._t == steps
    for name in model.store.names():
        for p, q in zip(model.store.params(name), before[name]):
            assert np.array_equal(p, q), name
        for m, n in zip(opt._m[name] + opt._v[name], moments[name]):
            assert np.array_equal(m, n), name


# -- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = small_config(seed=28)
    model = Model(cfg)
    batch = make_batch(cfg, make_rng(29), 6)
    opt = Optimizer(lr=1e-3)
    for _ in range(3):
        model.train_step(batch, opt)
    model.au_thresholds = make_rng(30).normal(0, 0.1, 12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    for name in model.store.names():
        w, b = model.store.params(name)
        w2, b2 = loaded.store.params(name)
        assert np.array_equal(w, w2) and np.array_equal(b, b2)
    assert np.array_equal(model.au_thresholds, loaded.au_thresholds)
    x = make_rng(31).normal(0, 1, (4, cfg.embed_dim))
    a, b_ = model.forward(x), loaded.forward(x)
    assert np.array_equal(a.au_logits, b_.au_logits)
    assert np.array_equal(a.va, b_.va)


def test_checkpoint_bytes_deterministic(tmp_path):
    m1 = Model(small_config(seed=32))
    m2 = Model(small_config(seed=32))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m1, p1)
    save_checkpoint(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("definitely not json {")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_tampered_layers(tmp_path):
    import json
    model = Model(small_config(seed=33))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    del doc["params"]["head_va.fc2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
