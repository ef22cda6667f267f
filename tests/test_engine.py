import numpy as np
import pytest

from affectstream import engine
from affectstream.engine import (DimensionError, NumericError, Optimizer, ParamStore,
                                 concat, concat_backward, finite_diff_check,
                                 linear_backward, linear_forward, make_rng, relu,
                                 relu_backward, tanh, tanh_backward)


def make_store(name="fc", fan_in=3, fan_out=3, seed=0):
    store = ParamStore()
    store.add_linear(name, fan_in, fan_out, make_rng(seed))
    return store


def test_linear_identity():
    store = make_store()
    store.set_params("fc", np.eye(3), np.zeros(3))
    out = linear_forward(store, "fc", np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_linear_zero_weights_bias_broadcast():
    store = make_store(fan_in=3, fan_out=2)
    store.set_params("fc", np.zeros((3, 2)), np.array([5.0, 5.0]))
    out = linear_forward(store, "fc", np.arange(12.0).reshape(4, 3))
    assert np.array_equal(out, np.full((4, 2), 5.0))


def test_linear_matches_hand_product():
    store = make_store(fan_in=4, fan_out=3, seed=7)
    w, b = store.params("fc")
    x = np.ones((1, 4))
    out = linear_forward(store, "fc", x)
    # explicit loop evaluation, independent of the matmul path
    expected = [sum(x[0, i] * w[i, j] for i in range(4)) + b[j] for j in range(3)]
    assert np.allclose(out[0], expected, rtol=0, atol=1e-14)


def test_linear_shape_error_names_layer():
    store = make_store(name="head_ce.fc1", fan_in=3, fan_out=2)
    with pytest.raises(DimensionError, match="head_ce.fc1"):
        linear_forward(store, "head_ce.fc1", np.zeros((2, 5)))


def test_linear_backward_accumulates_and_returns_input_grad():
    store = make_store(fan_in=2, fan_out=2, seed=1)
    w, _ = store.params("fc")
    cache = {}
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    linear_forward(store, "fc", x, cache)
    g = np.array([[1.0, 0.0], [0.0, 2.0]])
    gx = linear_backward(store, "fc", g, cache)
    dw, db = store.grads("fc")
    assert np.allclose(dw, x.T @ g)
    assert np.allclose(db, g.sum(axis=0))
    assert np.allclose(gx, g @ w.T)


def test_linear_backward_without_input_grad_assigns_weight_grads_only():
    store = make_store(fan_in=2, fan_out=3, seed=6)
    cache = {}
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    linear_forward(store, "fc", x, cache)
    g = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]])
    dw, db = store.grads("fc")
    dw.fill(7.0)
    db.fill(7.0)
    assert linear_backward(store, "fc", g, cache, input_grad=False) is None
    assert store.grads("fc")[0] is dw and store.grads("fc")[1] is db
    assert np.array_equal(dw, x.T @ g)
    assert np.array_equal(db, g.sum(axis=0))


def test_relu_values():
    assert np.array_equal(relu(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])
    assert np.array_equal(relu(np.array([[-5.0, -0.1]])), [[0.0, 0.0]])


def test_relu_gradient_piecewise():
    x = np.array([[3.0, -3.0]])
    g = relu_backward(x, np.ones_like(x))
    assert np.array_equal(g, [[1.0, 0.0]])


def test_tanh_backward_matches_derivative():
    x = np.array([[0.3, -1.2]])
    y = tanh(x)
    g = tanh_backward(y, np.ones_like(x))
    assert np.allclose(g, 1.0 - np.tanh(x) ** 2)


def test_concat_values_and_empty():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0]])
    assert np.array_equal(concat(a, b), [[1.0, 2.0, 3.0]])
    empty = np.zeros((1, 0))
    assert np.array_equal(concat(a, empty), a)


def test_concat_batch_mismatch():
    with pytest.raises(DimensionError):
        concat(np.zeros((2, 1)), np.zeros((3, 1)))


def test_concat_backward_matches_finite_differences():
    rng = make_rng(3)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    u = rng.normal(size=(2, 5))  # fixed upstream weighting

    def f(a_, b_):
        return float((concat(a_, b_) * u).sum())

    ga, gb = concat_backward(u, 3)
    eps = 1e-6
    for arr, grad in ((a, ga), (b, gb)):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            fp = f(a, b)
            arr[idx] = orig - eps
            fm = f(a, b)
            arr[idx] = orig
            assert (fp - fm) / (2 * eps) == pytest.approx(grad[idx], abs=1e-8)


def test_concat_backward_conserves_gradient():
    rng = make_rng(4)
    g = rng.normal(size=(3, 7))
    left, right = concat_backward(g, 4)
    assert np.array_equal(np.concatenate([left, right], axis=1), g)


def test_optimizer_zero_gradients_noop():
    for mode in ("sgd", "adam"):
        store = make_store(seed=5)
        w_before = store.params("fc")[0].copy()
        Optimizer(mode=mode, lr=0.1).step(store)
        assert np.array_equal(store.params("fc")[0], w_before)


def test_sgd_update_rule():
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    store.set_params("w", np.array([[1.0]]), np.zeros(1))
    store.grads("w")[0][:] = 0.5
    Optimizer(mode="sgd", lr=0.1).step(store)
    assert store.params("w")[0][0, 0] == pytest.approx(0.95, abs=1e-15)


def test_adam_matches_reference_recurrence_and_converges():
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    store.set_params("w", np.array([[1.0]]), np.zeros(1))
    opt = Optimizer(mode="adam", lr=0.02)

    # independent scalar recurrence for f(w) = w^2
    w_ref, m, v = 1.0, 0.0, 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 501):
        w = store.params("w")[0][0, 0]
        store.grads("w")[0][0, 0] = 2.0 * w
        opt.step(store)
        g = 2.0 * w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref -= 0.02 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert store.params("w")[0][0, 0] == pytest.approx(w_ref, abs=1e-12)
    assert abs(store.params("w")[0][0, 0]) < 1e-3


def test_optimizer_step_leaves_gradients_as_written():
    """step() only reads the gradients; the next backward pass assigns them."""
    for mode in ("sgd", "adam"):
        store = make_store(seed=2)
        rng = make_rng(3)
        for g in store.grads("fc"):
            g[...] = rng.normal(size=g.shape)
        written = [g.copy() for g in store.grads("fc")]
        buffers = list(store.grads("fc"))
        Optimizer(mode=mode, lr=0.1, weight_decay=0.01).step(store)
        for got, buf, want in zip(store.grads("fc"), buffers, written):
            assert got is buf
            assert np.array_equal(got, want), mode


def test_sgd_decoupled_weight_decay():
    """Decay multiplies weights after the gradient step; biases are exempt."""
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    store.set_params("w", np.array([[1.0]]), np.array([2.0]))
    dw, db = store.grads("w")
    dw[:] = 0.5
    db[:] = 1.0
    Optimizer(mode="sgd", lr=0.1, weight_decay=0.01).step(store)
    w, b = store.params("w")
    assert w[0, 0] == pytest.approx((1.0 - 0.1 * 0.5) * (1.0 - 0.1 * 0.01), abs=1e-15)
    assert b[0] == pytest.approx(2.0 - 0.1 * 1.0, abs=1e-15)


def test_adam_weight_decay_stays_out_of_moments():
    """Moments track the raw gradient; decay only rescales the weights."""
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    store.set_params("w", np.array([[1.0]]), np.zeros(1))
    opt = Optimizer(mode="adam", lr=0.02, weight_decay=0.05)

    w_ref, m, v = 1.0, 0.0, 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 51):
        w = store.params("w")[0][0, 0]
        store.grads("w")[0][0, 0] = 2.0 * w
        opt.step(store)
        g = 2.0 * w_ref  # a coupled update would fold decay in here
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref -= 0.02 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        w_ref *= 1.0 - 0.02 * 0.05
        assert store.params("w")[0][0, 0] == pytest.approx(w_ref, abs=1e-12)


def test_weight_decay_applies_without_gradient():
    store = make_store(seed=5)
    w_before = store.params("fc")[0].copy()
    b_before = store.params("fc")[1].copy()
    Optimizer(mode="sgd", lr=0.1, weight_decay=0.5).step(store)
    assert np.allclose(store.params("fc")[0], w_before * (1.0 - 0.1 * 0.5), atol=1e-15)
    assert np.array_equal(store.params("fc")[1], b_before)


def test_negative_weight_decay_rejected():
    with pytest.raises(ValueError):
        Optimizer(mode="sgd", weight_decay=-0.1)


def test_non_finite_gradient_aborts_with_name():
    store = make_store(name="extractor_au.fc1", seed=2)
    store.grads("extractor_au.fc1")[0][0, 0] = np.nan
    with pytest.raises(NumericError, match="extractor_au.fc1"):
        Optimizer(mode="sgd", lr=0.1).step(store)


def test_finite_diff_check_quadratic():
    store = ParamStore()
    store.add_linear("w", 1, 1, make_rng(0))
    store.set_params("w", np.array([[3.0]]), np.zeros(1))

    def loss_fn():
        w = store.params("w")[0][0, 0]
        store.grads("w")[0][0, 0] += 2.0 * w
        return w * w

    result = finite_diff_check(loss_fn, store, eps=1e-5)
    assert result.max_rel_err < 1e-8


def test_finite_diff_check_constant_loss():
    store = make_store(seed=9)
    result = finite_diff_check(lambda: 1.0, store, eps=1e-5)
    assert result.max_rel_err == 0.0


def test_finite_diff_check_names_a_nan_weight_gradient():
    """A NaN relative error is the worst one, not one that never compares."""
    store = make_store(seed=9)

    def loss_fn():
        w, _ = store.params("fc")
        store.grads("fc")[0][...] = 2.0 * w
        store.grads("fc")[0][1, 2] = np.nan
        return float((w * w).sum())

    result = finite_diff_check(loss_fn, store, eps=1e-5)
    assert not result.max_rel_err < 1e-5
    assert result.worst_param == "fc.weight[5]"


def test_seeded_init_is_bit_identical():
    a = make_store(seed=42).params("fc")
    b = make_store(seed=42).params("fc")
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = make_store(seed=43).params("fc")
    assert not np.array_equal(a[0], c[0])


def test_duplicate_layer_name_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.add_linear("fc", 2, 2, make_rng(0))


def test_param_count():
    store = ParamStore()
    rng = make_rng(0)
    store.add_linear("a", 4, 3, rng)
    store.add_linear("b", 3, 2, rng)
    assert store.param_count() == (4 * 3 + 3) + (3 * 2 + 2)


def test_adam_with_decay_matches_textbook_update():
    """Five fused steps equal the unfused bias-corrected expression."""
    rng = make_rng(6)
    store = make_store(fan_in=4, fan_out=3, seed=6)
    store.set_params("fc", rng.normal(size=(4, 3)), rng.normal(size=3))
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    opt = Optimizer(mode="adam", lr=lr, weight_decay=wd)
    ref = [p.copy() for p in store.params("fc")]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    for t in range(1, 6):
        grads = [rng.normal(size=p.shape) for p in ref]
        for buf, g in zip(store.grads("fc"), grads):
            buf[...] = g
        opt.step(store)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            ref[i] -= lr * (m[i] / (1 - b1 ** t)) / (np.sqrt(v[i] / (1 - b2 ** t)) + eps)
        ref[0] -= lr * wd * ref[0]  # weights only
        for got, want in zip(store.params("fc"), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_finite_gradient_with_overflowing_sum_does_not_raise():
    for mode in ("sgd", "adam"):
        store = make_store(seed=2)
        store.grads("fc")[0][0, :2] = 1e308
        Optimizer(mode=mode, lr=1e-3).step(store)
        assert np.isfinite(store.params("fc")[0]).all()


def test_non_finite_bias_gradient_names_bias():
    store = make_store(name="head_ce.fc2", seed=2)
    store.grads("head_ce.fc2")[1][1] = np.nan
    with pytest.raises(NumericError, match=r"head_ce\.fc2\.bias"):
        Optimizer(mode="adam").step(store)


def test_sgd_overflow_to_inf_names_parameter():
    store = make_store(name="head_va.fc1", seed=2)
    w, b = store.params("head_va.fc1")
    store.set_params("head_va.fc1", np.where(np.arange(9).reshape(3, 3) == 4, 1e308, w), b)
    store.grads("head_va.fc1")[0][1, 1] = -1e308
    with pytest.raises(NumericError, match=r"parameter in head_va\.fc1\.weight"):
        Optimizer(mode="sgd", lr=10.0).step(store)
