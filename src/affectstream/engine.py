"""Minimal deterministic dense-network engine.

Double-precision parameter store, linear/ReLU/tanh/concat ops with manual
backward passes, Adam/SGD updates, and a central-difference gradient
checker. Two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Input shape does not match a layer or operand."""


class NumericError(RuntimeError):
    """Non-finite value in parameters or gradients; message names the entry."""


def make_rng(seed):
    """Seeded generator; identical seed gives an identical draw sequence."""
    return np.random.Generator(np.random.PCG64(int(seed)))


class ParamStore:
    """Named linear-layer parameters (weight, bias) plus matching grad buffers."""

    def __init__(self):
        self._params = {}  # name -> [W (in,out), b (out,)]
        self._grads = {}

    def add_linear(self, name, fan_in, fan_out, rng):
        """Allocate a layer with He-uniform weights and zero bias."""
        if name in self._params:
            raise ValueError(f"duplicate layer name {name!r}")
        limit = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out, dtype=float)
        self._params[name] = [w, b]
        self._grads[name] = [np.zeros_like(w), np.zeros_like(b)]

    def names(self):
        return list(self._params)

    def __contains__(self, name):
        return name in self._params

    def params(self, name):
        if name not in self._params:
            raise KeyError(f"unknown layer {name!r}")
        return self._params[name]

    def grads(self, name):
        return self._grads[name]

    def set_params(self, name, w, b):
        old_w, old_b = self.params(name)
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        if w.shape != old_w.shape or b.shape != old_b.shape:
            raise DimensionError(f"layer {name!r}: shape {w.shape}/{b.shape} does not match "
                                 f"{old_w.shape}/{old_b.shape}")
        self._params[name] = [w, b]

    def zero_grads(self):
        for dw, db in self._grads.values():
            dw.fill(0.0)
            db.fill(0.0)

    def param_count(self):
        return sum(w.size + b.size for w, b in self._params.values())


def linear_forward(store, name, x, cache=None):
    """y = x @ W + b for a named layer.

    When a cache dict is supplied the input is stashed for the backward
    pass; without one the call is pure and safe on shared snapshots.
    """
    w, b = store.params(name)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"layer {name!r} expects input of width {w.shape[0]}, "
                             f"got shape {x.shape}")
    if cache is not None:
        cache[name] = x
    return x @ w + b


def linear_backward(store, name, grad_out, cache, input_grad=True):
    """Write dW, db for a layer and return the gradient w.r.t. its input.

    The gradient buffers are assigned, not accumulated into: each layer
    appears once in the graph, so its backward runs exactly once per step
    and no zeroing is needed between steps. With input_grad=False the
    input gradient is not computed and None is returned; the graph's first
    layer uses this, since nothing upstream of the embedding trains.
    """
    x = cache[name]
    dw, db = store.grads(name)
    np.matmul(x.T, grad_out, out=dw)
    np.sum(grad_out, axis=0, out=db)
    if not input_grad:
        return None
    w, _ = store.params(name)
    return grad_out @ w.T


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(x, grad_out):
    # gradient passes only where the pre-activation was strictly positive
    return grad_out * (x > 0)


def tanh(x):
    return np.tanh(x)


def tanh_backward(y, grad_out):
    """Backward through tanh given its *output* y."""
    return grad_out * (1.0 - y * y)


def concat(a, b):
    """Column-wise concatenation of two batches."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat batch mismatch: {a.shape[0]} vs {b.shape[0]}")
    return np.concatenate([a, b], axis=1)


def concat_backward(grad_out, left_cols):
    """Split an upstream gradient at the concatenation boundary."""
    return grad_out[:, :left_cols], grad_out[:, left_cols:]


_PARTS = ("weight", "bias")


def _check_finite(arr, what, name, part):
    """Raise NumericError naming `<name>.<part>` if arr has a non-finite entry.

    One reduction flags a suspect buffer; the exact per-entry scan runs only
    then, so a finite buffer whose sum overflows passes.
    """
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what} in {name}.{part}")


class Optimizer:
    """Adam (default) or plain SGD over a ParamStore.

    Weight decay is decoupled: applied directly to weights after the
    gradient step, never mixed into the adaptive moments. Biases are not
    decayed. step() updates each tensor in place, in one pass through the
    store that reuses a single scratch buffer, so it allocates no
    temporaries. It checks every gradient before the update and every
    parameter after it, raising NumericError naming `<layer>.weight|bias`
    on a non-finite entry. It only reads the gradient buffers and leaves
    them as they were: the model's backward pass assigns every one of them
    once per step, so they need no zeroing between steps. A caller that
    fills gradients by accumulation zeroes them itself (ParamStore.zero_grads).
    """

    def __init__(self, mode="adam", lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        if mode not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer mode {mode!r}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.mode = mode
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {}
        self._v = {}
        self._t = 0
        self._scratch = np.empty(0)

    def step(self, store, lr=None):
        lr = self.lr if lr is None else lr
        names = store.names()
        largest = max((w.size for w, _ in map(store.params, names)), default=0)
        if self._scratch.size < largest:
            self._scratch = np.empty(largest)
        adam = self.mode == "adam"
        if adam:
            self._t += 1
            b1, b2 = self.beta1, self.beta2
            # bias correction folded into one step size and a scaled eps:
            # lr * (m / bc1) / (sqrt(v / bc2) + eps)
            #   == step * m / (sqrt(v) + eps * sqrt(bc2))
            root_bc2 = math.sqrt(1.0 - b2 ** self._t)
            step = lr * root_bc2 / (1.0 - b1 ** self._t)
            eps = self.eps * root_bc2
        decay = 1.0 - lr * self.weight_decay
        # overflow surfaces as inf, which the finiteness checks then name
        with np.errstate(over="ignore"):
            for name in names:
                for g, part in zip(store.grads(name), _PARTS):
                    _check_finite(g, "gradient", name, part)
            for name in names:
                params, grads = store.params(name), store.grads(name)
                if adam and name not in self._m:
                    self._m[name] = [np.zeros_like(p) for p in params]
                    self._v[name] = [np.zeros_like(p) for p in params]
                for i, part in enumerate(_PARTS):
                    p, g = params[i], grads[i]
                    s = self._scratch[:p.size].reshape(p.shape)
                    if adam:
                        m, v = self._m[name][i], self._v[name][i]
                        m *= b1
                        np.multiply(g, 1.0 - b1, out=s)
                        m += s
                        v *= b2
                        np.multiply(g, 1.0 - b2, out=s)
                        s *= g
                        v += s
                        np.sqrt(v, out=s)
                        s += eps
                        np.divide(m, s, out=s)
                        s *= step
                    else:
                        np.multiply(g, lr, out=s)
                    p -= s
                    if part == "weight" and self.weight_decay > 0.0:
                        p *= decay
                    _check_finite(p, "parameter", name, part)
        return store


class GradCheckResult(NamedTuple):
    max_rel_err: float
    worst_param: str


def finite_diff_check(loss_fn: Callable[[], float], store, eps=1e-5):
    """Compare analytic gradients against central finite differences.

    loss_fn() must return the scalar loss for the store's current parameters
    and leave the matching analytic gradients in the store's gradient
    buffers. Every parameter entry is perturbed by +-eps; the relative error
    uses max(|analytic|, |numeric|, 1e-8) as denominator. Returns the
    maximum relative error together with the worst entry's name.
    """
    store.zero_grads()
    loss_fn()
    analytic = {name: [g.copy() for g in store.grads(name)] for name in store.names()}
    worst = GradCheckResult(0.0, "")
    for name in store.names():
        arrays = store.params(name)
        for part, label in ((0, "weight"), (1, "bias")):
            flat = arrays[part].ravel()
            a_flat = analytic[name][part].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                store.zero_grads()
                f_plus = loss_fn()
                flat[i] = orig - eps
                store.zero_grads()
                f_minus = loss_fn()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
                rel = abs(a_flat[i] - numeric) / denom
                if rel > worst.max_rel_err:
                    worst = GradCheckResult(rel, f"{name}.{label}[{i}]")
    store.zero_grads()
    return worst
