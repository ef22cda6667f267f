"""The streaming multi-task network and its parallel ablation variant.

Three extractors downsample the expression embedding into per-task
features. In the streaming variant the AU features are translated and
concatenated into the CE stage, and the CE joint features are translated
into the VA stage, so later losses back-propagate into earlier extractors.
The parallel variant wires each head only to its own extractor.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import engine
from .data import N_AU, N_CE
from .losses import total_loss

VARIANTS = ("streaming", "parallel")

CHECKPOINT_FORMAT = "affectstream-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class NetConfig:
    """Architecture hyperparameters.

    The extractor output widths (192 = 12x16 for AU, 64 for CE and VA) and
    the joint 128-wide stage inputs are the defaults; hidden widths are
    free choices. The AU feature block is kept flat rather than split into
    12 per-unit branches.
    """

    embed_dim: int = 512
    au_feat_dim: int = 192
    ce_feat_dim: int = 64
    va_feat_dim: int = 64
    translator_dim: int = 64
    extractor_hidden: int = 256
    head_hidden: int = 64
    variant: str = "streaming"
    adapter: bool = False
    seed: int = 0

    def validate(self):
        dims = (self.embed_dim, self.au_feat_dim, self.ce_feat_dim, self.va_feat_dim,
                self.translator_dim, self.extractor_hidden, self.head_hidden)
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1: {self}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def ce_in_dim(self):
        if self.variant == "streaming":
            return self.translator_dim + self.ce_feat_dim
        return self.ce_feat_dim

    @property
    def va_in_dim(self):
        if self.variant == "streaming":
            return self.va_feat_dim + self.translator_dim
        return self.va_feat_dim


@dataclass
class Prediction:
    """Network outputs for a batch: raw logits and bounded VA values.

    au_logits: (B, 12), ce_logits: (B, 7), va: (B, 2) with |va| <= 1.
    """

    au_logits: np.ndarray
    ce_logits: np.ndarray
    va: np.ndarray


def layer_plan(config):
    """Ordered (name, fan_in, fan_out) list; the order fixes seeded init."""
    config.validate()
    e = config.embed_dim
    plan = []
    if config.adapter:
        plan.append(("adapter", e, e))
    plan += [
        ("extractor_au.fc1", e, config.extractor_hidden),
        ("extractor_au.fc2", config.extractor_hidden, config.au_feat_dim),
        ("extractor_ce.fc1", e, config.extractor_hidden),
        ("extractor_ce.fc2", config.extractor_hidden, config.ce_feat_dim),
        ("extractor_va.fc1", e, config.extractor_hidden),
        ("extractor_va.fc2", config.extractor_hidden, config.va_feat_dim),
        ("head_au.fc1", config.au_feat_dim, config.head_hidden),
        ("head_au.fc2", config.head_hidden, N_AU),
    ]
    if config.variant == "streaming":
        plan.append(("trans_au_ce", config.au_feat_dim, config.translator_dim))
    plan += [
        ("head_ce.fc1", config.ce_in_dim, config.head_hidden),
        ("head_ce.fc2", config.head_hidden, N_CE),
    ]
    if config.variant == "streaming":
        plan.append(("trans_ce_va", config.ce_in_dim, config.translator_dim))
    plan += [
        ("head_va.fc1", config.va_in_dim, config.head_hidden),
        ("head_va.fc2", config.head_hidden, 2),
    ]
    return plan


def build(config):
    """Allocate a model with parameters seeded from config.seed."""
    return Model(config)


class Model:
    """Dense multi-task network over expression embeddings.

    train_step requires exclusive access; forward/predict without a cache
    are pure in (params, input).
    """

    def __init__(self, config):
        config.validate()
        self.config = config
        self.store = engine.ParamStore()
        rng = engine.make_rng(config.seed)
        for name, fan_in, fan_out in layer_plan(config):
            self.store.add_linear(name, fan_in, fan_out, rng)
        # per-AU decision thresholds; 0 is the natural split of the AU loss
        self.au_thresholds = np.zeros(N_AU, dtype=float)

    # -- forward ---------------------------------------------------------

    def _mlp(self, prefix, x, cache):
        h = engine.linear_forward(self.store, prefix + ".fc1", x, cache)
        a = engine.relu(h)
        if cache is not None:
            cache[prefix + ".pre"] = h
        return engine.linear_forward(self.store, prefix + ".fc2", a, cache)

    def _forward(self, embeddings, cache):
        cfg = self.config
        x = np.asarray(embeddings, dtype=float)
        if x.ndim != 2 or x.shape[1] != cfg.embed_dim:
            raise engine.DimensionError(
                f"embedding stage expects (B, {cfg.embed_dim}), got {x.shape}")
        if cfg.adapter:
            x = engine.linear_forward(self.store, "adapter", x, cache)
        f_au = self._mlp("extractor_au", x, cache)
        f_ce = self._mlp("extractor_ce", x, cache)
        f_va = self._mlp("extractor_va", x, cache)
        au_logits = self._mlp("head_au", f_au, cache)
        if cfg.variant == "streaming":
            t1 = engine.linear_forward(self.store, "trans_au_ce", f_au, cache)
            j_ce = engine.concat(t1, f_ce)
        else:
            j_ce = f_ce
        ce_logits = self._mlp("head_ce", j_ce, cache)
        if cfg.variant == "streaming":
            t2 = engine.linear_forward(self.store, "trans_ce_va", j_ce, cache)
            j_va = engine.concat(f_va, t2)
        else:
            j_va = f_va
        va_pre = self._mlp("head_va", j_va, cache)
        va = engine.tanh(va_pre)
        if cache is not None:
            cache["va.out"] = va
        return Prediction(au_logits=au_logits, ce_logits=ce_logits, va=va)

    def forward(self, embeddings):
        """Pure batch forward pass; returns a Prediction of arrays."""
        return self._forward(embeddings, cache=None)

    # -- backward --------------------------------------------------------

    def _mlp_backward(self, prefix, grad_out, cache, input_grad=True):
        g = engine.linear_backward(self.store, prefix + ".fc2", grad_out, cache)
        g = engine.relu_backward(cache[prefix + ".pre"], g)
        return engine.linear_backward(self.store, prefix + ".fc1", g, cache, input_grad)

    def _backward(self, cache, grad_au, grad_ce, grad_va):
        cfg = self.config
        g_va_pre = engine.tanh_backward(cache["va.out"], grad_va)
        g_j_va = self._mlp_backward("head_va", g_va_pre, cache)
        if cfg.variant == "streaming":
            g_f_va, g_t2 = engine.concat_backward(g_j_va, cfg.va_feat_dim)
            g_j_ce = engine.linear_backward(self.store, "trans_ce_va", g_t2, cache)
        else:
            g_f_va = g_j_va
            g_j_ce = 0.0
        g_j_ce = g_j_ce + self._mlp_backward("head_ce", grad_ce, cache)
        if cfg.variant == "streaming":
            g_t1, g_f_ce = engine.concat_backward(g_j_ce, cfg.translator_dim)
            g_f_au = engine.linear_backward(self.store, "trans_au_ce", g_t1, cache)
        else:
            g_f_ce = g_j_ce
            g_f_au = 0.0
        g_f_au = g_f_au + self._mlp_backward("head_au", grad_au, cache)
        # the embedding is a fixed prior: the first layer it meets (the
        # adapter, else the three extractors) skips its input gradient
        g_x_au = self._mlp_backward("extractor_au", g_f_au, cache, cfg.adapter)
        g_x_ce = self._mlp_backward("extractor_ce", g_f_ce, cache, cfg.adapter)
        g_x_va = self._mlp_backward("extractor_va", g_f_va, cache, cfg.adapter)
        if cfg.adapter:
            engine.linear_backward(self.store, "adapter", (g_x_au + g_x_ce) + g_x_va, cache,
                                   input_grad=False)

    # -- training and inference ------------------------------------------

    def loss_and_grads(self, batch):
        """Forward + masked loss + backward; leaves gradients in the store.

        Every gradient buffer is assigned (not accumulated into), so the
        result does not depend on what the buffers held before the call.
        batch: list of AffectRecord. Returns the LossBreakdown.
        """
        emb = np.stack([rec.embedding for rec in batch])
        cache = {}
        pred = self._forward(emb, cache)
        breakdown, (g_au, g_ce, g_va) = total_loss(
            pred.au_logits, pred.ce_logits, pred.va, [rec.labels for rec in batch])
        self._backward(cache, g_au, g_ce, g_va)
        return breakdown

    def train_step(self, batch, optimizer):
        """One optimization step on a batch; returns its LossBreakdown.

        A batch from which no sample contributes to any loss (say one VA
        row and no AU or CE labels) takes no step: the weights, Adam's
        moments and its step count stay as they were.
        """
        breakdown = self.loss_and_grads(batch)
        if breakdown.n_au + breakdown.n_ce + breakdown.n_va:
            optimizer.step(self.store)
        return breakdown

    def predict(self, embeddings):
        """Decode outputs: AU bits (logit > threshold), CE argmax, VA as-is.

        Argmax ties resolve to the lowest class index.
        """
        pred = self.forward(embeddings)
        au = (pred.au_logits > self.au_thresholds).astype(np.int64)
        ce = np.argmax(pred.ce_logits, axis=1)
        return au, ce, pred.va


# -- checkpointing -------------------------------------------------------


def _encode(arr):
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text, shape, label):
    """Decode one base64 float64 tensor; errors name it by label."""
    try:
        arr = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
        arr = arr.astype(float).reshape(tuple(shape))
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CheckpointError(f"bad tensor {label}: {exc}") from None
    if not np.isfinite(arr).all():
        raise CheckpointError(f"non-finite value in tensor {label}")
    return arr


def save_checkpoint(model, path):
    """Write config + all named tensors; identical models give identical bytes."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "au_thresholds": _encode(model.au_thresholds),
        "params": {},
    }
    for name in model.store.names():
        w, b = model.store.params(name)
        doc["params"][name] = {
            "w_shape": list(w.shape),
            "w": _encode(w),
            "b_shape": list(b.shape),
            "b": _encode(b),
        }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_checkpoint(path):
    """Load a checkpoint into a fresh model; round trip is bit-exact."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"not a checkpoint file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:
        config = NetConfig(**doc["config"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint config: {exc!r}") from None
    for field in fields(NetConfig):
        value = getattr(config, field.name)
        if type(value) is not type(field.default):
            raise CheckpointError(f"bad checkpoint config: {field.name} must be "
                                  f"{type(field.default).__name__}, got {value!r}")
    try:
        model = Model(config)
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint config: {exc}") from None
    stored = doc.get("params")
    if not isinstance(stored, dict):
        raise CheckpointError("checkpoint has no params table")
    expected = set(model.store.names())
    if set(stored) != expected:
        raise CheckpointError(
            f"checkpoint layers {sorted(stored)} do not match config layers {sorted(expected)}")
    for name in model.store.names():
        entry = stored[name]
        try:
            w = _decode(entry["w"], entry["w_shape"], f"{name}.weight")
            b = _decode(entry["b"], entry["b_shape"], f"{name}.bias")
            model.store.set_params(name, w, b)
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"layer {name}: missing or malformed key {exc}") from None
        except engine.DimensionError as exc:
            raise CheckpointError(str(exc)) from None
    if "au_thresholds" not in doc:
        raise CheckpointError("missing key 'au_thresholds'")
    model.au_thresholds = _decode(doc["au_thresholds"], (N_AU,), "au_thresholds")
    return model
