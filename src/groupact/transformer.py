"""Encoder-only transformer over a set of actor embeddings.

One layer is: multi-head self-attention with a residual connection and layer
norm, then a two-linear feed-forward block (ReLU between, dropout inside)
with its own residual and layer norm. The three dropout sites (attention
output, inner feed-forward activation, feed-forward output) share one rate.

The encoder runs on packed actor sets: s holds the actors of several scenes
row after row, and the optional sizes argument (a sequence of per-scene
actor counts, or a SetLayout) keeps attention inside each scene. Without
sizes, the rows are one scene. A grouped (G, N, d_model) s runs G encoders
of one config side by side, each layer's weights (G, ...) tensors over them
(see tensor); its sizes are the scenes' sizes tiled G times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    MODE_INFER,
    MODE_TRAIN,
    DropoutDraws,
    SetLayout,
    Tensor,
    add,
    check_mode,
    concat_last_dim,
    dropout,
    layer_norm,
    matmul,
    mul,
    relu,
    set_attention,
    softmax_rows,
    transpose,
)


def xavier_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform draws; zeros when rng is None, for a model whose every
    value is overwritten next (a checkpoint load)."""
    if rng is None:
        return np.zeros((fan_in, fan_out))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 128
    num_heads: int = 1
    num_layers: int = 1
    d_ff: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_model <= 0 or self.num_heads <= 0:
            raise ConfigError(f"d_model and num_heads must be positive, got {self}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.d_ff <= 0:
            raise ConfigError(f"d_ff must be positive, got {self.d_ff}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


@dataclass
class AttentionRecord:
    """Per-layer, per-head attention matrices captured during a forward pass."""

    matrices: list = field(default_factory=list)  # matrices[layer][head] -> (n, n) ndarray


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V for one scene, the scale taken from q's width.

    The reference for set_attention, which the encoder uses.
    """
    if v.ndim != 2 or v.shape[0] != k.shape[0]:
        raise ShapeError(f"attention: V shape {v.shape} does not match K {k.shape}")
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: bad Q/K shapes {q.shape} and {k.shape}")
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return matmul(softmax_rows(scores), v)


class EncoderLayerWeights:
    """Weights of one encoder layer.

    Per head: query/key/value projections (d_model, head_dim). The
    concatenated heads go through attn_out (d_model, d_model), a bare matrix.
    The feed-forward block is two affine maps through d_ff; both layer norms
    carry a gain and bias.
    """

    def __init__(self, cfg: EncoderConfig, rng):
        hd = cfg.head_dim
        self.w_q = [Tensor(xavier_uniform(rng, cfg.d_model, hd), requires_grad=True) for _ in range(cfg.num_heads)]
        self.w_k = [Tensor(xavier_uniform(rng, cfg.d_model, hd), requires_grad=True) for _ in range(cfg.num_heads)]
        self.w_v = [Tensor(xavier_uniform(rng, cfg.d_model, hd), requires_grad=True) for _ in range(cfg.num_heads)]
        self.attn_out = Tensor(xavier_uniform(rng, cfg.d_model, cfg.d_model), requires_grad=True)
        self.ff1_w = Tensor(xavier_uniform(rng, cfg.d_model, cfg.d_ff), requires_grad=True)
        self.ff1_b = Tensor(np.zeros(cfg.d_ff), requires_grad=True)
        self.ff2_w = Tensor(xavier_uniform(rng, cfg.d_ff, cfg.d_model), requires_grad=True)
        self.ff2_b = Tensor(np.zeros(cfg.d_model), requires_grad=True)
        self.ln1_gain = Tensor(np.ones(cfg.d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(cfg.d_model), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(cfg.d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(cfg.d_model), requires_grad=True)

    def parameters(self):
        out = []
        for i, (q, k, v) in enumerate(zip(self.w_q, self.w_k, self.w_v)):
            out += [(f"q{i}", q), (f"k{i}", k), (f"v{i}", v)]
        out += [
            ("attn_out", self.attn_out),
            ("ff1_w", self.ff1_w),
            ("ff1_b", self.ff1_b),
            ("ff2_w", self.ff2_w),
            ("ff2_b", self.ff2_b),
            ("ln1_gain", self.ln1_gain),
            ("ln1_bias", self.ln1_bias),
            ("ln2_gain", self.ln2_gain),
            ("ln2_bias", self.ln2_bias),
        ]
        return out


class EncoderWeights:
    """A stack of encoder layers plus the config they were built for."""

    def __init__(self, cfg: EncoderConfig, rng):
        self.cfg = cfg
        self.layers = [EncoderLayerWeights(cfg, rng) for _ in range(cfg.num_layers)]

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out += [(f"layer{i}/{name}", t) for name, t in layer.parameters()]
        return out


def multi_head(s: Tensor, w: EncoderLayerWeights, record=None, sizes=None) -> Tensor:
    """Concatenated per-head attention, then the output projection.

    When record is a list, each head's (n, n) attention matrix is appended
    to it as a plain array; with sizes, record is one such list per scene.
    """
    layout = SetLayout.of(sizes, math.prod(s.shape[:-1]))
    per_scene = None if record is None else (record if sizes is not None else [record])
    heads = [set_attention(matmul(s, wq), matmul(s, wk), matmul(s, wv), layout, per_scene)
             for wq, wk, wv in zip(w.w_q, w.w_k, w.w_v)]
    merged = heads[0] if len(heads) == 1 else concat_last_dim(heads)
    return matmul(merged, w.attn_out)


def feed_forward(s: Tensor, w: EncoderLayerWeights, rate, mode, rng=None) -> Tensor:
    inner = dropout(relu(add(matmul(s, w.ff1_w), w.ff1_b)), rate, mode, rng)
    return add(matmul(inner, w.ff2_w), w.ff2_b)


def encoder_layer(s: Tensor, w: EncoderLayerWeights, rate, mode, rng=None, record=None,
                  sizes=None) -> Tensor:
    """One encoder layer: attention sublayer, then feed-forward sublayer.

    Dropout draws, in order: attention output, feed-forward inner, feed-
    forward output; each site asks rng.random for one mask over all packed
    rows (encode passes a DropoutDraws for a Generator, which keeps the
    one-scene-at-a-time stream order).
    """
    check_mode(mode)
    attended = layer_norm(add(s, dropout(multi_head(s, w, record, sizes), rate, mode, rng)),
                          w.ln1_gain, w.ln1_bias)
    ff = feed_forward(attended, w, rate, mode, rng)
    return layer_norm(add(attended, dropout(ff, rate, mode, rng)), w.ln2_gain, w.ln2_bias)


def dropout_widths(weights: EncoderWeights | None) -> tuple:
    """Width of each dropout mask one actor row draws in a train-mode pass
    of the stack, in draw order (see encoder_layer); empty without dropout."""
    if weights is None or weights.cfg.dropout == 0.0:
        return ()
    cfg = weights.cfg
    return (cfg.d_model, cfg.d_ff, cfg.d_model) * cfg.num_layers


def encode(s: Tensor, weights: EncoderWeights, mode=MODE_INFER, rng=None, record_attention=False,
           sizes=None):
    """Run the full stack. Returns (output, attention).

    attention is None unless record_attention; then it is an AttentionRecord,
    or with sizes a list of them, one per scene. In train mode a Generator rng
    becomes a DropoutDraws over the sets of sizes; any other rng is used as is.
    """
    cfg = weights.cfg
    if s.ndim not in (2, 3) or s.shape[-1] != cfg.d_model:
        raise ShapeError(f"encode: need (n, {cfg.d_model}) input, got {s.shape}")
    layout = SetLayout.of(sizes, math.prod(s.shape[:-1]))
    if mode == MODE_TRAIN and isinstance(rng, np.random.Generator):
        rng = DropoutDraws(rng, layout.sizes.tolist(), dropout_widths(weights))
    recs = [AttentionRecord() for _ in range(layout.count)] if record_attention else None
    for layer in weights.layers:
        per_scene = [[] for _ in range(layout.count)] if record_attention else None
        s = encoder_layer(s, layer, cfg.dropout, mode, rng, per_scene, layout)
        if record_attention:
            for rec, matrices in zip(recs, per_scene):
                rec.matrices.append(matrices)
    if recs is not None and sizes is None:
        return s, recs[0]
    return s, recs
