"""Shared test utilities: finite-difference gradient checking and
independent straight-line reimplementations used as oracles.

The oracles deliberately avoid the package's tensor machinery; they are
plain numpy so an error in the tape cannot hide in both routes.
"""

from __future__ import annotations

import math

import numpy as np

from groupact.errors import ConfigError, DataError
from groupact.tensor import MODE_TRAIN, Graph

FD_STEP = 1e-5
FD_TOL = 1e-4
FD_FLOOR = 1e-8


def numeric_gradient(f, arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. arr, edited in place."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = FD_FLOOR) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def check_gradients(build_loss, params, step: float = FD_STEP, tol: float = FD_TOL) -> float:
    """Backward-pass gradients vs finite differences for every parameter.

    build_loss must rebuild the whole forward pass from the current
    parameter values on each call. Returns the worst relative error seen;
    asserts it is within tol.
    """
    params = list(params)
    for _, t in params:
        t.zero_grad()
    with Graph(MODE_TRAIN):
        loss = build_loss()
        loss.backward()
    analytic = {name: t.grad.copy() for name, t in params}

    def forward() -> float:
        return build_loss().item()

    worst = 0.0
    for name, t in params:
        numeric = numeric_gradient(forward, t.data, step)
        err = float(rel_err(analytic[name], numeric).max())
        assert err <= tol, f"gradient mismatch for {name}: rel err {err:.3e}"
        worst = max(worst, err)
    return worst


def oracle_softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_layer_norm(x, gain, bias, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def oracle_multi_head(s: np.ndarray, w) -> np.ndarray:
    """Brute-force per-head attention on raw arrays; w is EncoderLayerWeights."""
    heads = []
    for wq, wk, wv in zip(w.w_q, w.w_k, w.w_v):
        q, k, v = s @ wq.data, s @ wk.data, s @ wv.data
        scores = q @ k.T / math.sqrt(q.shape[1])
        heads.append(oracle_softmax(scores) @ v)
    return np.concatenate(heads, axis=1) @ w.attn_out.data


def oracle_encoder_layer(s: np.ndarray, w) -> np.ndarray:
    """Inference-mode encoder layer as one straight-line computation."""
    e_hat = oracle_layer_norm(s + oracle_multi_head(s, w), w.ln1_gain.data, w.ln1_bias.data)
    inner = np.maximum(e_hat @ w.ff1_w.data + w.ff1_b.data, 0.0)
    ff = inner @ w.ff2_w.data + w.ff2_b.data
    return oracle_layer_norm(e_hat + ff, w.ln2_gain.data, w.ln2_bias.data)


def oracle_key_actor_predict(scene, prototypes: dict, num_base: int):
    """Nearest-prototype decision rule for key-actor-side scenes.

    Classifies every actor by nearest prototype over the concatenated
    branches, takes the actor closest to any key prototype as the key, and
    reads the side off that actor's x coordinate.
    """
    names = sorted(scene.features)
    feats = np.concatenate([scene.features[b] for b in names], axis=1)
    protos = np.concatenate([prototypes[b] for b in names], axis=1)
    dists = ((feats[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    actions = dists.argmin(axis=1)
    key = dists[:, :num_base].min(axis=1).argmin()
    base = int(dists[key, :num_base].argmin())
    side = 1 if scene.centers[key, 0] > 0.5 else 0
    return base * 2 + side, actions


def pe_1d(pos: float, dim: int) -> np.ndarray:
    """Interleaved sin/cos code of one scalar position.

    Slot 2i holds sin(pos / 10000^(2i/dim)), slot 2i+1 the matching cos.
    dim must be even.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ConfigError(f"pe_1d needs a positive even dim, got {dim}")
    exponents = np.arange(0, dim, 2) / dim
    angles = pos / np.power(10000.0, exponents)
    out = np.empty(dim)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)
    return out


def pe_2d(center, d_model: int, scale: float = 100.0) -> np.ndarray:
    """Code for one box center: x ramp in dims [0, d/2), y ramp in [d/2, d).

    The one-center oracle for posenc.pe_table.
    """
    if d_model <= 0 or d_model % 4 != 0:
        raise ConfigError(f"pe_2d needs d_model divisible by 4, got {d_model}")
    x, y = float(center[0]), float(center[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DataError(f"box center out of [0, 1]: ({x}, {y})")
    half = d_model // 2
    out = np.empty(d_model)
    out[:half] = pe_1d(x * scale, half)
    out[half:] = pe_1d(y * scale, half)
    return out
