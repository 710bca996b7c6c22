"""Binary checkpoint files.

Layout, all integers little-endian:

    magic   4 bytes  b"GACK"
    version u32      currently 1
    u32 meta count, then per entry: u32 key length, key utf-8, u32 value
    length, value utf-8
    u32 tensor count, then per tensor: u32 name length, name utf-8, u32 ndim,
    ndim * u64 dims, raw float64 values

Writing the same state twice produces byte-identical files; loading restores
bit-identical arrays. Files are written to a temp path and renamed into
place so a crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write
from .model import (
    BranchConfig,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
)

MAGIC = b"GACK"
VERSION = 1

# BranchConfig field annotation (a string, see model.py's future import)
# -> (encode, decode) of its metadata value
_CODECS = {
    "int": (str, int),
    "float": (repr, float),
    "bool": (lambda v: str(int(v)), lambda text: bool(int(text))),
    "str": (str, str),
}


def write_checkpoint(path, meta: dict, tensors) -> None:
    """tensors is a sequence of (name, ndarray); order is preserved."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    items = list(meta.items())
    parts.append(struct.pack("<I", len(items)))
    for key, value in items:
        kb, vb = str(key).encode(), str(value).encode()
        parts.append(struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb)
    tensors = list(tensors)
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        # asarray keeps 0-d arrays 0-d; ascontiguousarray would promote them
        arr = np.asarray(arr, dtype="<f8", order="C")
        nb = str(name).encode()
        parts.append(struct.pack("<I", len(nb)) + nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, path):
        self.path = path
        try:
            self.buf = Path(path).read_bytes()
        except OSError as exc:
            raise ParseError(path, 0, f"cannot read checkpoint: {exc.strerror}") from None
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise ParseError(self.path, 0, "truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def string(self):
        try:
            return self.take(self.u32()).decode()
        except UnicodeDecodeError:
            raise ParseError(self.path, 0, "checkpoint string is not utf-8") from None


def read_checkpoint(path):
    """Returns (meta dict, list of (name, ndarray))."""
    r = _Reader(path)
    if r.take(4) != MAGIC:
        raise ParseError(path, 0, "not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise ParseError(path, 0, f"unsupported checkpoint version {version}")
    meta = {}
    for _ in range(r.u32()):
        key = r.string()
        if key in meta:
            raise ParseError(path, 0, f"duplicate metadata key {key!r}")
        meta[key] = r.string()
    tensors = []
    for _ in range(r.u32()):
        name = r.string()
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
        count = math.prod(shape)  # Python ints: a forged shape cannot overflow
        arr = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape).copy()
        tensors.append((name, arr))
    if r.pos != len(r.buf):
        raise ParseError(path, 0, "trailing bytes after checkpoint payload")
    return meta, tensors


def _cfg_meta(prefix: str, cfg: BranchConfig) -> dict:
    return {prefix + f.name: _CODECS[f.type][0](getattr(cfg, f.name)) for f in fields(cfg)}


def _cfg_from_meta(prefix: str, meta: dict) -> BranchConfig:
    return BranchConfig(**{f.name: _CODECS[f.type][1](meta[prefix + f.name])
                           for f in fields(BranchConfig)})


def save_model(path, model, *, iteration: int = 0, extra_tensors=()) -> None:
    """Serialise a model plus optional optimizer slots.

    extra_tensors names must not collide with model parameter names; the
    training loop namespaces optimizer slots under 'optim/'.
    """
    meta = {"kind": model.kind, "iteration": str(iteration)}
    if model.kind == "branch":
        meta["branch"] = model.branch
        meta.update(_cfg_meta("cfg.", model.cfg))
    elif model.kind in ("early-sum", "early-concat"):
        meta["branches"] = ",".join(model.branches)
        meta["early_pe"] = model.early_pe
        for b in model.branches:
            meta[f"fdim.{b}"] = str(model.feature_dims[b])
        meta.update(_cfg_meta("cfg.", model.cfg))
    elif model.kind == "late":
        meta["branches"] = ",".join(model.branches)
        for b in model.branches:
            meta[f"late_weight.{b}"] = repr(model.weights[b])
            meta.update(_cfg_meta(f"cfg.{b}.", model.models[b].cfg))
    else:
        raise DataError(f"cannot serialise model kind {model.kind!r}")
    tensors = [(name, t.data) for name, t in model.parameters()]
    write_checkpoint(path, meta, list(tensors) + list(extra_tensors))


def _restore_parameters(model, stored: dict, path):
    for name, t in model.parameters():
        if name not in stored:
            raise ParseError(path, 0, f"checkpoint is missing tensor {name!r}")
        arr = stored[name]
        if arr.shape != t.data.shape:
            raise ParseError(
                path, 0, f"tensor {name!r} has shape {arr.shape}, expected {t.data.shape}"
            )
        t.data[...] = arr


def load_model(path):
    """Returns (model, iteration, extras) with extras = non-parameter tensors."""
    meta, tensors = read_checkpoint(path)
    stored = dict(tensors)
    if len(stored) != len(tensors):
        raise ParseError(path, 0, "duplicate tensor names in checkpoint")
    # ops do not check their outputs, so the stored values are checked here
    if tensors and not np.isfinite(np.concatenate([arr.ravel() for _, arr in tensors])).all():
        bad = next(name for name, arr in tensors if not np.isfinite(arr).all())
        raise ParseError(path, 0, f"tensor {bad!r} holds a non-finite value")
    kind = meta.get("kind")
    # Models built with no rng hold zeros of the right shapes (not a throwaway
    # init draw); every value is overwritten below.
    try:
        if kind == "branch":
            model = BranchModel(meta["branch"], _cfg_from_meta("cfg.", meta), None)
        elif kind in ("early-sum", "early-concat"):
            branches = meta["branches"].split(",")
            fdims = {b: int(meta[f"fdim.{b}"]) for b in branches}
            model = EarlyFusionModel(
                kind.removeprefix("early-"),
                fdims,
                _cfg_from_meta("cfg.", meta),
                None,
                early_pe=meta["early_pe"],
            )
        elif kind == "late":
            branches = meta["branches"].split(",")
            models = {b: BranchModel(b, _cfg_from_meta(f"cfg.{b}.", meta), None) for b in branches}
            weights = {b: float(meta[f"late_weight.{b}"]) for b in branches}
            model = LateFusionModel(models, weights)
        else:
            raise ParseError(path, 0, f"unknown model kind {kind!r}")
        iteration = int(meta.get("iteration", "0"))
    except KeyError as exc:
        raise ParseError(path, 0, f"checkpoint is missing metadata key {exc}") from None
    except (ValueError, ConfigError) as exc:
        raise ParseError(path, 0, f"bad checkpoint metadata: {exc}") from None
    _restore_parameters(model, stored, path)
    param_names = {name for name, _ in model.parameters()}
    extras = {name: arr for name, arr in stored.items() if name not in param_names}
    return model, iteration, extras
