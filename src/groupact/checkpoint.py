"""Binary checkpoint files: fileio's container with magic b"GACK", version 1.

Metadata holds the model kind, the iteration and each BranchConfig; records
hold the parameters, then any optimizer slots, as named float64 tensors.
Writing the same state twice produces byte-identical files; loading restores
bit-identical arrays. Files are written to a temp path and renamed into
place so a crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import meta_decode, meta_encode, read_container, write_container
from .model import (
    BranchConfig,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
)

MAGIC = b"GACK"
VERSION = 1


def write_checkpoint(path, meta: dict, tensors) -> None:
    """tensors is a sequence of (name, ndarray); order is preserved."""
    records = [(name, np.shape(arr), (arr,)) for name, arr in tensors]
    # one buffer as large as the tensors: they are all in memory anyway, and
    # a system call per tensor costs more than copying them into it
    size = 8 * sum(math.prod(shape) for _, shape, _ in records)
    write_container(path, MAGIC, VERSION, meta, records, buffer_bytes=max(size, 1))


def read_checkpoint(path):
    """Returns (meta dict, list of (name, ndarray))."""
    return read_container(path, MAGIC, VERSION, "checkpoint")


# BranchConfig's field annotations are strings (see model.py's future import),
# the type names of fileio.META_CODECS
def _cfg_meta(prefix: str, cfg: BranchConfig) -> dict:
    return {prefix + f.name: meta_encode(f.type, getattr(cfg, f.name)) for f in fields(cfg)}


def _cfg_from_meta(prefix: str, meta: dict) -> BranchConfig:
    return BranchConfig(**{f.name: meta_decode(f.type, meta[prefix + f.name])
                           for f in fields(BranchConfig)})


def _meta(model, iteration: int) -> dict:
    meta = {"kind": model.kind, "iteration": meta_encode("int", iteration)}
    if model.kind == "branch":
        meta["branch"] = model.branch
        meta.update(_cfg_meta("cfg.", model.cfg))
    elif model.kind in ("early-sum", "early-concat"):
        meta["branches"] = ",".join(model.branches)
        meta["early_pe"] = model.early_pe
        for b in model.branches:
            meta[f"fdim.{b}"] = meta_encode("int", model.feature_dims[b])
        meta.update(_cfg_meta("cfg.", model.cfg))
    elif model.kind == "late":
        meta["branches"] = ",".join(model.branches)
        for b in model.branches:
            meta[f"late_weight.{b}"] = meta_encode("float", model.weights[b])
            meta.update(_cfg_meta(f"cfg.{b}.", model.models[b].cfg))
    else:
        raise DataError(f"cannot serialise model kind {model.kind!r}")
    return meta


def save_model(path, model, *, iteration: int = 0, extra_tensors=()) -> None:
    """Serialise a model plus optional optimizer slots.

    extra_tensors names must not collide with model parameter names or with
    each other (the training loop namespaces optimizer slots under
    'optim/'); a name used twice, or a negative iteration, raises DataError
    before anything is written, since load_model refuses such a file.
    """
    if iteration < 0:
        raise DataError(f"iteration must be >= 0, got {iteration}")
    meta = _meta(model, iteration)
    tensors = [(name, t.data) for name, t in model.parameters()] + list(extra_tensors)
    seen = set()
    for name, _ in tensors:
        if name in seen:
            raise DataError(f"tensor name {name!r} is used twice")
        seen.add(name)
    write_checkpoint(path, meta, tensors)


def _restore_parameters(params, stored: dict, path):
    """Bind each (name, tensor)'s .data to the array read for it: no copy."""
    for name, t in params:
        if name not in stored:
            raise ParseError(path, 0, f"checkpoint is missing tensor {name!r}")
        arr = stored[name]
        if arr.shape != t.data.shape:
            raise ParseError(
                path, 0, f"tensor {name!r} has shape {arr.shape}, expected {t.data.shape}"
            )
        t.data = arr


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
    # init draw); every weight is then bound to its stored array. A late
    # model's members are restored before the wrap, which copies them once.
    try:
        if kind == "branch":
            model = BranchModel(meta["branch"], _cfg_from_meta("cfg.", meta), None)
        elif kind in ("early-sum", "early-concat"):
            branches = meta["branches"].split(",")
            fdims = {b: meta_decode("int", meta[f"fdim.{b}"]) for b in branches}
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
            for b, m in models.items():
                _restore_parameters([(f"branch/{b}/{name}", t) for name, t in m.parameters()],
                                    stored, path)
            weights = {b: meta_decode("float", meta[f"late_weight.{b}"]) for b in branches}
            model = LateFusionModel(models, weights)
        else:
            raise ParseError(path, 0, f"unknown model kind {kind!r}")
        iteration = meta_decode("int", meta["iteration"])
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
    except KeyError as exc:
        raise ParseError(path, 0, f"checkpoint is missing metadata key {exc}") from None
    except (ValueError, ConfigError) as exc:
        raise ParseError(path, 0, f"bad checkpoint metadata: {exc}") from None
    written = _meta(model, iteration)  # a missing key failed above, an unknown one fails here
    unknown = [key for key in meta if key not in written]
    if unknown:
        raise ParseError(path, 0, f"checkpoint has unknown metadata key {unknown[0]!r}")
    if kind != "late":
        _restore_parameters(model.parameters(), stored, path)
    param_names = {name for name, _ in model.parameters()}
    extras = {name: arr for name, arr in stored.items() if name not in param_names}
    return model, iteration, extras
