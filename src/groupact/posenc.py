"""Sinusoidal position codes for actor box centers.

A center (x, y) in the unit square is scaled to pseudo-positions and each
coordinate is expanded with the usual interleaved sin/cos ramp: slot 2i of a
half holds sin(pos / 10000^(2i/half)), slot 2i+1 the matching cos. The x code
fills the first half of the model dimensions, the y code the second half,
and the result is added to the actor's embedding row. Centers are checked
where a scene enters a model (model.pack_inputs), not here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, add


@lru_cache(maxsize=64)
def _ramp(half: int) -> np.ndarray:  # read-only: every table of this width shares it
    ramp = np.power(10000.0, np.arange(0, half, 2) / half)
    ramp.flags.writeable = False
    return ramp


def pe_table(centers: np.ndarray, d_model: int, scale: float = 100.0) -> np.ndarray:
    """Codes of an (n, 2) array of centers as an (n, d_model) array."""
    if d_model <= 0 or d_model % 4 != 0:
        raise ConfigError(f"position codes need d_model divisible by 4, got {d_model}")
    half = d_model // 2
    angles = (centers * scale)[:, :, None] / _ramp(half)
    out = np.empty((centers.shape[0], 2, half))
    out[:, :, 0::2] = np.sin(angles)
    out[:, :, 1::2] = np.cos(angles)
    return out.reshape(centers.shape[0], d_model)


def apply_pe(s: Tensor, centers: np.ndarray, scale: float = 100.0, codes=None) -> Tensor:
    """Add position codes to an (n, d) tensor of actor embeddings. Calls that
    pass one codes dict share one table per centers array, width and scale."""
    if s.ndim != 2 or centers.shape != (s.shape[0], 2):
        raise ShapeError(f"apply_pe: need an (n, d) tensor and (n, 2) centers, "
                         f"got {s.shape} and {centers.shape}")
    codes = {} if codes is None else codes
    key = (id(centers), s.shape[1], scale)
    if key not in codes:  # the entry holds centers, so no other array takes its id
        codes[key] = (centers, pe_table(centers, s.shape[1], scale))
    return add(s, codes[key][1])
