"""Sinusoidal position codes for actor box centers.

A center (x, y) in the unit square is scaled to pseudo-positions and each
coordinate is expanded with the usual interleaved sin/cos ramp. The x code
fills the first half of the model dimensions, the y code the second half,
and the result is added to the actor's embedding row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor, add


@dataclass(frozen=True)
class BoxCenter:
    """Normalised center of an actor's bounding box, both coords in [0, 1]."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise DataError(f"box center out of [0, 1]: ({self.x}, {self.y})")


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
    """Code for one box center: x ramp in dims [0, d/2), y ramp in [d/2, d)."""
    if d_model <= 0 or d_model % 4 != 0:
        raise ConfigError(f"pe_2d needs d_model divisible by 4, got {d_model}")
    if isinstance(center, BoxCenter):
        x, y = center.x, center.y
    else:
        x, y = float(center[0]), float(center[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DataError(f"box center out of [0, 1]: ({x}, {y})")
    half = d_model // 2
    out = np.empty(d_model)
    out[:half] = pe_1d(x * scale, half)
    out[half:] = pe_1d(y * scale, half)
    return out


def centers_array(centers) -> np.ndarray:
    """Normalise a list of BoxCenter or an (n, 2) array to an (n, 2) float array."""
    if isinstance(centers, np.ndarray):
        arr = np.asarray(centers, dtype=np.float64)
    else:
        seq = list(centers)
        if seq and isinstance(seq[0], BoxCenter):
            arr = np.array([[c.x, c.y] for c in seq], dtype=np.float64)
        else:
            arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError(f"centers must be (n, 2), got {arr.shape}")
    return arr


def pe_table(centers, d_model: int, scale: float = 100.0) -> np.ndarray:
    """pe_2d codes for n centers as an (n, d_model) array, computed in one pass."""
    if d_model <= 0 or d_model % 4 != 0:
        raise ConfigError(f"pe_2d needs d_model divisible by 4, got {d_model}")
    arr = centers_array(centers)
    inside = ((arr >= 0.0) & (arr <= 1.0)).all(axis=1)
    if not inside.all():
        x, y = arr[~inside][0]
        raise DataError(f"box center out of [0, 1]: ({x}, {y})")
    half = d_model // 2
    # Same expression order as pe_1d, so every code is bit-identical to pe_2d's.
    angles = (arr * scale)[:, :, None] / np.power(10000.0, np.arange(0, half, 2) / half)
    out = np.empty((arr.shape[0], 2, half))
    out[:, :, 0::2] = np.sin(angles)
    out[:, :, 1::2] = np.cos(angles)
    return out.reshape(arr.shape[0], d_model)


def apply_pe(s: Tensor, centers, scale: float = 100.0) -> Tensor:
    """Add position codes to an (n, d) tensor of actor embeddings."""
    if s.ndim != 2:
        raise ShapeError(f"apply_pe: need an (n, d) tensor, got {s.shape}")
    arr = centers_array(centers)
    if arr.shape[0] != s.shape[0]:
        raise ShapeError(f"apply_pe: {s.shape[0]} rows but {arr.shape[0]} centers")
    return add(s, Tensor(pe_table(arr, s.shape[1], scale)))
