import math

import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, DataError, ShapeError
from groupact.posenc import apply_pe, pe_table
from groupact.tensor import MODE_INFER, Tensor
from groupact.transformer import EncoderConfig, EncoderWeights, encode

from helpers import pe_1d, pe_2d


def test_pe_1d_at_zero():
    npt.assert_array_equal(pe_1d(0.0, 6), [0, 1, 0, 1, 0, 1])


def test_pe_1d_dim_two_and_pair_norms():
    for p in (0.3, 2.0, 57.0):
        npt.assert_allclose(pe_1d(p, 2), [math.sin(p), math.cos(p)], atol=1e-12)
        v = pe_1d(p, 8)
        pair_norms = v[0::2] ** 2 + v[1::2] ** 2
        npt.assert_allclose(pair_norms, np.ones(4), atol=1e-12)


def test_pe_1d_derived_dim_four():
    # second pair frequency is 1/10000^(2/4) = 1/100
    npt.assert_allclose(
        pe_1d(1.0, 4),
        [math.sin(1), math.cos(1), math.sin(0.01), math.cos(0.01)],
        atol=1e-12,
    )


def test_pe_1d_bounds_and_errors():
    assert np.abs(pe_1d(123.456, 32)).max() <= 1.0
    for dim in (0, 3, -2):
        with pytest.raises(ConfigError):
            pe_1d(1.0, dim)


def test_pe_2d_origin():
    out = pe_2d((0.0, 0.0), 8)
    npt.assert_array_equal(out, [0, 1, 0, 1, 0, 1, 0, 1])


def test_pe_2d_halves_split_x_and_y():
    a = pe_2d((0.3, 0.2), 16)
    b = pe_2d((0.3, 0.9), 16)
    npt.assert_array_equal(a[:8], b[:8])
    assert np.abs(a[8:] - b[8:]).max() > 1e-3


def test_pe_2d_derived_concatenation():
    out = pe_2d((0.5, 0.25), 8, scale=100.0)
    npt.assert_allclose(out, np.concatenate([pe_1d(50.0, 4), pe_1d(25.0, 4)]), atol=1e-12)


def test_pe_2d_validation():
    with pytest.raises(ConfigError):
        pe_2d((0.5, 0.5), 6)
    with pytest.raises(DataError):
        pe_2d((1.5, 0.0), 8)


def test_pe_table_needs_d_model_divisible_by_four():
    with pytest.raises(ConfigError) as info:
        pe_table(np.zeros((2, 2)), 6)
    assert str(info.value) == "position codes need d_model divisible by 4, got 6"


def test_pe_2d_injective_on_grid():
    # 20x20 grid of distinct centers at the reference width must stay distinct
    grid = [(x / 19.0, y / 19.0) for x in range(20) for y in range(20)]
    codes = pe_table(np.array(grid), 128, scale=100.0)
    assert len({tuple(row) for row in codes}) == len(grid)


def test_apply_pe_on_zeros():
    centers = np.array([(0.1, 0.2), (0.8, 0.9)])
    out = apply_pe(Tensor(np.zeros((2, 8))), centers)
    npt.assert_allclose(out.data, pe_table(centers, 8), atol=1e-15)


def test_apply_pe_count_mismatch():
    with pytest.raises(ShapeError):
        apply_pe(Tensor(np.zeros((3, 8))), np.array([(0.1, 0.2)]))


def _encoded(x, weights, centers=None):
    s = Tensor(x)
    if centers is not None:
        s = apply_pe(s, centers)
    out, _ = encode(s, weights, MODE_INFER)
    return out.data


def test_pe_breaks_permutation_equivariance():
    rng = np.random.default_rng(0)
    weights = EncoderWeights(EncoderConfig(d_model=8, d_ff=16, dropout=0.0), rng)
    x = rng.standard_normal((4, 8))
    centers = rng.uniform(0.05, 0.95, size=(4, 2))
    base = _encoded(x, weights, centers)
    perm = np.array([2, 0, 3, 1])
    # permuting features but not centers must change the outcome
    moved = _encoded(x[perm], weights, centers)
    assert np.abs(moved - base[perm]).max() > 1e-6


def test_swapping_two_centers_changes_encoding():
    rng = np.random.default_rng(1)
    weights = EncoderWeights(EncoderConfig(d_model=8, d_ff=16, dropout=0.0), rng)
    x = rng.standard_normal((4, 8))
    centers = rng.uniform(0.05, 0.95, size=(4, 2))
    swapped = centers.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert np.abs(_encoded(x, weights, swapped) - _encoded(x, weights, centers)).max() > 1e-6


def test_equal_centers_keep_encoder_equivariance():
    rng = np.random.default_rng(2)
    weights = EncoderWeights(EncoderConfig(d_model=8, d_ff=16, dropout=0.0), rng)
    x = rng.standard_normal((5, 8))
    centers = np.full((5, 2), 0.4)
    base = _encoded(x, weights, centers)
    perm = rng.permutation(5)
    npt.assert_allclose(_encoded(x[perm], weights, centers), base[perm], atol=1e-9)


def test_pe_table_is_bit_identical_to_stacked_pe_2d():
    centers = np.random.default_rng(3).random((50, 2))
    centers[0] = (0.0, 1.0)
    for d in (8, 16, 32, 64):
        want = np.stack([pe_2d(c, d, scale=37.5) for c in centers])
        assert np.array_equal(pe_table(centers, d, scale=37.5), want)
