from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, ShapeError
from groupact.model import BranchConfig, BranchModel, LateFusionModel
from groupact.tensor import MODE_INFER, MODE_TRAIN, Tensor, mul, sum_all
from groupact.transformer import (
    AttentionRecord,
    EncoderConfig,
    EncoderLayerWeights,
    EncoderWeights,
    attention,
    encode,
    encoder_layer,
    multi_head,
)

from helpers import check_gradients, oracle_encoder_layer, oracle_multi_head

# frozen from scalar evaluation of softmax([1/sqrt(2), 0]) and its complement
ATTN_2X2_W = 0.6697615493266569


def _rng(seed=0):
    return np.random.default_rng(seed)


def _layer(cfg, seed=0):
    return EncoderLayerWeights(cfg, _rng(seed))


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(d_model=6, num_heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(d_model=8, num_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(d_model=8, dropout=1.0)
    with pytest.raises(ConfigError, match="d_model and num_heads must be positive"):
        EncoderConfig(d_model=0)
    with pytest.raises(ConfigError, match="d_ff must be positive"):
        EncoderConfig(d_model=8, d_ff=0)
    assert EncoderConfig(d_model=8, num_heads=2).head_dim == 4


def test_attention_single_key_returns_value_row():
    rng = _rng(1)
    q = Tensor(rng.standard_normal((3, 4)))
    k = Tensor(rng.standard_normal((1, 4)))
    v = Tensor(rng.standard_normal((1, 5)))
    out = attention(q, k, v)
    npt.assert_allclose(out.data, np.repeat(v.data, 3, axis=0), atol=1e-12)


def test_attention_identical_keys_average_values():
    rng = _rng(2)
    q = Tensor(rng.standard_normal((2, 4)))
    k = Tensor(np.tile(rng.standard_normal(4), (5, 1)))
    v = Tensor(rng.standard_normal((5, 3)))
    out = attention(q, k, v)
    npt.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_worked_two_by_two():
    eye = Tensor(np.eye(2))
    out = attention(eye, eye, eye)
    expected = [[ATTN_2X2_W, 1 - ATTN_2X2_W], [1 - ATTN_2X2_W, ATTN_2X2_W]]
    npt.assert_allclose(out.data, expected, atol=1e-4)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.ones((2, 2))))


def test_multi_head_identity_reduces_to_attention():
    cfg = EncoderConfig(d_model=4, num_heads=1, d_ff=8)
    w = _layer(cfg)
    eye = np.eye(4)
    w.w_q[0].data[...] = eye
    w.w_k[0].data[...] = eye
    w.w_v[0].data[...] = eye
    w.attn_out.data[...] = eye
    rng = _rng(3)
    s = Tensor(rng.standard_normal((5, 4)))
    direct = attention(s, s, s)
    npt.assert_array_equal(multi_head(s, w).data, direct.data)


def test_multi_head_permutation_equivariance():
    cfg = EncoderConfig(d_model=8, num_heads=2, d_ff=16)
    w = _layer(cfg, 4)
    rng = _rng(5)
    s = rng.standard_normal((6, 8))
    base = multi_head(Tensor(s), w).data
    perm = rng.permutation(6)
    npt.assert_allclose(multi_head(Tensor(s[perm]), w).data, base[perm], atol=1e-12)


def test_multi_head_matches_brute_force_oracle():
    cfg = EncoderConfig(d_model=4, num_heads=2, d_ff=8)
    w = _layer(cfg, 6)
    s = _rng(7).standard_normal((5, 4))
    npt.assert_allclose(multi_head(Tensor(s), w).data, oracle_multi_head(s, w), atol=1e-12)


def test_multi_head_records_per_head_weights():
    cfg = EncoderConfig(d_model=8, num_heads=4, d_ff=8)
    w = _layer(cfg, 8)
    record = []
    multi_head(Tensor(_rng(9).standard_normal((3, 8))), w, record)
    assert len(record) == 4
    for matrix in record:
        assert matrix.shape == (3, 3)
        npt.assert_allclose(matrix.sum(axis=1), np.ones(3), atol=1e-9)
        assert (matrix >= 0).all()


def test_encoder_layer_output_is_layer_normed():
    cfg = EncoderConfig(d_model=8, d_ff=16)
    w = _layer(cfg, 10)
    out = encoder_layer(Tensor(_rng(11).standard_normal((4, 8))), w, 0.0, MODE_INFER)
    assert np.abs(out.data.mean(axis=1)).max() <= 1e-9


def test_encoder_layer_single_actor():
    cfg = EncoderConfig(d_model=8, d_ff=16)
    w = _layer(cfg, 12)
    record = []
    out = encoder_layer(Tensor(_rng(13).standard_normal((1, 8))), w, 0.0, MODE_INFER, record=record)
    assert out.shape == (1, 8)
    npt.assert_array_equal(record[0], [[1.0]])


def test_encoder_layer_matches_straight_line_oracle():
    for seed in range(3):
        cfg = EncoderConfig(d_model=8, num_heads=2, d_ff=12)
        w = _layer(cfg, 20 + seed)
        s = _rng(30 + seed).standard_normal((5, 8))
        out = encoder_layer(Tensor(s), w, 0.1, MODE_INFER)
        npt.assert_allclose(out.data, oracle_encoder_layer(s, w), atol=1e-10)


def test_encoder_layer_gradcheck():
    cfg = EncoderConfig(d_model=8, num_heads=2, d_ff=12)
    w = _layer(cfg, 14)
    s = Tensor(_rng(15).standard_normal((3, 8)), requires_grad=True)
    # weight the output sum so no gradient cancels to zero by symmetry
    probe = Tensor(_rng(16).standard_normal((3, 8)))
    params = [("s", s)] + w.parameters()
    check_gradients(lambda: sum_all(mul(encoder_layer(s, w, 0.0, MODE_TRAIN), probe)), params)


def test_encode_one_layer_equals_encoder_layer():
    cfg = EncoderConfig(d_model=8, d_ff=16, dropout=0.0)
    weights = EncoderWeights(cfg, _rng(16))
    s = _rng(17).standard_normal((4, 8))
    via_stack, rec = encode(Tensor(s), weights, MODE_INFER)
    direct = encoder_layer(Tensor(s), weights.layers[0], 0.0, MODE_INFER)
    npt.assert_array_equal(via_stack.data, direct.data)
    assert rec is None


def test_encode_two_layers_compose():
    cfg = EncoderConfig(d_model=8, d_ff=16, num_layers=2, dropout=0.0)
    weights = EncoderWeights(cfg, _rng(18))
    s = _rng(19).standard_normal((4, 8))
    stacked, _ = encode(Tensor(s), weights, MODE_INFER)
    manual = encoder_layer(
        encoder_layer(Tensor(s), weights.layers[0], 0.0, MODE_INFER),
        weights.layers[1],
        0.0,
        MODE_INFER,
    )
    npt.assert_array_equal(stacked.data, manual.data)


def test_encode_attention_record_shape_and_rows():
    cfg = EncoderConfig(d_model=8, num_heads=2, num_layers=3, d_ff=16, dropout=0.0)
    weights = EncoderWeights(cfg, _rng(20))
    out, rec = encode(Tensor(_rng(21).standard_normal((5, 8))), weights, MODE_INFER,
                      record_attention=True)
    assert isinstance(rec, AttentionRecord)
    assert len(rec.matrices) == 3 and all(len(layer) == 2 for layer in rec.matrices)
    for layer in rec.matrices:
        for matrix in layer:
            npt.assert_allclose(matrix.sum(axis=1), np.ones(5), atol=1e-9)
    assert out.shape == (5, 8)


def test_encode_permutation_equivariance_without_pe():
    rng = _rng(22)
    cfg = EncoderConfig(d_model=8, num_heads=2, num_layers=2, d_ff=16, dropout=0.0)
    weights = EncoderWeights(cfg, rng)
    s = rng.standard_normal((6, 8))
    base, _ = encode(Tensor(s), weights, MODE_INFER)
    for _ in range(5):
        perm = rng.permutation(6)
        moved, _ = encode(Tensor(s[perm]), weights, MODE_INFER)
        npt.assert_allclose(moved.data, base.data[perm], atol=1e-9)


def test_encode_validates_width():
    cfg = EncoderConfig(d_model=8, d_ff=16)
    weights = EncoderWeights(cfg, _rng(23))
    with pytest.raises(ShapeError):
        encode(Tensor(np.zeros((3, 4))), weights, MODE_INFER)


def test_train_mode_dropout_needs_rng_and_differs():
    cfg = EncoderConfig(d_model=8, d_ff=16, dropout=0.5)
    weights = EncoderWeights(cfg, _rng(24))
    s = _rng(25).standard_normal((4, 8))
    inference, _ = encode(Tensor(s), weights, MODE_INFER)
    dropped, _ = encode(Tensor(s), weights, MODE_TRAIN, rng=_rng(26))
    assert np.abs(inference.data - dropped.data).max() > 1e-6


def test_encode_draws_a_generators_masks_set_by_set():
    """encode wraps a Generator as a DropoutDraws: one scene keeps the bare
    stream's site-by-site masks, and a grouped pass draws each member's masks
    after the previous member's, scene by scene, as the members' own passes
    do. Either way the Generator ends where those draws leave it."""
    cfg = BranchConfig(feature_dim=4, num_actions=2, num_activities=2, d_model=8, num_heads=2,
                       num_layers=2, d_ff=16, dropout=0.3)
    late = LateFusionModel({b: BranchModel(b, cfg, _rng(27 + g)) for g, b in enumerate("ab")},
                           {"a": 1.0, "b": 1.0})
    members = [late.models[b].weights for b in late.branches]
    grouped = late._grouped.encoder  # the members' encoder weights as (2, ...) views
    sizes = (3, 1, 5)
    s = _rng(29).standard_normal((2, sum(sizes), 8))

    gen, ref = _rng(30), _rng(30)
    got, _ = encode(s[0], members[0].encoder, MODE_TRAIN, gen)
    want, _ = encode(s[0], members[0].encoder, MODE_TRAIN, SimpleNamespace(random=ref.random))
    assert got.tobytes() == want.tobytes()
    assert gen.bit_generator.state == ref.bit_generator.state

    gen, ref = _rng(31), _rng(31)
    got, _ = encode(s, grouped, MODE_TRAIN, gen, sizes=sizes * 2)
    want = [encode(x, m.encoder, MODE_TRAIN, ref, sizes=sizes)[0] for x, m in zip(s, members)]
    assert got.tobytes() == np.stack(want).tobytes()
    assert gen.bit_generator.state == ref.bit_generator.state
    inference, _ = encode(s, grouped, MODE_INFER, sizes=sizes * 2)
    assert np.abs(inference - got).max() > 1e-6
