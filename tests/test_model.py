import contextlib
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import ConfigError, DataError, NumericsError, ShapeError
from groupact.model import (
    BranchConfig,
    BranchInput,
    BranchModel,
    BranchWeights,
    EarlyFusionModel,
    LateFusionModel,
    Prediction,
    branch_inputs,
    embed,
    forward_branch,
    predict,
)
from groupact.scenes import SceneConfig, generate
from groupact.seeding import rng_for
from groupact.tensor import MODE_INFER, MODE_TRAIN, Graph, Tensor
from groupact.training import joint_loss

from helpers import check_gradients


def _cfg(**kw):
    base = dict(feature_dim=8, num_actions=3, num_activities=4, d_model=8,
                num_heads=2, num_layers=1, d_ff=16, dropout=0.0, use_pe=False)
    base.update(kw)
    return BranchConfig(**base)


def _scene_input(rng, n=5, f=8, centers=None):
    return BranchInput(rng.standard_normal((n, f)),
                       rng.random((n, 2)) if centers is None else centers)


def test_branch_config_validation():
    with pytest.raises(ConfigError):
        _cfg(num_actions=0)
    with pytest.raises(ConfigError, match="feature_dim must be positive, got 0"):
        _cfg(feature_dim=0)
    with pytest.raises(ConfigError):
        _cfg(pe_stage="mid")
    with pytest.raises(ConfigError):
        # position codes split between axes, so the encoded width must be 4k
        _cfg(use_pe=True, d_model=6, num_heads=2, feature_dim=6)
    for pe_scale in (float("nan"), float("inf"), 0.0, -100.0):
        with pytest.raises(ConfigError, match="pe_scale"):
            _cfg(use_pe=True, pe_scale=pe_scale)
    with pytest.raises(ConfigError):
        _cfg(use_pe=True, pe_stage="pre-embed", feature_dim=6)
    _cfg(use_pe=True, pe_stage="pre-embed", feature_dim=8)


def test_branch_input_validation():
    with pytest.raises(ShapeError):
        BranchInput(np.zeros((3, 4)), np.zeros((2, 2)))
    with pytest.raises(DataError):
        BranchInput(np.zeros((0, 4)), np.zeros((0, 2)))


def test_predict_argmax_and_ties():
    pred = Prediction(Tensor([[0.0, 2.0, 1.0], [3.0, 3.0, 0.0]]), Tensor([0.0, 5.0, 5.0]))
    group, actions = predict(pred)
    assert group == 1
    npt.assert_array_equal(actions, [1, 0])


def test_embed_affine():
    feats = Tensor([[1.0, 0.0], [0.0, 2.0]])
    w = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    npt.assert_array_equal(embed(feats, w, b).data, [[11.0, 22.0], [16.0, 28.0]])


def test_forward_branch_single_actor_shapes():
    cfg = _cfg()
    w = BranchWeights(cfg, np.random.default_rng(0))
    pred = forward_branch(_scene_input(np.random.default_rng(1), n=1), w)
    assert pred.action_logits.shape == (1, 3)
    assert pred.activity_logits.shape == (4,)
    assert pred.attention is None


def test_forward_branch_feature_dim_mismatch():
    w = BranchWeights(_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        forward_branch(_scene_input(np.random.default_rng(1), f=5), w)


def test_forward_branch_permutation_behaviour():
    rng = np.random.default_rng(2)
    w = BranchWeights(_cfg(), rng)
    inp = _scene_input(rng, n=6)
    base = forward_branch(inp, w)
    for _ in range(5):
        perm = rng.permutation(6)
        moved = forward_branch(BranchInput(inp.features[perm], inp.centers[perm]), w)
        # actor outputs travel with their actor, the group output stays put
        npt.assert_allclose(moved.action_logits.data, base.action_logits.data[perm], atol=1e-9)
        npt.assert_allclose(moved.activity_logits.data, base.activity_logits.data, atol=1e-9)


def test_untrained_model_is_chance_level():
    cfg = SceneConfig(rule="key-actor-side", num_actions=9, num_activities=8,
                      n_actors=12, branch_dims={"static": 8}, noise=0.5, seed=3)
    ds = generate(cfg, count=1000)
    model = BranchModel("static", _cfg(num_actions=9, num_activities=8), rng_for(0, "init"))
    hits = 0
    for scene in ds.scenes:
        group, _ = predict(model.forward(branch_inputs(scene)))
        hits += group == scene.activity
    assert abs(hits / 1000 - 1 / 8) <= 0.05


def test_branch_model_requires_its_branch():
    model = BranchModel("flow", _cfg(), np.random.default_rng(4))
    with pytest.raises(DataError):
        model.forward({"static": _scene_input(np.random.default_rng(5))})


def test_early_fusion_validation():
    cfg = _cfg()
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigError):
        EarlyFusionModel("mean", {"a": 8, "b": 8}, cfg, rng)
    with pytest.raises(ConfigError):
        EarlyFusionModel("sum", {"a": 8}, cfg, rng)
    with pytest.raises(ConfigError):
        EarlyFusionModel("sum", {"a": 8, "b": 8}, _cfg(use_pe=True, pe_stage="pre-embed"), rng)
    with pytest.raises(ConfigError):
        EarlyFusionModel("sum", {"a": 8, "b": 8}, cfg, rng, early_pe="late")


def test_early_sum_with_zeroed_branch_matches_single():
    cfg = _cfg(use_pe=True)
    single = BranchModel("a", cfg, rng_for(0, "init"))
    fused = EarlyFusionModel("sum", {"a": 8, "b": 6}, cfg, np.random.default_rng(7))
    fused.embeds["a"][0].data[...] = single.weights.embed_w.data
    fused.embeds["a"][1].data[...] = single.weights.embed_b.data
    fused.embeds["b"][0].data[...] = 0.0
    fused.embeds["b"][1].data[...] = 0.0
    for (_, src), (_, dst) in zip(single.weights.encoder.parameters(),
                                  fused.encoder.parameters()):
        dst.data[...] = src.data
    fused.action_w.data[...] = single.weights.action_w.data
    fused.activity_w.data[...] = single.weights.activity_w.data

    rng = np.random.default_rng(8)
    inp_a = _scene_input(rng, n=5, f=8)
    inp_b = BranchInput(rng.standard_normal((5, 6)), inp_a.centers)
    got = fused.forward({"a": inp_a, "b": inp_b})
    want = single.forward({"a": inp_a})
    npt.assert_array_equal(got.action_logits.data, want.action_logits.data)
    npt.assert_array_equal(got.activity_logits.data, want.activity_logits.data)


def test_early_fusion_rejects_mismatched_actor_counts():
    fused = EarlyFusionModel("sum", {"a": 8, "b": 8}, _cfg(), np.random.default_rng(9))
    rng = np.random.default_rng(10)
    with pytest.raises(DataError, match="^branches 'a' and 'b' hold different box centers$"):
        fused.forward({"a": _scene_input(rng, n=5), "b": _scene_input(rng, n=4)})


def test_early_concat_forward_shapes():
    fused = EarlyFusionModel("concat", {"a": 8, "b": 6}, _cfg(use_pe=True),
                             np.random.default_rng(11), early_pe="per-branch")
    assert fused.kind == "early-concat"
    assert fused.proj.shape == (16, 8)
    rng = np.random.default_rng(12)
    inp_a = _scene_input(rng, n=4, f=8)
    inp_b = BranchInput(rng.standard_normal((4, 6)), inp_a.centers)
    pred = fused.forward({"a": inp_a, "b": inp_b})
    assert pred.action_logits.shape == (4, 3)
    assert pred.activity_logits.shape == (4,)


def test_late_fusion_validation():
    cfg = _cfg()
    make = lambda b, seed: BranchModel(b, cfg, np.random.default_rng(seed))
    with pytest.raises(ConfigError):
        LateFusionModel({"a": make("a", 0)})
    with pytest.raises(ConfigError):
        LateFusionModel({"a": make("a", 0), "b": make("b", 1)}, {"a": 1.0})
    with pytest.raises(ConfigError):
        LateFusionModel({"a": make("a", 0), "b": make("b", 1)}, {"a": 1.0, "b": 0.0})
    with pytest.raises(ConfigError):
        LateFusionModel({
            "a": make("a", 0),
            "b": BranchModel("b", _cfg(num_activities=5), np.random.default_rng(1)),
        }, {"a": 1.0, "b": 1.0})


def test_late_fusion_identical_branches_match_single():
    cfg = _cfg()
    a = BranchModel("a", cfg, rng_for(0, "init"))
    b = BranchModel("b", cfg, np.random.default_rng(13))
    for (_, src), (_, dst) in zip(a.parameters(), b.parameters()):
        dst.data[...] = src.data
    late = LateFusionModel({"a": a, "b": b}, {"a": 1.0, "b": 1.0})

    rng = np.random.default_rng(14)
    inp = _scene_input(rng, n=5)
    pred = late.forward({"a": inp, "b": inp})
    single = a.forward({"a": inp})

    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    npt.assert_allclose(pred.action_logits.data, softmax(single.action_logits.data), atol=1e-12)
    npt.assert_allclose(pred.activity_logits.data, softmax(single.activity_logits.data), atol=1e-12)


def test_late_fusion_two_to_one_mixture():
    cfg = _cfg()
    a = BranchModel("a", cfg, np.random.default_rng(15))
    b = BranchModel("b", cfg, np.random.default_rng(16))
    late = LateFusionModel({"a": a, "b": b}, {"a": 2.0, "b": 1.0})
    assert late.weights == {"a": 2 / 3, "b": 1 / 3}

    rng = np.random.default_rng(17)
    inp = _scene_input(rng, n=4)
    inputs = {"a": inp, "b": _scene_input(rng, n=4, centers=inp.centers)}
    mixed = late.forward(inputs)

    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    pa = softmax(a.forward(inputs).action_logits.data)
    pb = softmax(b.forward(inputs).action_logits.data)
    npt.assert_allclose(mixed.action_logits.data, (2 * pa + pb) / 3, atol=1e-12)
    ga = softmax(a.forward(inputs).activity_logits.data)
    gb = softmax(b.forward(inputs).activity_logits.data)
    npt.assert_allclose(mixed.activity_logits.data, (2 * ga + gb) / 3, atol=1e-12)


def test_late_fusion_outputs_are_distributions():
    cfg = _cfg()
    late = LateFusionModel(
        {"a": BranchModel("a", cfg, np.random.default_rng(18)),
         "b": BranchModel("b", cfg, np.random.default_rng(19))},
        {"a": 3.0, "b": 2.0},
    )
    rng = np.random.default_rng(20)
    inp = _scene_input(rng, n=6)
    pred = late.forward({"a": inp, "b": _scene_input(rng, n=6, centers=inp.centers)})
    assert (pred.action_logits.data >= 0).all()
    npt.assert_allclose(pred.action_logits.data.sum(axis=1), np.ones(6), atol=1e-12)
    npt.assert_allclose(pred.activity_logits.data.sum(), 1.0, atol=1e-12)


def test_branch_inputs_view():
    cfg = SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4, n_actors=(3, 6),
                      branch_dims={"static": 8, "flow": 4}, seed=21)
    ds = generate(cfg, count=3)
    for scene in ds.scenes:
        inputs = branch_inputs(scene)
        assert sorted(inputs) == ["flow", "static"]
        assert inputs["static"].features.shape == (scene.n_actors, 8)
        npt.assert_array_equal(inputs["flow"].centers, scene.centers)


def test_single_branch_joint_loss_gradcheck():
    cfg = _cfg()
    model = BranchModel("a", cfg, np.random.default_rng(22))
    inp = _scene_input(np.random.default_rng(23), n=3)

    def loss():
        pred = model.forward({"a": inp}, MODE_TRAIN)
        return joint_loss(pred, 2, [0, 1, 2])

    check_gradients(loss, model.parameters())


def _model_of(kind):
    """A model of kind 'branch', 'early-concat' or 'late' over branches a and b."""
    rng = rng_for(21, "init")
    if kind == "branch":
        return BranchModel("a", _cfg(), rng)
    if kind == "early-concat":
        return EarlyFusionModel("concat", {"a": 8, "b": 8}, _cfg(), rng)
    return LateFusionModel({b: BranchModel(b, _cfg(), rng) for b in ("a", "b")},
                           {"a": 1.0, "b": 1.0})


@pytest.mark.parametrize("kind", ["branch", "early-concat", "late"])
def test_forward_with_a_nan_weight_raises_numerics_error(kind):
    model = _model_of(kind)
    inp = _scene_input(np.random.default_rng(22))
    model.forward({"a": inp, "b": inp})  # finite weights run
    _, t = model.parameters()[0]
    t.data.reshape(-1)[0] = np.nan
    with pytest.raises(NumericsError):
        model.forward({"a": inp, "b": inp})


@pytest.mark.parametrize("kind", ["branch", "early-concat", "late"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_raise_numerics_error(kind, bad):
    # untaped passes check nothing inside, so the features are checked where a pass starts
    model = _model_of(kind)
    rng = np.random.default_rng(23)
    good = _scene_input(rng)
    poisoned = _scene_input(rng, centers=good.centers)
    poisoned.features[3, 1] = bad
    scene = {"a": poisoned, "b": good}
    batch = [SimpleNamespace(features={"a": good.features, "b": good.features},
                             centers=good.centers),
             SimpleNamespace(features={"a": poisoned.features, "b": good.features},
                             centers=good.centers)]
    for mode, graph in ((MODE_INFER, contextlib.nullcontext()), (MODE_TRAIN, Graph(MODE_TRAIN))):
        with graph:
            with pytest.raises(NumericsError, match="features"):
                model.forward(scene, mode)
            with pytest.raises(NumericsError, match="features"):
                model.forward_batch(batch, mode)
