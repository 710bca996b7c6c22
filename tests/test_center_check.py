"""Box centers are checked once, where a scene enters a model.

Every model kind runs forward and forward_batch through pack_inputs, which
rejects a center outside [0, 1] or a NaN with a DataError naming the first
branch the model reads, whether position codes are on or off. forward takes
one scene as a {branch: BranchInput} mapping, whose branches must hold one
set of centers.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from groupact.errors import DataError, ShapeError
from groupact.model import BranchConfig, BranchInput, BranchModel, EarlyFusionModel, LateFusionModel
from groupact.seeding import rng_for

KINDS = ["branch", "early-sum", "early-concat", "late"]


def _model(kind, use_pe):
    cfg = BranchConfig(feature_dim=8, num_actions=3, num_activities=4, d_model=8,
                       d_ff=16, dropout=0.0, use_pe=use_pe)
    rng = rng_for(0, "init")
    if kind == "branch":
        return BranchModel("a", cfg, rng)
    if kind == "late":
        return LateFusionModel({b: BranchModel(b, cfg, rng) for b in ("a", "b")},
                               {"a": 1.0, "b": 1.0})
    return EarlyFusionModel(kind[len("early-"):], {"a": 8, "b": 8}, cfg, rng)


def _scene(rng, n=5, centers=None):
    return SimpleNamespace(features={b: rng.standard_normal((n, 8)) for b in ("a", "b")},
                           centers=rng.random((n, 2)) if centers is None else centers)


def _inputs(scene, centers=None):
    return {b: BranchInput(f, scene.centers if centers is None else centers[b])
            for b, f in scene.features.items()}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
@pytest.mark.parametrize("use_pe", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_bad_center_is_rejected_at_model_entry(kind, use_pe, bad):
    rng = np.random.default_rng(0)
    good = _scene(rng)
    model = _model(kind, use_pe)
    model.forward_batch([good, good])  # in-range centers run
    centers = good.centers.copy()
    centers[3, 1] = bad
    scene = SimpleNamespace(features=good.features, centers=centers)
    message = "^" + re.escape(f"branch 'a': box center out of [0, 1]: ({centers[3, 0]}, {bad})") + "$"
    with pytest.raises(DataError, match=message):
        model.forward(_inputs(scene))
    with pytest.raises(DataError, match=message):
        model.forward_batch([good, scene])


@pytest.mark.parametrize("kind", KINDS)
def test_centers_reassigned_after_construction_are_a_shape_error(kind):
    rng = np.random.default_rng(0)
    inputs = _inputs(_scene(rng))
    wrong = rng.random((3, 2))
    for inp in inputs.values():
        inp.centers = wrong  # BranchInput checked only the centers it was built with
    model = _model(kind, use_pe=True)
    with pytest.raises(ShapeError, match=re.escape("centers must be (5, 2), got (3, 2)")):
        model.forward(inputs)


def test_features_reassigned_to_another_rank_are_a_shape_error():
    rng = np.random.default_rng(0)
    inp = BranchInput(rng.standard_normal((5, 8)), rng.random((5, 2)))
    inp.features = inp.features[:, :, None]  # width and actor count still read right
    with pytest.raises(ShapeError, match=re.escape("features must be (n, f), got (5, 8, 1)")):
        _model("branch", use_pe=True).forward({"a": inp})


@pytest.mark.parametrize("kind", KINDS)
def test_a_mapping_whose_branches_hold_different_centers_is_rejected(kind):
    rng = np.random.default_rng(1)
    scene = _scene(rng)
    model = _model(kind, use_pe=True)
    want = model.forward(_inputs(scene))
    # equal copies run as the one array; only the branches the model reads count
    copies = {"a": scene.centers.copy(), "b": scene.centers.copy()}
    assert model.forward(_inputs(scene, copies)).activity_logits.data.tobytes() == \
        want.activity_logits.data.tobytes()
    moved = scene.centers.copy()
    moved[2, 0] = moved[2, 0] / 2
    inputs = _inputs(scene, {"a": scene.centers, "b": moved})
    if kind == "branch":  # it reads a alone
        assert model.forward(inputs).activity_logits.data.tobytes() == \
            want.activity_logits.data.tobytes()
        return
    with pytest.raises(DataError, match="^branches 'a' and 'b' hold different box centers$"):
        model.forward(inputs)
    nan = scene.centers.copy()
    nan[1, 1] = np.nan  # a NaN is unequal even to itself
    with pytest.raises(DataError, match="^branches 'a' and 'b' hold different box centers$"):
        model.forward(_inputs(scene, {"a": nan, "b": nan.copy()}))


@pytest.mark.parametrize("kind", KINDS)
def test_a_mapping_without_a_branch_the_model_reads_is_rejected(kind):
    inputs = _inputs(_scene(np.random.default_rng(2)))
    for gone in (["a"], ["a", "b"]):
        kept = {b: inp for b, inp in inputs.items() if b not in gone}
        missing = gone if kind != "branch" else ["a"]
        with pytest.raises(DataError, match=re.escape(
                f"scene is missing branches {missing}, has {sorted(kept)}")):
            _model(kind, use_pe=True).forward(kept)
