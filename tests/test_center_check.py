"""Box centers are checked once, where a scene enters a model.

Every model kind runs forward and forward_batch through pack_inputs, which
rejects a center outside [0, 1] or a NaN with a DataError naming the branch,
whether position codes are on or off.
"""

import re

import numpy as np
import pytest

from groupact.errors import DataError, ShapeError
from groupact.model import BranchConfig, BranchInput, BranchModel, EarlyFusionModel, LateFusionModel
from groupact.seeding import rng_for


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
@pytest.mark.parametrize("use_pe", [True, False])
@pytest.mark.parametrize("kind", ["branch", "early-sum", "early-concat", "late"])
def test_bad_center_is_rejected_at_model_entry(kind, use_pe, bad):
    rng = np.random.default_rng(0)
    good = {b: BranchInput(rng.standard_normal((5, 8)), rng.random((5, 2))) for b in ("a", "b")}
    model = _model(kind, use_pe)
    model.forward_batch([good, good])  # in-range centers run
    branch = "a" if kind == "branch" else "b"  # a branch the model reads, not always the first
    centers = good[branch].centers.copy()
    centers[3, 1] = bad
    scene = dict(good, **{branch: BranchInput(good[branch].features, centers)})
    message = rf"branch '{branch}'.*{re.escape(str(bad))}"
    with pytest.raises(DataError, match=message):
        model.forward(scene)
    with pytest.raises(DataError, match=message):
        model.forward_batch([good, scene])


@pytest.mark.parametrize("kind", ["branch", "early-sum", "early-concat", "late"])
def test_centers_reassigned_after_construction_are_a_shape_error(kind):
    rng = np.random.default_rng(0)
    good = {b: BranchInput(rng.standard_normal((5, 8)), rng.random((5, 2))) for b in ("a", "b")}
    branch = "a" if kind == "branch" else "b"
    bad = BranchInput(good[branch].features, good[branch].centers)
    bad.centers = rng.random((3, 2))  # BranchInput checked only the centers it was built with
    scene = dict(good, **{branch: bad})
    model = _model(kind, use_pe=True)
    message = re.escape(f"branch '{branch}': centers must be (5, 2), got (3, 2)")
    with pytest.raises(ShapeError, match=message):
        model.forward(scene)
    with pytest.raises(ShapeError, match=message):
        model.forward_batch([good, scene])


def test_features_reassigned_to_another_rank_are_a_shape_error():
    rng = np.random.default_rng(0)
    inp = BranchInput(rng.standard_normal((5, 8)), rng.random((5, 2)))
    inp.features = inp.features[:, :, None]  # width and actor count still read right
    with pytest.raises(ShapeError, match="batch arrays do not pack"):
        _model("branch", use_pe=True).forward_batch([{"a": inp}])
