"""Batches packed straight from scenes, and untaped set pooling.

pack_inputs packs a SceneBatch from the scenes' own arrays, with its checks
run once per batch. These tests hold it to pack_inputs over each scene's
branch_inputs: the same arrays byte for byte, and on a malformed scene the
same exception type and message. Untaped max_over_sets takes each set's max
without the argmax winners, and must give the taped output bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from groupact.errors import ShapeError
from groupact.evaluation import evaluate_model
from groupact.model import (
    BranchConfig,
    BranchInput,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
    SceneBatch,
    branch_inputs,
    pack_inputs,
)
from groupact.scenes import SceneConfig, generate
from groupact.seeding import rng_for
from groupact.tensor import MODE_INFER, MODE_TRAIN, Graph, Tensor, max_over_sets

THREE = {"static": 8, "dynamic-rgb": 12, "dynamic-flow": 4}


def _scenes(n_actors, count, branch_dims=THREE, seed=0):
    cfg = SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4,
                      n_actors=n_actors, branch_dims=branch_dims, seed=seed)
    return generate(cfg, count).scenes


def _outcome(pack):
    try:
        return pack()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def _both(scenes, dims):
    old = _outcome(lambda: pack_inputs([branch_inputs(s) for s in scenes], dims))
    new = _outcome(lambda: pack_inputs(SceneBatch(scenes), dims))
    return old, new


def _assert_same_packing(old, new, dims):
    (old_inputs, old_sizes), (new_inputs, new_sizes) = old, new
    assert new_sizes == old_sizes and type(new_sizes) is tuple
    assert list(new_inputs) == list(old_inputs) == list(dims)
    for b in dims:
        for name in ("features", "centers"):
            a, c = getattr(old_inputs[b], name), getattr(new_inputs[b], name)
            assert (c.dtype, c.shape, c.flags.c_contiguous) == (a.dtype, a.shape, True)
            assert c.tobytes() == a.tobytes()
    # every branch reads the scenes' one centers array, so all share one packing
    assert len({id(new_inputs[b].centers) for b in dims}) == 1


@pytest.mark.parametrize("n_actors, count", [(12, 16), ((3, 16), 23), ((1, 4), 1), (7, 1)],
                         ids=["uniform", "ragged", "one-ragged", "one-uniform"])
@pytest.mark.parametrize("dims", [THREE, {"dynamic-rgb": 12}, {"static": 8, "dynamic-flow": 4}],
                         ids=["three-branches", "one-branch", "two-branches"])
def test_scene_packing_equals_branch_inputs_packing(n_actors, count, dims):
    scenes = _scenes(n_actors, count)
    old, new = _both(scenes, dims)
    _assert_same_packing(old, new, dims)


def _replace_features(scene, branch, feats):
    return dataclasses.replace(scene, features=dict(scene.features, **{branch: feats}))


def _drop(scene, branch):
    return dataclasses.replace(
        scene, features={b: f for b, f in scene.features.items() if b != branch})


def _center(scene, value):
    centers = scene.centers.copy()
    centers[-1, 0] = value
    return dataclasses.replace(scene, centers=centers)


MALFORMED = {
    "missing-branch": lambda s: _drop(s, "dynamic-rgb"),
    "wrong-width": lambda s: _replace_features(s, "static", s.features["static"][:, :5]),
    "actor-count-mismatch": lambda s: _replace_features(s, "dynamic-flow",
                                                        s.features["dynamic-flow"][:-1]),
    "1-d-features": lambda s: _replace_features(s, "static", s.features["static"].ravel()),
    "centers-3-columns": lambda s: dataclasses.replace(
        s, centers=np.hstack([s.centers, s.centers[:, :1]])),
    "centers-too-few-rows": lambda s: dataclasses.replace(s, centers=s.centers[:-1]),
    "centers-1-d": lambda s: dataclasses.replace(s, centers=s.centers.ravel()),
    "zero-actors": lambda s: dataclasses.replace(
        s, centers=s.centers[:0], features={b: f[:0] for b, f in s.features.items()}),
    "nan-center": lambda s: _center(s, np.nan),
    "center-above-one": lambda s: _center(s, 1.5),
    "center-below-zero": lambda s: _center(s, -0.25),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
@pytest.mark.parametrize("at, count", [(0, 1), (2, 5), (4, 5)])
def test_malformed_scene_raises_what_branch_inputs_packing_raises(fault, at, count):
    scenes = _scenes((2, 6), count, seed=3)
    scenes[at] = MALFORMED[fault](scenes[at])
    old, new = _both(scenes, THREE)
    assert isinstance(old, tuple) and isinstance(old[0], type), f"{fault} packed: {old}"
    assert new == old


def test_first_of_several_faults_is_the_one_raised():
    scenes = _scenes((2, 6), 6, seed=4)
    scenes[1] = MALFORMED["nan-center"](scenes[1])
    scenes[3] = MALFORMED["actor-count-mismatch"](scenes[3])
    scenes[4] = MALFORMED["1-d-features"](scenes[4])
    old, new = _both(scenes, THREE)
    # shapes are checked before ranges, and scene 3's short branch disagrees with its centers
    assert new == old and old[1].startswith("centers must be (")


@pytest.mark.parametrize("field", ["centers", "dynamic-rgb"])
def test_row_counts_are_checked_scene_by_scene_when_totals_agree(field):
    scenes = _scenes((3, 6), 4, seed=11)

    def moved(scene, rows):
        if field == "centers":
            return dataclasses.replace(scene, centers=rows(scene.centers))
        return _replace_features(scene, field, rows(scene.features[field]))

    scenes[1] = moved(scenes[1], lambda a: np.vstack([a, a[:1]]))  # one row more ...
    scenes[2] = moved(scenes[2], lambda a: a[:-1])  # ... and one fewer
    old, new = _both(scenes, THREE)
    assert isinstance(old[0], type) and new == old, old


@pytest.mark.parametrize("counts", [[(5, 4)], [(5, 4), (3, 4)], [(2, 2), (5, 4), (3, 4)]])
def test_mappings_whose_branches_disagree_on_actors_are_rejected(counts):
    # each BranchInput agrees with its own centers, so only the branches disagree
    rng = np.random.default_rng(12)
    batch = [{b: BranchInput(rng.standard_normal((n, 8)), rng.random((n, 2)))
              for b, n in zip("ab", scene)} for scene in counts]
    n_a, n_b = counts[-2 if len(counts) > 2 else 0]
    with pytest.raises(ShapeError, match=rf"^branch 'b' has {n_b} actors, expected {n_a}$"):
        pack_inputs(batch, {"a": 8, "b": 8})


def test_float32_features_pack_as_float64_like_branch_inputs():
    scenes = _scenes((2, 6), 5, seed=5)
    scenes[1] = _replace_features(scenes[1], "static",
                                  scenes[1].features["static"].astype(np.float32))
    old, new = _both(scenes, THREE)
    _assert_same_packing(old, new, THREE)
    one_old, one_new = _both(scenes[1:2], THREE)
    _assert_same_packing(one_old, one_new, THREE)


def test_scene_batch_reads_as_its_scenes_branch_inputs():
    scenes = _scenes((2, 6), 4, seed=6)
    batch = SceneBatch(scenes)
    assert len(batch) == 4 and bool(batch) and not SceneBatch([])
    for got, want in [(list(batch), scenes), ([batch[1], batch[-1]], [scenes[1], scenes[-1]])]:
        assert len(got) == len(want)
        for inputs, scene in zip(got, want):
            assert sorted(inputs) == sorted(scene.features)
            for b, inp in inputs.items():
                assert inp.features.tobytes() == scene.features[b].tobytes()
                assert inp.centers is scene.centers


def _cfg(dim, **kw):
    return BranchConfig(feature_dim=dim, num_actions=5, num_activities=4, d_model=8,
                        num_heads=2, num_layers=1, d_ff=16, dropout=0.0, **kw)


MODELS = {
    "branch": lambda: BranchModel("dynamic-rgb", _cfg(12), rng_for(0, "init")),
    "pre-embed": lambda: BranchModel("static", _cfg(8, pe_stage="pre-embed"), rng_for(0, "init")),
    "early-concat": lambda: EarlyFusionModel("concat", THREE, _cfg(12), rng_for(0, "init"),
                                             early_pe="per-branch"),
    "late": lambda: LateFusionModel({b: BranchModel(b, _cfg(d), rng_for(0, f"init/{b}"))
                                     for b, d in THREE.items()}),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("mode", [MODE_INFER, MODE_TRAIN])
def test_forward_batch_of_scenes_gives_the_same_bits(kind, mode):
    model = MODELS[kind]()
    scenes = _scenes((1, 9), 11, seed=7)
    with Graph(mode):
        want = model.forward_batch([branch_inputs(s) for s in scenes], mode, record_attention=True)
        got = model.forward_batch(SceneBatch(scenes), mode, record_attention=True)
    assert got.sizes == want.sizes
    assert got.action_logits.data.tobytes() == want.action_logits.data.tobytes()
    assert got.activity_logits.data.tobytes() == want.activity_logits.data.tobytes()


def test_evaluation_spans_chunks_of_packed_scenes():
    # 150 ragged scenes: three chunks, the last one short
    scenes = _scenes((1, 9), 150, branch_dims={"dynamic-rgb": 12}, seed=8)
    model = MODELS["branch"]()
    report = evaluate_model(model, scenes, 5, 4)
    group = np.zeros((4, 4), dtype=np.int64)
    action = np.zeros((5, 5), dtype=np.int64)
    for s in scenes:
        pred = model.forward(branch_inputs(s))
        group[s.activity, pred.activity_logits.data.argmax()] += 1
        np.add.at(action, (s.actions, pred.action_logits.data.argmax(axis=1)), 1)
    assert np.array_equal(report.group_confusion, group)
    assert np.array_equal(report.action_confusion, action)


def _tied(rng, sizes, d=6):
    """Rows whose columns often tie at their max, zeros of both signs among them."""
    x = rng.integers(-2, 2, size=(sum(sizes), d)).astype(np.float64)
    x[rng.random(x.shape) < 0.5] *= -1.0  # 0.0 becomes -0.0
    x[:, 0] = -0.0
    x[::2, 1] = 0.0
    return x


@pytest.mark.parametrize("sizes", [(4, 4, 4), (3, 1, 5, 2, 1, 4), (6,), (1,)])
def test_untaped_max_over_sets_equals_taped_bit_for_bit(sizes):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = _tied(rng, sizes)
        got = max_over_sets(x, sizes)
        with Graph(MODE_TRAIN):
            want = max_over_sets(Tensor(x), sizes).data
        assert type(got) is np.ndarray and got.shape == want.shape == (len(sizes), 6)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[:, 0]).all()  # the lowest row's -0.0 wins the tie with 0.0
        positive = x - x.min() + 1.0
        with Graph(MODE_TRAIN):
            want = max_over_sets(Tensor(positive), sizes).data
        assert max_over_sets(positive, sizes).tobytes() == want.tobytes()


def test_untaped_max_over_sets_finds_no_winners(monkeypatch):
    x = np.random.default_rng(10).standard_normal((9, 4))
    want = max_over_sets(x, (4, 5))
    monkeypatch.setattr(np, "argmax", lambda *a, **k: pytest.fail("untaped pooling took an argmax"))
    assert max_over_sets(x, (4, 5)).tobytes() == want.tobytes()
    assert max_over_sets(x, (3, 3, 3)).tobytes() == x.reshape(3, 3, 4).max(axis=1).tobytes()
