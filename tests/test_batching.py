"""Packed minibatches against the one-scene path.

forward_batch packs the actors of several scenes into one row matrix; only
attention and set pooling see the scene boundaries. These tests hold it to
the per-scene forward within 1e-12 relative: logits, attention records and
every parameter's gradient, on ragged batches that include 1-actor scenes.
"""

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import groupact.tensor as tensor_module
from groupact.errors import EmptySetError, ShapeError, UsageError
from groupact.evaluation import evaluate_model
from groupact import posenc
from groupact.model import (
    BranchConfig,
    BranchInput,
    BranchModel,
    EarlyFusionModel,
    LateFusionModel,
    branch_inputs,
    predict,
)
from groupact.posenc import pe_table
from groupact.scenes import SceneConfig, generate
from groupact.seeding import DROPOUT, SHUFFLE, rng_for
from groupact.tensor import (
    MODE_INFER,
    MODE_TRAIN,
    DropoutDraws,
    Graph,
    Tensor,
    add,
    max_over_set,
    max_over_sets,
    mul,
    set_attention,
    softmax_rows,
    sum_all,
    weighted_cross_entropy,
)
from groupact.training import TrainConfig, _SceneStream, joint_loss, loss_terms, train
from groupact.transformer import attention, dropout_widths

from helpers import check_gradients

RTOL = 1e-12
RAGGED = (3, 1, 5, 2, 1, 4)
DIMS = {"a": 8, "b": 12}


def _cfg(**kw):
    base = dict(feature_dim=12, num_actions=3, num_activities=4, d_model=8, num_heads=2,
                num_layers=2, d_ff=16, dropout=0.0, use_pe=True)
    base.update(kw)
    return BranchConfig(**base)


MODELS = {
    "none": lambda rng: BranchModel("a", _cfg(feature_dim=8), rng),
    "early-sum": lambda rng: EarlyFusionModel("sum", DIMS, _cfg(), rng),
    "early-concat": lambda rng: EarlyFusionModel("concat", DIMS, _cfg(), rng),
    "early-concat-per-branch-pe": lambda rng: EarlyFusionModel("concat", DIMS, _cfg(), rng,
                                                               early_pe="per-branch"),
    "pre-embed-pe": lambda rng: BranchModel("b", _cfg(pe_stage="pre-embed"), rng),
    "no-encoder": lambda rng: BranchModel("a", _cfg(feature_dim=8, use_encoder=False), rng),
    "late": lambda rng: LateFusionModel({"a": BranchModel("a", _cfg(feature_dim=8), rng),
                                         "b": BranchModel("b", _cfg(), rng)},
                                        {"a": 2.0, "b": 1.0}),
}


def _batch(rng, sizes):
    """Scenes of every branch plus labels."""
    batch, activities, actions = [], [], []
    for n in sizes:
        centers = rng.random((n, 2))
        batch.append(SimpleNamespace(
            features={b: rng.standard_normal((n, f)) for b, f in DIMS.items()}, centers=centers))
        activities.append(int(rng.integers(4)))
        actions.append(rng.integers(3, size=n))
    return batch, activities, actions


def _gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def _grads(model, loss_fn):
    params = model.parameters()
    for _, t in params:
        t.zero_grad()
    with Graph(MODE_TRAIN):
        loss = loss_fn()
        loss.backward()
    return loss.item(), {name: t.grad.copy() for name, t in params}


def _records(attention):
    """Per-scene attention as a flat list of matrices, late fusion included."""
    if attention is None:
        return []
    if isinstance(attention, dict):
        return [m for b in sorted(attention) for m in _records(attention[b])]
    return [m for layer in attention.matrices for m in layer]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["none", "early-concat", "late"])
@pytest.mark.parametrize("record", [False, True])
def test_infer_passes_run_untaped_with_the_taped_bits(kind, record, monkeypatch):
    model = MODELS[kind](np.random.default_rng(5))
    batch, _, _ = _batch(np.random.default_rng(6), (3, 16, 7, 11))

    def passes(mode):
        return ([model.forward_batch(batch, mode, record_attention=record)]
                + [model.forward(branch_inputs(s), mode, record_attention=record)
                   for s in batch])

    with Graph(MODE_TRAIN) as g:  # dropout is 0, so the train-mode pass computes the same
        taped = passes(MODE_TRAIN)
        assert len(g.nodes) > 0

    def no_tape(*args):
        raise AssertionError("an infer-mode pass called _result")

    monkeypatch.setattr(tensor_module, "_result", no_tape)
    for got, want in zip(passes(MODE_INFER), taped):
        assert isinstance(got.action_logits, Tensor) and isinstance(got.activity_logits, Tensor)
        assert _same_bits(got.action_logits.data, want.action_logits.data)
        assert _same_bits(got.activity_logits.data, want.activity_logits.data)
        assert (got.attention is None) == (want.attention is None) == (not record)
        if record:
            scenes = (zip(got.attention, want.attention) if got.sizes
                      else [(got.attention, want.attention)])
            for got_scene, want_scene in scenes:
                got_m, want_m = _records(got_scene), _records(want_scene)
                assert len(got_m) == len(want_m) > 0
                assert all(_same_bits(a, b) for a, b in zip(got_m, want_m))


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("sizes", [RAGGED, (4, 4, 4)])
def test_forward_batch_matches_per_scene_forward(kind, sizes):
    model = MODELS[kind](np.random.default_rng(1))
    batch, activities, actions = _batch(np.random.default_rng(2), sizes)
    packed = model.forward_batch(batch, MODE_INFER, record_attention=True)
    assert packed.sizes == sizes
    groups, acts = predict(packed)
    rows = np.cumsum((0,) + sizes)
    for i, scene in enumerate(batch):
        one = model.forward(branch_inputs(scene), MODE_INFER, record_attention=True)
        assert _gap(packed.action_logits.data[rows[i]:rows[i + 1]], one.action_logits.data) <= RTOL
        assert _gap(packed.activity_logits.data[i], one.activity_logits.data) <= RTOL
        got = _records(None if packed.attention is None else packed.attention[i])
        want = _records(one.attention)
        assert len(got) == len(want) and (kind == "no-encoder") == (not want)
        for m_got, m_want in zip(got, want):
            assert m_got.shape == (sizes[i], sizes[i]) and _gap(m_got, m_want) <= RTOL
        assert groups[i] == predict(one)[0]
        npt.assert_array_equal(acts[rows[i]:rows[i + 1]], predict(one)[1])

    labels = np.concatenate(actions)
    loss_b, grads_b = _grads(model, lambda: loss_terms(
        model.forward_batch(batch, MODE_TRAIN), activities, labels)[0])

    def per_scene():
        total = None
        for scene, g, a in zip(batch, activities, actions):
            term = joint_loss(model.forward(branch_inputs(scene), MODE_TRAIN), g, a)
            total = term if total is None else total + term
        return mul(total, 1.0 / len(batch))

    loss_s, grads_s = _grads(model, per_scene)
    assert abs(loss_b - loss_s) <= RTOL * loss_s
    for name, g in grads_s.items():
        assert _gap(grads_b[name], g) <= RTOL, name


def test_logits_do_not_depend_on_batch_mates():
    model = MODELS["early-concat"](np.random.default_rng(3))
    batch, _, _ = _batch(np.random.default_rng(4), RAGGED)
    mates, _, _ = _batch(np.random.default_rng(5), (7, 2))
    alone = model.forward_batch(batch[2:3], MODE_INFER)
    crowded = model.forward_batch(mates[:1] + batch[2:3] + mates[1:], MODE_INFER)
    assert _gap(crowded.activity_logits.data[1], alone.activity_logits.data[0]) <= RTOL
    assert _gap(crowded.action_logits.data[7:12], alone.action_logits.data) <= RTOL


def test_batched_evaluation_matches_per_scene_predict():
    cfg = SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4, n_actors=(1, 7),
                      branch_dims={"static": 8}, noise=1.0, seed=6)
    ds = generate(cfg, 150)  # more than two evaluation chunks, the last one partial
    model = BranchModel("static", BranchConfig(feature_dim=8, num_actions=5, num_activities=4,
                                               d_model=8, num_heads=2, d_ff=16),
                        np.random.default_rng(7))
    group = np.zeros((4, 4), dtype=np.int64)
    action = np.zeros((5, 5), dtype=np.int64)
    for scene in ds.scenes:
        g, acts = predict(model.forward(branch_inputs(scene)))
        group[scene.activity, g] += 1
        for t, p in zip(scene.actions, acts):
            action[t, p] += 1
    report = evaluate_model(model, ds.scenes, 5, 4)
    npt.assert_array_equal(report.group_confusion, group)
    npt.assert_array_equal(report.action_confusion, action)
    with pytest.raises(UsageError):
        evaluate_model(model, [], 5, 4)


def test_set_attention_matches_per_set_attention():
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((sum(RAGGED), d)) for d in (4, 4, 3))
    record = [[] for _ in RAGGED]
    out = set_attention(Tensor(q), Tensor(k), Tensor(v), RAGGED, record)
    for i, (lo, hi) in enumerate(zip(np.cumsum((0,) + RAGGED), np.cumsum(RAGGED))):
        one = attention(Tensor(q[lo:hi]), Tensor(k[lo:hi]), Tensor(v[lo:hi])).data
        assert _gap(out.data[lo:hi], one) <= RTOL
        npt.assert_allclose(record[i][0].sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("sizes", [RAGGED, (3, 3)])
def test_set_attention_gradcheck(sizes):
    rng = np.random.default_rng(9)
    n = sum(sizes)
    q, k, v = (Tensor(rng.standard_normal((n, 3)), requires_grad=True) for _ in range(3))
    probe = Tensor(rng.standard_normal((n, 3)))
    check_gradients(lambda: sum_all(mul(set_attention(q, k, v, sizes), probe)),
                    [("q", q), ("k", k), ("v", v)])


def test_max_over_sets_per_set_and_gradcheck():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((sum(RAGGED), 4)), requires_grad=True)
    pooled = max_over_sets(x, RAGGED).data
    for i, (lo, hi) in enumerate(zip(np.cumsum((0,) + RAGGED), np.cumsum(RAGGED))):
        npt.assert_array_equal(pooled[i], max_over_set(Tensor(x.data[lo:hi])).data)
    probe = Tensor(rng.standard_normal((len(RAGGED), 4)))
    check_gradients(lambda: sum_all(mul(max_over_sets(x, RAGGED), probe)), [("x", x)])


def test_set_sizes_are_checked():
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        max_over_sets(x, (2, 3))
    with pytest.raises(EmptySetError):
        max_over_sets(x, (4, 0))
    with pytest.raises(ShapeError):
        set_attention(x, x, x, ())


def test_weighted_cross_entropy_is_one_node_and_gradchecks():
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    wa, wb = 0.7, rng.random(5)
    la, lb = np.array([0, 3, 1]), np.array([1, 0, 0, 1, 1])
    with Graph(MODE_TRAIN) as g:
        loss, (ce_a, ce_b) = weighted_cross_entropy([(a, la, wa), (b, lb, wb)])
        assert len(g.nodes) == 1
    want = wa * ce_a.sum() + wb @ ce_b
    assert abs(loss.item() - want) <= 1e-15 * want
    check_gradients(lambda: weighted_cross_entropy([(a, la, wa), (b, lb, wb)])[0],
                    [("a", a), ("b", b)])


def test_dropout_draws_match_drawing_set_by_set():
    widths = (4, 6, 4)
    draws = DropoutDraws(np.random.default_rng(12), RAGGED, widths)
    rng = np.random.default_rng(12)
    per_set = [[rng.random((n, w)) for w in widths] for n in RAGGED]
    for site, w in enumerate(widths):
        want = np.concatenate([masks[site] for masks in per_set])
        npt.assert_array_equal(draws.random((sum(RAGGED), w)), want)
    with pytest.raises(UsageError):
        draws.random((sum(RAGGED), 4))
    for sizes, widths in (((12,) * 16, (32, 64, 32)), (RAGGED, (8, 16, 8) * 2), ((1,), (4,)),
                          (RAGGED, ())):
        rng, ref = np.random.default_rng(13), np.random.default_rng(13)
        draws = DropoutDraws(rng, sizes, widths)
        per_set = [[ref.random((n, w)) for w in widths] for n in sizes]
        for site, w in enumerate(widths):
            want = np.concatenate([masks[site] for masks in per_set])
            assert draws.random((sum(sizes), w)).tobytes() == want.tobytes()
        # the stream ends where the per-site draws leave it, so a resumed
        # run's advance past sum(sizes) * sum(widths) draws stays exact
        assert rng.bit_generator.state == ref.bit_generator.state


def test_training_step_matches_the_one_scene_loop_with_dropout():
    """One packed step of train() against running the scenes one at a time,
    all drawing dropout from the run's single stream."""
    cfg_s = SceneConfig(rule="key-actor-side", num_actions=3, num_activities=2, n_actors=(1, 6),
                        branch_dims={"static": 8}, noise=0.5, seed=14)
    scenes = generate(cfg_s, 20).scenes
    cfg = TrainConfig(lr_schedule=((0, 0.0),), total_iterations=1, batch_size=5, seed=4)

    def model():
        return BranchModel("static", _cfg(feature_dim=8, num_activities=2, dropout=0.3),
                           np.random.default_rng(15))

    packed = model()
    loss_b = train(packed, scenes, cfg).rows[0][2]
    grads_b = {name: t.grad for name, t in packed.parameters()}

    batch = [scenes[i] for i in _SceneStream(len(scenes), rng_for(4, SHUFFLE)).take(5)]
    one_by_one = model()
    rng = rng_for(4, DROPOUT)

    def per_scene():
        total = None
        for s in batch:
            pred = one_by_one.forward(branch_inputs(s), MODE_TRAIN, rng)
            term = joint_loss(pred, s.activity, s.actions)
            total = term if total is None else total + term
        return mul(total, 1.0 / len(batch))

    loss_s, grads_s = _grads(one_by_one, per_scene)
    assert abs(loss_b - loss_s) <= RTOL * loss_s
    for name, g in grads_s.items():
        assert _gap(grads_b[name], g) <= RTOL, name


DROPPED = {
    "branch": lambda rng: BranchModel("a", _cfg(feature_dim=8, dropout=0.2), rng),
    "early-concat": lambda rng: EarlyFusionModel("concat", DIMS, _cfg(dropout=0.2), rng),
    "late": lambda rng: LateFusionModel(
        {b: BranchModel(b, _cfg(feature_dim=f, dropout=0.2), rng) for b, f in DIMS.items()},
        {"a": 2.0, "b": 1.0}),
}


@pytest.mark.parametrize("kind", sorted(DROPPED))
def test_a_generator_draws_the_masks_train_draws(kind):
    """A train pass given a Generator draws the masks of a DropoutDraws over
    its sets, as train() does: scene by scene, and under late fusion member
    after member. It leaves the Generator where those draws end."""
    model = DROPPED[kind](np.random.default_rng(16))
    batch, _, _ = _batch(np.random.default_rng(17), RAGGED)
    members = list(model.models.values()) if kind == "late" else [model]
    widths = dropout_widths(members[0].encoder)
    rng, ref = np.random.default_rng(18), np.random.default_rng(18)
    got = model.forward_batch(batch, MODE_TRAIN, rng)
    want = model.forward_batch(batch, MODE_TRAIN,
                               DropoutDraws(ref, RAGGED * len(members), widths))
    assert _same_bits(got.action_logits.data, want.action_logits.data)
    assert _same_bits(got.activity_logits.data, want.activity_logits.data)
    assert rng.bit_generator.state == ref.bit_generator.state
    inference = model.forward_batch(batch, MODE_INFER)
    assert not _same_bits(got.action_logits.data, inference.action_logits.data)


def _member_mix(model, batch, mode=MODE_INFER, rng=None):
    """Late fusion from its members' own forward_batch outputs, run one after
    another and mixed by the same ops: (action mix, activity mix, {branch:
    attention records})."""
    action_mix = activity_mix = None
    recs = {}
    for b in model.branches:
        pred = model.models[b].forward_batch(batch, mode, rng, record_attention=True)
        act = mul(softmax_rows(pred.action_logits), model.weights[b])
        grp = mul(softmax_rows(pred.activity_logits), model.weights[b])
        action_mix = act if action_mix is None else add(action_mix, act)
        activity_mix = grp if activity_mix is None else add(activity_mix, grp)
        recs[b] = pred.attention
    return action_mix, activity_mix, recs


@pytest.mark.parametrize("pe", [dict(use_pe=False), dict(pe_stage="post-embed"),
                                dict(pe_stage="pre-embed")])
@pytest.mark.parametrize("sizes", [RAGGED, (1,), (4, 4, 4)])
def test_late_fusion_packs_once_and_matches_its_members_bit_for_bit(pe, sizes):
    rng = np.random.default_rng(5)
    model = LateFusionModel({"a": BranchModel("a", _cfg(feature_dim=8, **pe), rng),
                             "b": BranchModel("b", _cfg(**pe), rng)},
                            {"a": 2.0, "b": 1.0})
    batch, _, _ = _batch(np.random.default_rng(6), sizes)
    got = model.forward_batch(batch, MODE_INFER, record_attention=True)
    action_mix, activity_mix, recs = _member_mix(model, batch)
    assert got.sizes == sizes
    assert got.action_logits.data.tobytes() == action_mix.data.tobytes()
    assert got.activity_logits.data.tobytes() == activity_mix.data.tobytes()
    for b in model.branches:
        for i in range(len(sizes)):
            want = _records(recs[b][i])
            assert len(want) == 2 * 2  # layers x heads
            assert [m.tobytes() for m in _records(got.attention[i][b])] == \
                [m.tobytes() for m in want]


@pytest.mark.parametrize("kind", ["late", "early-concat-per-branch-pe"])
@pytest.mark.parametrize("shared", [True, False])
def test_branches_reading_the_same_centers_share_one_position_code_table(monkeypatch, kind,
                                                                         shared):
    model = MODELS[kind](np.random.default_rng(1))
    batch, _, _ = _batch(np.random.default_rng(7), RAGGED)
    want = model.forward_batch(batch, MODE_INFER)
    calls = []
    monkeypatch.setattr(posenc, "pe_table", lambda *args: calls.append(args) or pe_table(*args))
    got = model.forward_batch(batch, MODE_INFER)
    assert len(calls) == 1
    assert got.activity_logits.data.tobytes() == want.activity_logits.data.tobytes()
    # a mapping's branches may hold one centers array or equal copies of it
    inputs = branch_inputs(batch[0])
    if not shared:
        inputs = {b: BranchInput(inp.features, inp.centers.copy()) for b, inp in inputs.items()}
    calls.clear()
    model.forward(inputs, MODE_INFER)
    assert len(calls) == 1
