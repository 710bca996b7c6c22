"""Late fusion's grouped pass against its members run one by one.

LateFusionModel's members share a config apart from feature_dim, and it
runs them all as one pass over a leading group axis. These tests
hold it to the members' own passes, mixed by the same ops (see
test_batching._member_mix), byte for byte: outputs, attention records,
dropout masks and gradients, also after training steps, where every pass
reads the members' weights and adds to their gradients in place.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from groupact import model as model_module
from groupact.errors import ConfigError, NumericsError, ShapeError, UsageError
from groupact.model import BranchConfig, BranchModel, LateFusionModel, Prediction
from groupact.tensor import (
    MODE_INFER,
    MODE_TRAIN,
    Graph,
    Tensor,
    add,
    layer_norm,
    matmul,
    max_over_sets,
    mul,
    set_attention,
    softmax_rows,
    stack,
    sum_all,
    weighted_sum,
)
from groupact.training import Adam, SgdMomentum, loss_terms

from helpers import check_gradients
from test_batching import RAGGED, _member_mix, _records


def _cfg(feature_dim, **kw):
    base = dict(feature_dim=feature_dim, num_actions=3, num_activities=4, d_model=8,
                num_heads=2, num_layers=2, d_ff=16, dropout=0.0, use_pe=True)
    base.update(kw)
    return BranchConfig(**base)


def _model(dims, rng, weights=None, **kw):
    """Late fusion over branches {name: feature_dim}; kw applies to every member."""
    members = {b: BranchModel(b, _cfg(f, **kw), rng) for b, f in dims.items()}
    return LateFusionModel(members, weights or {b: float(i + 1) for i, b in enumerate(dims)})


def _batch(rng, sizes, dims):
    return [SimpleNamespace(centers=rng.random((n, 2)),
                            features={b: rng.standard_normal((n, f)) for b, f in dims.items()})
            for n in sizes]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_matches_members(model, batch, sizes):
    got = model.forward_batch(batch, MODE_INFER, record_attention=True)
    action_mix, activity_mix, recs = _member_mix(model, batch)
    assert got.sizes == tuple(sizes)
    assert _same_bits(got.action_logits.data, action_mix.data)
    assert _same_bits(got.activity_logits.data, activity_mix.data)
    for i in range(len(sizes)):
        assert list(got.attention[i]) == model.branches
        for b in model.branches:
            want = [] if recs[b] is None else _records(recs[b][i])
            assert [m.tobytes() for m in _records(got.attention[i][b])] == \
                [m.tobytes() for m in want]


TWO = {"a": 8, "b": 12}
THREE = {"a": 8, "b": 12, "c": 16}


@pytest.mark.parametrize("dims", [TWO, THREE], ids=["2", "3"])
@pytest.mark.parametrize("sizes", [(4, 4, 4), RAGGED, (5,), (1,), (1, 1, 1)],
                         ids=["uniform", "ragged", "one-scene", "one-actor", "one-actor-sets"])
@pytest.mark.parametrize("kw", [dict(pe_stage="post-embed"), dict(pe_stage="pre-embed"),
                                dict(use_pe=False), dict(use_encoder=False)],
                         ids=["post-embed", "pre-embed", "no-codes", "no-encoder"])
def test_grouped_pass_matches_the_members_bit_for_bit(dims, sizes, kw):
    model = _model(dims, np.random.default_rng(3), **kw)
    _assert_matches_members(model, _batch(np.random.default_rng(4), sizes, dims), sizes)


@pytest.mark.parametrize("field, value", [("d_ff", 24), ("num_heads", 1), ("use_pe", False),
                                          ("pe_stage", "pre-embed"), ("num_activities", 5)])
def test_members_whose_configs_differ_beyond_feature_dim_are_refused(field, value):
    rng = np.random.default_rng(5)
    members = {b: BranchModel(b, _cfg(f, **({field: value} if b == "b" else {})), rng)
               for b, f in THREE.items()}
    was = getattr(members["a"].cfg, field)
    message = f"branch 'b' differs from 'a' in {field}: {value!r}, not {was!r}"
    with pytest.raises(ConfigError) as err:
        LateFusionModel(members)
    assert str(err.value) == message


def test_train_mode_with_a_generator_draws_each_members_masks():
    model = _model(THREE, np.random.default_rng(7), dropout=0.2)
    batch = _batch(np.random.default_rng(8), RAGGED, THREE)
    got = model.forward_batch(batch, MODE_TRAIN, np.random.default_rng(9))
    want_action, want_activity, _ = _member_mix(model, batch, MODE_TRAIN,
                                                np.random.default_rng(9))
    assert _same_bits(got.action_logits.data, want_action.data)
    assert _same_bits(got.activity_logits.data, want_activity.data)
    # another stream draws other masks
    other = model.forward_batch(batch, MODE_TRAIN, np.random.default_rng(10))
    assert not _same_bits(other.action_logits.data, got.action_logits.data)


def _grads(params, loss_fn):
    for _, t in params:
        t.zero_grad()
    with Graph(MODE_TRAIN) as graph:
        loss = loss_fn()
        loss.backward()
        nodes = len(graph.nodes)
    return loss.item(), {name: t.grad.copy() for name, t in params}, nodes


@pytest.mark.parametrize("kw", [dict(), dict(pe_stage="pre-embed", dropout=0.1)])
def test_taped_gradients_match_the_members_and_take_fewer_nodes(kw, monkeypatch):
    model = _model(THREE, np.random.default_rng(11), **kw)
    batch = _batch(np.random.default_rng(12), RAGGED, THREE)
    labels = np.random.default_rng(13)
    activities = labels.integers(4, size=len(RAGGED))
    actions = labels.integers(3, size=sum(RAGGED))

    def grouped():
        pred = model.forward_batch(batch, MODE_TRAIN, np.random.default_rng(14))
        return loss_terms(pred, activities, actions)[0]

    def members():
        action_mix, activity_mix, _ = _member_mix(model, batch, MODE_TRAIN,
                                                  np.random.default_rng(14))
        pred = Prediction(action_mix, activity_mix, sizes=RAGGED)
        return loss_terms(pred, activities, actions)[0]

    calls = _stack_calls(monkeypatch)
    loss_g, grads_g, nodes_g = _grads(model.parameters(), grouped)
    assert calls == [3]  # the embedded rows only: the taped pass reads the weights in place
    loss_m, grads_m, nodes_m = _grads(model.parameters(), members)
    assert loss_g == loss_m
    assert grads_g.keys() == grads_m.keys()
    for name, g in grads_m.items():
        assert np.abs(g).max() > 0, name
        assert _same_bits(grads_g[name], g), name
    assert nodes_g < nodes_m


@pytest.mark.parametrize("weight", ["action_w", "ff1_w"])
def test_a_nan_weight_in_the_second_member_raises(weight):
    model = _model(THREE, np.random.default_rng(15))
    w = model.models["b"].weights
    tensor = w.action_w if weight == "action_w" else w.encoder.layers[1].ff1_w
    tensor.data[0, 0] = np.nan
    batch = _batch(np.random.default_rng(16), RAGGED, THREE)
    with pytest.raises(NumericsError):
        model.forward_batch(batch, MODE_INFER)
    with pytest.raises(NumericsError), Graph(MODE_TRAIN):
        model.forward_batch(batch, MODE_TRAIN)


def test_grouped_ops_match_their_2d_ops_per_group_and_gradcheck():
    rng = np.random.default_rng(17)
    sizes = (2, 3, 1)

    def group(shape):
        return [Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(2)]

    xs, ws, bs, gs = group((6, 4)), group((4, 4)), group(4), group(4)
    probe = Tensor(rng.standard_normal((3, 4)))
    params = [(f"{n}{i}", t) for n, ts in (("x", xs), ("w", ws), ("b", bs), ("g", gs))
              for i, t in enumerate(ts)]

    def pooled(x, w, b, g, layout):
        x = add(matmul(x, w), b)
        return softmax_rows(max_over_sets(layer_norm(set_attention(x, x, x, layout), g, b),
                                          layout))

    def grouped():
        mix = weighted_sum(pooled(stack(xs), stack(ws), stack(bs), stack(gs), sizes * 2),
                           [0.25, 0.75])
        return sum_all(mul(mix, probe))

    def per_group():
        parts = [mul(pooled(*p, sizes), c) for p, c in zip(zip(xs, ws, bs, gs), [0.25, 0.75])]
        return sum_all(mul(add(parts[0], parts[1]), probe))

    (loss_g, grads_g, _), (loss_p, grads_p, _) = (_grads(params, f) for f in (grouped, per_group))
    assert loss_g == loss_p
    for name, g in grads_p.items():
        assert _same_bits(grads_g[name], g), name
    # stack and weighted_sum against central differences, away from any kink
    check_gradients(lambda: sum_all(mul(weighted_sum(stack(xs), [0.25, 0.75]), xs[1])),
                    params[:2])
    with pytest.raises(ShapeError):
        stack([xs[0], ws[0]])
    with pytest.raises(ShapeError):
        matmul(stack(xs), ws[0])
    with pytest.raises(ShapeError):
        weighted_sum(stack(xs), [1.0])
    with pytest.raises(ShapeError):
        add(stack(xs), bs[0])


def _stack_calls(monkeypatch):
    """A list that gets one entry per stack call the model module makes."""
    calls = []

    def counted(parts):
        calls.append(len(parts))
        return stack(parts)

    monkeypatch.setattr(model_module, "stack", counted)
    return calls


def _step(member, optimizer, batch, rng, lr=0.05):
    """One training step of member on batch, with labels drawn from rng."""
    activities = rng.integers(4, size=len(batch))
    actions = rng.integers(3, size=sum(len(s.centers) for s in batch))
    optimizer.zero_grads()
    with Graph(MODE_TRAIN):
        loss_terms(member.forward_batch(batch, MODE_TRAIN), activities, actions)[0].backward()
    optimizer.step(lr)


def test_steps_of_optimizers_built_after_wrapping_are_read_in_place(monkeypatch):
    model = _model(THREE, np.random.default_rng(18), num_heads=2)
    batch = _batch(np.random.default_rng(19), RAGGED, THREE)
    before = model.forward_batch(batch, MODE_INFER).action_logits.data.copy()
    labels = np.random.default_rng(20)
    for b, make in zip(model.branches, (SgdMomentum, Adam, SgdMomentum)):
        member = model.models[b]
        _step(member, make(member.parameters()), batch, labels)
    calls = _stack_calls(monkeypatch)
    after = model.forward_batch(batch, MODE_INFER)
    assert calls == [3]  # the embedded rows only: the weights are read where they lie
    assert not _same_bits(after.action_logits.data, before)
    _assert_matches_members(model, batch, RAGGED)


@pytest.mark.parametrize("slot", ["data", "grad"])
def test_a_weight_rebound_after_wrapping_is_refused(slot):
    model = _model(THREE, np.random.default_rng(21))
    batch = _batch(np.random.default_rng(22), RAGGED, THREE)
    t = model.models["b"].weights.encoder.layers[1].ff1_w
    setattr(t, slot, getattr(t, slot).copy())  # the grouped pass no longer reads it
    message = ("branch 'b': parameter 'enc/layer1/ff1_w' was rebound since its model was "
               "wrapped in late fusion")
    with pytest.raises(UsageError) as err:
        model.forward_batch(batch, MODE_INFER)
    assert str(err.value) == message
    with pytest.raises(UsageError), Graph(MODE_TRAIN):
        model.forward_batch(batch, MODE_TRAIN)
    # the member alone still runs on its own weights
    model.models["b"].forward_batch(batch, MODE_INFER)


def test_a_gradient_accumulated_before_wrapping_survives_it():
    rng = np.random.default_rng(24)
    members = {b: BranchModel(b, _cfg(f), rng) for b, f in THREE.items()}
    batch = _batch(np.random.default_rng(25), RAGGED, THREE)
    labels = np.random.default_rng(26)
    for member in members.values():
        activities = labels.integers(4, size=len(RAGGED))
        actions = labels.integers(3, size=sum(RAGGED))
        with Graph(MODE_TRAIN):
            loss_terms(member.forward_batch(batch, MODE_TRAIN), activities, actions)[0].backward()
    before = {(b, name): (t.data.copy(), t.grad.copy())
              for b, m in members.items() for name, t in m.parameters()}
    assert all(np.abs(grad).max() > 0 for _, grad in before.values())
    model = LateFusionModel(members, {b: 1.0 for b in THREE})
    for b, member in model.models.items():
        for name, t in member.parameters():
            data, grad = before[b, name]
            assert _same_bits(t.data, data) and _same_bits(t.grad, grad), (b, name)


@pytest.mark.parametrize("shared", ["model", "tensor"])
def test_one_member_under_two_branch_names_is_refused(shared):
    rng = np.random.default_rng(27)
    members = {b: BranchModel(b, _cfg(f), rng) for b, f in TWO.items()}
    if shared == "model":
        members["b"] = members["a"]
        message = "branches 'a' and 'b' share the weight 'embed_w'"
    else:
        members["b"].weights.action_w = members["a"].weights.action_w
        message = "branches 'a' and 'b' share the weight 'action_w'"
    with pytest.raises(ConfigError) as err:
        LateFusionModel(members, {"a": 1.0, "b": 1.0})
    assert str(err.value) == message + "; each branch needs a model of its own"
