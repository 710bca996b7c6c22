"""A recording pass does no work that backward would throw away.

A taped pass checks its input features for finiteness once, matmul's vjp
computes no gradient for an operand that can receive none, and the loss
ops return the shape their docstrings state.
"""

import numpy as np
import pytest

import groupact.model as model_module
from groupact.errors import NumericsError
from groupact.model import BranchConfig, BranchModel, EarlyFusionModel
from groupact.scenes import SceneConfig, generate
from groupact.seeding import rng_for
from groupact.tensor import (
    MODE_INFER,
    MODE_TRAIN,
    Graph,
    Tensor,
    add,
    cross_entropy,
    matmul,
    weighted_cross_entropy,
)
from groupact.training import loss_terms

FEATURE_DIM = 7  # no other array of the pass is 7 wide


def _scenes(count=5, seed=0):
    cfg = SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4, n_actors=(2, 6),
                      branch_dims={"a": FEATURE_DIM, "b": FEATURE_DIM}, seed=seed)
    return generate(cfg, count).scenes


def _cfg(**kw):
    return BranchConfig(feature_dim=FEATURE_DIM, num_actions=5, num_activities=4, d_model=8,
                        num_heads=2, num_layers=1, d_ff=16, dropout=0.0, **kw)


MODELS = {
    "branch": lambda: BranchModel("a", _cfg(), rng_for(0, "init")),
    "early-sum": lambda: EarlyFusionModel("sum", {"a": FEATURE_DIM, "b": FEATURE_DIM}, _cfg(),
                                          rng_for(0, "init")),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("mode", [MODE_INFER, MODE_TRAIN])
def test_a_pass_checks_its_features_once(monkeypatch, kind, mode):
    model, scenes = MODELS[kind](), _scenes()
    rows = sum(s.n_actors for s in scenes)
    isfinite, checked = np.isfinite, []

    def counting(x, *args, **kwargs):
        if np.shape(x) == (rows, FEATURE_DIM):
            checked.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    with Graph(mode):
        model.forward_batch(scenes, mode)
    assert len(checked) == (1 if kind == "branch" else 2)  # once per branch the model reads


def test_a_taped_pass_still_rejects_non_finite_features():
    model, scenes = MODELS["branch"](), _scenes()
    scenes[2].features["a"][1, 3] = np.inf
    with Graph(MODE_TRAIN):
        with pytest.raises(NumericsError, match="features"):
            model.forward_batch(scenes, MODE_TRAIN)


def test_raw_arrays_handed_to_a_recording_op_are_still_checked():
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    with Graph(MODE_TRAIN):
        with pytest.raises(NumericsError):
            matmul(np.array([[1.0, np.nan]]), w)
        with pytest.raises(NumericsError):
            add(np.array([[np.inf, 0.0, 0.0]]), matmul(np.ones((1, 2)), w))


def _matmul_grads(first):
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Graph(MODE_TRAIN) as graph:
        out = matmul(first, w)
        grads = graph.nodes[out._node_id][1](np.ones((4, 3)))
    return grads


def test_matmul_vjp_skips_an_operand_that_takes_no_gradient():
    x = np.random.default_rng(1).standard_normal((4, 2))
    skipped = _matmul_grads(Tensor(x))
    assert skipped[0] is None
    leaf = _matmul_grads(Tensor(x, requires_grad=True))
    assert leaf[0].shape == (4, 2)
    assert skipped[1].tobytes() == leaf[1].tobytes()
    with Graph(MODE_TRAIN):
        node = add(Tensor(x), Tensor(np.zeros(2)))  # a tape node takes its gradient
        assert node._node_id is not None
    assert _matmul_grads(node)[0].shape == (4, 2)


def test_embed_gradients_keep_their_bits_without_the_feature_gradient(monkeypatch):
    scenes = _scenes(6, seed=2)

    def grads():
        model = MODELS["early-sum"]()
        with Graph(MODE_TRAIN):
            pred = model.forward_batch(scenes, MODE_TRAIN)
            loss, _, _ = loss_terms(pred, [s.activity for s in scenes],
                                    np.concatenate([s.actions for s in scenes]))
            loss.backward()
        return {name: t.grad.tobytes() for name, t in model.parameters()}

    want = grads()
    leaves = []

    def as_leaf(features):  # features that take a gradient, so matmul's vjp computes it
        leaves.append(Tensor(features, requires_grad=True))
        return leaves[-1]

    monkeypatch.setattr(model_module, "_checked_features", as_leaf)
    assert grads() == want
    assert len(leaves) == 2 and all(np.abs(t.grad).sum() > 0 for t in leaves)


def test_loss_ops_return_a_one_element_tensor_as_documented():
    logits = np.random.default_rng(3).standard_normal((4, 3))
    ce = cross_entropy(logits, [0, 2, 1, 1])
    wce, _ = weighted_cross_entropy([(logits, [0, 2, 1, 1], 0.5), (logits[:2], [1, 0], 1.0)])
    assert isinstance(ce, Tensor) and ce.shape == (1,)
    assert isinstance(wce, Tensor) and wce.shape == (1,)
    for op in (cross_entropy, weighted_cross_entropy):
        assert "shape (1,)" in " ".join(op.__doc__.split())
        assert "0-d" not in op.__doc__
