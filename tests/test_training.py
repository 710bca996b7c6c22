import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import groupact
from groupact.errors import ConfigError, DataError, ParseError, TrainingDiverged, UsageError
from groupact.model import (
    BranchConfig,
    BranchModel,
    LateFusionModel,
    Prediction,
    branch_inputs,
    predict,
)
from groupact.scenes import SceneConfig, generate
from groupact.seeding import SHUFFLE, rng_for
from groupact.tensor import MODE_TRAIN, Graph, Tensor, matmul, mul, reshape
from groupact.training import (
    Adam,
    LossCurve,
    SgdMomentum,
    TrainConfig,
    _pack,
    _SceneStream,
    joint_loss,
    lr_at,
    make_optimizer,
    train,
)

from helpers import check_gradients

LOG8_PLUS_LOG9 = 4.276666119016055


def _uniform_pred(n=3, num_actions=9, num_activities=8):
    return Prediction(Tensor(np.zeros((n, num_actions))), Tensor(np.zeros(num_activities)))


def _model(seed=0, **kw):
    base = dict(feature_dim=8, num_actions=3, num_activities=2, d_model=8,
                num_heads=1, num_layers=1, d_ff=16, dropout=0.0, use_pe=True)
    base.update(kw)
    return BranchModel("static", BranchConfig(**base), rng_for(seed, "init"))


def _easy_dataset(count=32, seed=0):
    # one base class, so the activity is decided purely by the key actor's side
    cfg = SceneConfig(rule="key-actor-side", num_actions=3, num_activities=2,
                      n_actors=4, branch_dims={"static": 8}, noise=0.0, seed=seed)
    return generate(cfg, count)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((5, 0.01),))
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((0, 0.01), (100, 0.1), (100, 0.01)))
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((0, -0.01),))
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="beta2 must lie in"):
        TrainConfig(beta2=1.0)
    with pytest.raises(ConfigError, match="adam_eps must be positive"):
        TrainConfig(adam_eps=0.0)
    with pytest.raises(ConfigError, match="total_iterations must be >= 0"):
        TrainConfig(total_iterations=-1)
    with pytest.raises(ConfigError, match="loss weights must be >= 0"):
        TrainConfig(lambda_a=-0.5)
    TrainConfig(lr_schedule=((0, 0.0),))  # a zero rate is allowed


def test_lr_schedule_steps():
    sched = ((0, 0.01), (10000, 0.001))
    assert lr_at(sched, 0) == 0.01
    assert lr_at(sched, 9999) == 0.01
    assert lr_at(sched, 10000) == 0.001
    assert lr_at(sched, 250000) == 0.001
    three = ((0, 1e-4), (5000, 1e-5), (10000, 1e-6))
    assert lr_at(three, 4999) == 1e-4
    assert lr_at(three, 5000) == 1e-5
    assert lr_at(three, 99999) == 1e-6


def test_lr_at_refuses_a_negative_iteration():
    with pytest.raises(UsageError) as info:
        lr_at(((0, 0.01),), -1)
    assert str(info.value) == "iteration must be >= 0, got -1"


def test_joint_loss_uniform_logits():
    loss = joint_loss(_uniform_pred(), 3, [0, 4, 8])
    assert abs(loss.item() - LOG8_PLUS_LOG9) <= 1e-4


def test_joint_loss_group_only():
    loss = joint_loss(_uniform_pred(), 3, [0, 4, 8], lambda_a=0.0)
    assert abs(loss.item() - math.log(8)) <= 1e-12


def test_joint_loss_weights_scale_loss_and_grads():
    rng = np.random.default_rng(0)
    feats = Tensor(rng.standard_normal((3, 4)))
    w_act = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w_grp = Tensor(rng.standard_normal((4, 6)), requires_grad=True)

    def loss_and_grads(lg, la):
        for t in (w_act, w_grp):
            t.zero_grad()
        with Graph(MODE_TRAIN):
            action_logits = matmul(feats, w_act)
            activity_logits = reshape(matmul(feats, w_grp), (18,))
            pred = Prediction(action_logits, activity_logits)
            loss = joint_loss(pred, 2, [0, 1, 4], lambda_g=lg, lambda_a=la)
            loss.backward()
        return loss.item(), w_act.grad.copy(), w_grp.grad.copy()

    base, ga, gg = loss_and_grads(0.7, 1.3)
    doubled, ga2, gg2 = loss_and_grads(1.4, 2.6)
    npt.assert_allclose(doubled, 2 * base, rtol=1e-12)
    npt.assert_allclose(ga2, 2 * ga, rtol=1e-10, atol=1e-14)
    npt.assert_allclose(gg2, 2 * gg, rtol=1e-10, atol=1e-14)


def test_sgd_zero_momentum_is_plain_step():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = SgdMomentum([("w", w)], momentum=0.0)
    w.grad[...] = [0.5, -1.0]
    opt.step(0.1)
    npt.assert_allclose(w.data, [1.0 - 0.05, 2.0 + 0.1], rtol=1e-15)


def test_sgd_momentum_velocity_accumulates():
    w = Tensor(np.zeros(2), requires_grad=True)
    opt = SgdMomentum([("w", w)], momentum=0.9)
    g = np.array([1.0, -2.0])
    for _ in range(3):
        w.grad[...] = g
        opt.step(0.0)  # inspect the velocity without moving the weights
    npt.assert_allclose(opt.velocity["w"], 2.71 * g, rtol=1e-12)


def test_sgd_zero_grad_zero_velocity_is_noop():
    w = Tensor(np.array([3.0, -4.0]), requires_grad=True)
    opt = SgdMomentum([("w", w)])
    before = w.data.copy()
    opt.step(0.5)
    npt.assert_array_equal(w.data, before)


def test_adam_first_step_magnitude():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("w", w)])
    w.grad[...] = [0.5]
    opt.step(0.01)
    # bias correction makes the very first update -lr * g / (|g| + eps)
    assert abs(w.data[0] - (1.0 - 0.01)) <= 1e-10


def test_adam_zero_grad_is_noop():
    w = Tensor(np.array([2.0, -7.0]), requires_grad=True)
    opt = Adam([("w", w)])
    before = w.data.copy()
    for _ in range(4):
        opt.step(0.1)
    npt.assert_array_equal(w.data, before)


def test_adam_three_step_scalar_trace():
    grads = [0.3, -0.2, 0.05]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-10
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("w", w)], b1, b2, eps)

    x, m, v = 1.0, 0.0, 0.0
    for k, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** k)) / (math.sqrt(v / (1 - b2 ** k)) + eps)
        w.grad[...] = [g]
        opt.step(lr)
        npt.assert_allclose(w.data[0], x, rtol=1e-12)


def test_loss_curve_round_trip(tmp_path):
    curve = LossCurve()
    curve.append(0, 0.01, 1.5, 1.0, 0.5)
    curve.append(1, 0.01, 1.25, 0.75, 0.5)
    path = tmp_path / "loss.csv"
    curve.write_csv(path)
    back = LossCurve.read_csv(path)
    assert back.rows == curve.rows

    path.write_text("iteration,lr,oops\n")
    with pytest.raises(ParseError):
        LossCurve.read_csv(path)


def test_train_rejects_bad_inputs():
    model = _model()
    cfg = TrainConfig(total_iterations=1, batch_size=2)
    with pytest.raises(UsageError):
        train(model, [], cfg)
    with pytest.raises(UsageError):
        train(model, _easy_dataset(4).scenes, cfg, start_iteration=-1)
    late = LateFusionModel(
        {"a": BranchModel("a", model.cfg, rng_for(1, "init")),
         "b": BranchModel("b", model.cfg, rng_for(2, "init"))},
        {"a": 1.0, "b": 1.0},
    )
    with pytest.raises(UsageError):
        train(late, _easy_dataset(4).scenes, cfg)


def test_train_zero_lr_leaves_weights_alone():
    model = _model(3)
    before = [(name, t.data.copy()) for name, t in model.parameters()]
    cfg = TrainConfig(lr_schedule=((0, 0.0),), total_iterations=5, batch_size=4, seed=1)
    curve = train(model, _easy_dataset(16, seed=4).scenes, cfg)
    assert len(curve.rows) == 5
    for (name, old), (_, t) in zip(before, model.parameters()):
        npt.assert_array_equal(t.data, old, err_msg=name)


def test_train_same_seed_is_bit_identical():
    scenes = _easy_dataset(24, seed=5).scenes
    cfg = TrainConfig(lr_schedule=((0, 0.05),), total_iterations=8, batch_size=4, seed=2)
    runs = []
    for _ in range(2):
        model = _model(6, dropout=0.1)
        curve = train(model, scenes, cfg)
        runs.append((curve.rows, [t.data.copy() for _, t in model.parameters()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        npt.assert_array_equal(a, b)


def test_train_resume_matches_straight_run():
    scenes = _easy_dataset(20, seed=7).scenes
    cfg = TrainConfig(lr_schedule=((0, 0.05), (6, 0.01)), total_iterations=10,
                      batch_size=4, seed=3)

    straight = _model(8)
    full_curve = train(straight, scenes, cfg)

    resumed = _model(8)
    opt = make_optimizer(cfg, resumed.parameters())
    head = train(resumed, scenes, replace(cfg, total_iterations=6), optimizer=opt)
    tail = train(resumed, scenes, cfg, start_iteration=6, optimizer=opt)

    assert head.rows + tail.rows == full_curve.rows
    for (name, a), (_, b) in zip(straight.parameters(), resumed.parameters()):
        npt.assert_array_equal(a.data, b.data, err_msg=name)


@pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum"])
def test_optimizer_slots_must_match_in_name_and_shape(optimizer):
    cfg = TrainConfig(optimizer=optimizer)
    saved = {k: np.full(v.shape, 3.0) for k, v in
             make_optimizer(cfg, _model(1).parameters()).state_tensors()}
    opt = make_optimizer(cfg, _model(2).parameters())
    opt.load_state(saved)
    for key, value in opt.state_tensors():
        npt.assert_array_equal(value, saved[key], err_msg=key)
    name = next(k for k in saved if k != "optim/step")
    with pytest.raises(DataError, match=re.escape(f"missing optimizer slot {name!r}")):
        opt.load_state({k: v for k, v in saved.items() if k != name})
    with pytest.raises(DataError, match="unexpected optimizer slot 'optim/u/x'"):
        opt.load_state({**saved, "optim/u/x": np.zeros(1)})
    with pytest.raises(DataError, match=re.escape(f"optimizer slot {name!r} has shape (3,)")):
        opt.load_state({**saved, name: np.zeros(3)})


def test_train_loss_decreases_on_separable_toy():
    scenes = _easy_dataset(64, seed=9).scenes
    cfg = TrainConfig(optimizer="adam", lr_schedule=((0, 0.01),), total_iterations=500,
                      batch_size=8, seed=4)
    model = _model(10)
    curve = train(model, scenes, cfg)
    totals = [row[2] for row in curve.rows]
    assert all(t >= 0 for t in totals)
    assert totals[-1] < 0.1
    assert np.mean(totals[-100:]) < np.mean(totals[:100])
    hits = sum(predict(model.forward(branch_inputs(s)))[0] == s.activity for s in scenes)
    assert hits == len(scenes)


def test_train_diverges_with_huge_lr():
    scenes = _easy_dataset(8, seed=11).scenes
    # the iterations at which these rates first give non-finite values
    for lr, iteration in ((1e300, 1), (1e30, 6)):
        cfg = TrainConfig(lr_schedule=((0, lr),), total_iterations=50, batch_size=4, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match=f"iteration {iteration} "):
                train(_model(12), scenes, cfg)


def test_train_resume_with_dropout_matches_straight_run():
    # ragged scenes, so skipping the dropout draws of earlier batches must
    # count each batch's actors
    cfg_s = SceneConfig(rule="key-actor-side", num_actions=3, num_activities=2,
                        n_actors=(1, 6), branch_dims={"static": 8}, noise=0.5, seed=13)
    scenes = generate(cfg_s, 30).scenes
    cfg = TrainConfig(optimizer="adam", lr_schedule=((0, 0.01),), total_iterations=10,
                      batch_size=4, seed=3)

    straight = _model(8, dropout=0.1)
    full_curve = train(straight, scenes, cfg)

    resumed = _model(8, dropout=0.1)
    opt = make_optimizer(cfg, resumed.parameters())
    head = train(resumed, scenes, replace(cfg, total_iterations=6), optimizer=opt)
    tail = train(resumed, scenes, cfg, start_iteration=6, optimizer=opt)

    assert head.rows + tail.rows == full_curve.rows
    for (name, a), (_, b) in zip(straight.parameters(), resumed.parameters()):
        npt.assert_array_equal(a.data, b.data, err_msg=name)


# 30 ragged scenes in batches of 4: an epoch is 7.5 iterations, so a resume
# at 15 lands on the end of the second epoch, and one at 17 or 40 spans
# whole epochs plus part of the next
@pytest.mark.parametrize("start", [15, 17, 40])
def test_train_resume_across_epochs_matches_straight_run(start):
    cfg_s = SceneConfig(rule="key-actor-side", num_actions=3, num_activities=2,
                        n_actors=(1, 6), branch_dims={"static": 8}, noise=0.5, seed=13)
    scenes = generate(cfg_s, 30).scenes
    cfg = TrainConfig(optimizer="adam", lr_schedule=((0, 0.01),), total_iterations=start + 3,
                      batch_size=4, seed=3)

    straight = _model(8, dropout=0.1)
    full_curve = train(straight, scenes, cfg)

    resumed = _model(8, dropout=0.1)
    opt = make_optimizer(cfg, resumed.parameters())
    head = train(resumed, scenes, replace(cfg, total_iterations=start), optimizer=opt)
    tail = train(resumed, scenes, cfg, start_iteration=start, optimizer=opt)

    assert head.rows + tail.rows == full_curve.rows
    for (name, a), (_, b) in zip(straight.parameters(), resumed.parameters()):
        npt.assert_array_equal(a.data, b.data, err_msg=name)


def test_scene_stream_skip_takes_what_take_takes():
    scenes = generate(SceneConfig(rule="key-actor-side", num_actions=3, num_activities=2,
                                  n_actors=(1, 6), branch_dims={"static": 8}, seed=2), 7).scenes
    actors = np.array([len(s.actions) for s in scenes])
    for first, count in ((0, 0), (0, 5), (0, 7), (0, 21), (0, 23), (3, 4), (3, 2), (5, 30)):
        skipped, taken = (_SceneStream(7, rng_for(1, SHUFFLE)) for _ in range(2))
        skipped.take(first), taken.take(first)
        assert skipped.skip(count, actors.tolist()) == actors[taken.take(count)].sum()
        npt.assert_array_equal(skipped.queue, taken.queue)
        npt.assert_array_equal(skipped.take(9), taken.take(9))


def test_train_leaves_no_garbage_cycles():
    import gc

    cfg_s = SceneConfig(rule="key-actor-side", num_actions=9, num_activities=8, n_actors=12,
                        branch_dims={"static": 16}, noise=0.5, seed=0)
    scenes = generate(cfg_s, 64).scenes
    model = _model(0, feature_dim=16, num_actions=9, num_activities=8, d_model=32, d_ff=64,
                   dropout=0.1)
    cfg = TrainConfig(optimizer="adam", lr_schedule=((0, 0.01),), total_iterations=10,
                      batch_size=16)
    gc.collect()
    gc.disable()
    try:
        train(model, scenes, cfg)
        found = gc.collect()
    finally:
        gc.enable()
    assert found < 100


class _Scaled:
    """A one-weight model: every scene's activity logits are w * scale, finite
    values whose loss or gradients can still overflow."""

    kind = "branch"
    encoder = None

    def __init__(self, w, scale):
        self.w = Tensor(np.asarray(w, dtype=np.float64), requires_grad=True)
        self.scale = scale

    def parameters(self):
        return [("w", self.w)]

    def forward_batch(self, batch, mode, rng):
        sizes = [len(scene.features["static"]) for scene in batch]
        ones = Tensor(np.ones((len(batch), 1)))
        actions = Tensor(np.zeros((sum(sizes), 3)))
        return Prediction(actions, mul(matmul(ones, self.w), self.scale), sizes=tuple(sizes))


@pytest.mark.parametrize("w, scale, lambda_g, what", [
    # logits +-1e308 are finite, but their softmax overflows: an infinite loss
    ([[1e308, -1e308]], 1.0, 1.0, "loss"),
    # logits about 1 give a finite loss; d/dw = 1e308 * (dloss/dlogits) overflows
    ([[1e-308, -1e-308]], 1e308, 1e10, "gradient"),
])
def test_divergence_is_caught_at_the_loss_and_the_gradients(w, scale, lambda_g, what):
    scenes = _easy_dataset(8, seed=11).scenes
    model = _Scaled(w, scale)
    before = model.w.data.copy()
    cfg = TrainConfig(lr_schedule=((0, 0.1),), total_iterations=3, batch_size=4,
                      lambda_g=lambda_g)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match=f"iteration 0 .*non-finite {what}"):
            train(model, scenes, cfg)
    npt.assert_array_equal(model.w.data, before)  # raised before the optimizer step


@pytest.mark.parametrize("skip", [0, 5, 12, 12 * 3 + 7])
def test_scene_stream_skip_matches_take(skip):
    actors = np.arange(12) % 5 + 1
    stepped, skipped = (_SceneStream(12, rng_for(7, SHUFFLE)) for _ in range(2))
    stepped.take(3)
    skipped.take(3)
    passed = stepped.take(skip)
    assert skipped.skip(skip, actors) == actors[passed].sum()
    npt.assert_array_equal(skipped.queue, stepped.queue)
    assert skipped.rng.bit_generator.state == stepped.rng.bit_generator.state
    npt.assert_array_equal(skipped.take(20), stepped.take(20))


def test_optimizer_arena_survives_in_place_gradient_checks():
    model = _model(30, dropout=0.0)
    params = model.parameters()
    initial = {name: t.data.copy() for name, t in params}
    opt = Adam(params)
    for name, t in params:  # packing copies the values
        npt.assert_array_equal(t.data, initial[name], err_msg=name)
    scene = _easy_dataset(4, seed=31).scenes[0]

    def loss():
        return joint_loss(model.forward(branch_inputs(scene), MODE_TRAIN), scene.activity,
                          scene.actions)

    # perturbs and restores every weight in place through the per-name views
    check_gradients(loss, params)
    grads = {name: t.grad.copy() for name, t in params}
    assert any(g.any() for g in grads.values())
    opt.step(0.01)
    for name, t in params:
        g = grads[name]
        m, v = (1.0 - 0.9) * g, (1.0 - 0.999) * (g * g)
        want = initial[name] - 0.01 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-10)
        npt.assert_array_equal(t.data, want, err_msg=name)
        npt.assert_array_equal(opt.m[name], m, err_msg=name)
    opt.zero_grads()
    assert not any(t.grad.any() for _, t in params)


def test_second_optimizer_over_the_same_parameters_updates_them():
    model = _model(32)
    params = model.parameters()
    first = SgdMomentum(params, momentum=0.0)
    second = SgdMomentum(params, momentum=0.0)
    for rate, opt in ((0.1, second), (0.2, first)):
        before = [t.data.copy() for _, t in params]
        for _, t in params:
            t.grad[...] = 1.0
        opt.step(rate)
        for (name, t), old in zip(params, before):
            npt.assert_array_equal(t.data, old - rate, err_msg=name)
    # training with a fresh default optimizer moves the same weights too
    before = [t.data.copy() for _, t in params]
    train(model, _easy_dataset(8).scenes, TrainConfig(total_iterations=1, batch_size=4))
    assert any((t.data != old).any() for (_, t), old in zip(params, before))


_OPTIMIZERS = [SgdMomentum, Adam]


@pytest.mark.parametrize("make", _OPTIMIZERS, ids=["sgd", "adam"])
def test_step_refuses_parameters_another_optimizer_repacked(make):
    model = _model(33)
    params = model.parameters()
    first = make(params)
    make(list(reversed(params)))  # another order: copies and rebinds every parameter
    for _, t in params:
        t.grad[...] = 1.0
    before = [t.data.copy() for _, t in params]
    with pytest.raises(UsageError, match="^parameter 'embed_w' moved since its optimizer"):
        first.step(0.1)
    for (name, t), old in zip(params, before):
        npt.assert_array_equal(t.data, old, err_msg=name)


@pytest.mark.parametrize("make", _OPTIMIZERS, ids=["sgd", "adam"])
def test_step_refuses_parameters_that_late_fusion_moved(make):
    members = {b: BranchModel(b, _model().cfg, rng_for(34 + i, "init"))
               for i, b in enumerate("ab")}
    early = make(members["a"].parameters())
    LateFusionModel(members, {"a": 1.0, "b": 1.0})
    with pytest.raises(UsageError, match="^parameter 'embed_w' moved since its optimizer"):
        early.step(0.1)
    late = make(members["a"].parameters())  # built after wrapping, it steps
    late.step(0.1)


def _param(data, grad):
    t = Tensor(np.zeros(data.shape), requires_grad=True)
    t.data, t.grad = data, grad
    return t


def test_pack_keeps_runs_inside_larger_arrays_and_copies_the_rest():
    weights, grads = np.arange(20.0), np.zeros(30)
    # .data back to back inside a larger array, .grad in two arrays of their own
    a = _param(weights[5:11].reshape(2, 3), np.zeros((2, 3)))
    b = _param(weights[11:15], np.zeros(4))
    own = b.grad
    data, grad, views = _pack([("a", a), ("b", b)])
    assert np.shares_memory(data, weights) and data.shape == (10,)
    assert a.data.base is weights and b.data.base is weights
    data += 100.0
    npt.assert_array_equal(weights[5:15], np.arange(5.0, 15.0) + 100.0)
    assert b.grad is not own and np.shares_memory(b.grad, grad)
    assert [v.shape for v in views(grad)] == [(2, 3), (4,)]
    # .grad back to back inside a larger array, .data out of order: only .data moves
    free = np.arange(10.0)
    c = _param(free[6:10], grads[3:7])
    d = _param(free[:6].reshape(2, 3), grads[7:13].reshape(2, 3))
    data, grad, _ = _pack([("c", c), ("d", d)])
    assert not np.shares_memory(data, free)
    npt.assert_array_equal(data, np.r_[6.0:10.0, 0.0:6.0])
    assert c.data.base is data and d.data.base is data
    assert np.shares_memory(grad, grads) and grad.shape == (10,)
    assert c.grad.base is grads and d.grad.base is grads
    # a gap between two arrays is no run
    e = _param(weights[0:2], np.zeros(2))
    f = _param(weights[3:5], np.zeros(2))
    data, _, _ = _pack([("e", e), ("f", f)])
    assert not np.shares_memory(data, weights)
    npt.assert_array_equal(data, [0.0, 1.0, 3.0, 4.0])


# One warm-up step (first-use costs of numpy and the tape), then 30 steps of
# the README quick start on scenes held in memory, in a fresh process.
FAULTS_PER_STEP = """
import resource
from dataclasses import replace

from groupact.model import BranchConfig, BranchModel
from groupact.scenes import SceneConfig, generate
from groupact.seeding import rng_for
from groupact.training import TrainConfig, make_optimizer, train

scenes = generate(SceneConfig(rule="key-actor-side", num_actions=9, num_activities=8,
                              n_actors=12, branch_dims={"static": 16}), 200).scenes
model = BranchModel("static", BranchConfig(feature_dim=16, num_actions=9, num_activities=8,
                                           d_model=32, d_ff=64, dropout=0.1, use_pe=True),
                    rng_for(0, "init"))
cfg = TrainConfig(optimizer="adam", lr_schedule=((0, 0.01),), batch_size=16, total_iterations=1)
optimizer = make_optimizer(cfg, model.parameters())
train(model, scenes, cfg, optimizer=optimizer)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(model, scenes, replace(cfg, total_iterations=31), start_iteration=1, optimizer=optimizer)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor faults of glibc's heap trimming on Linux")
def test_fresh_process_train_steps_keep_their_freed_heap():
    # glibc trims a step's freed heap back to the OS unless told not to, and
    # the next step faults it back in: about 320 faults per step
    env = {**os.environ, "PYTHONPATH": str(Path(groupact.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert float(out.stdout) < 20
