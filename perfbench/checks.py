"""Correctness checks on a workload's own outputs.

Each check returns a list of failure messages, empty when it holds. The
plain-numpy forward below is written apart from the package's tensor code,
so an error in the tape or the layers cannot hide in both.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from groupact.model import BranchModel, EarlyFusionModel, LateFusionModel, branch_inputs
from groupact.tensor import MODE_INFER, MODE_TRAIN, Graph
from groupact.training import joint_loss

FORWARD_RTOL = 1e-10
FD_STEP = 1e-5
FD_RTOL = 1e-4
FD_FLOOR = 1e-4


def _softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gain + bias


def _position_codes(centers, d_model, scale):
    """sin/cos ramp of x in the first half of the width, of y in the second."""
    half = d_model // 2
    out = np.empty((len(centers), d_model))
    for col, offset in ((0, 0), (1, half)):
        pos = centers[:, col:col + 1] * scale
        angles = pos / 10000.0 ** (np.arange(0, half, 2) / half)
        out[:, offset:offset + half:2] = np.sin(angles)
        out[:, offset + 1:offset + half:2] = np.cos(angles)
    return out


def _encoder(x, encoder):
    for layer in encoder.layers:
        heads = []
        for wq, wk, wv in zip(layer.w_q, layer.w_k, layer.w_v):
            q, k, v = x @ wq.data, x @ wk.data, x @ wv.data
            heads.append(_softmax(q @ k.T / math.sqrt(q.shape[1])) @ v)
        attended = np.concatenate(heads, axis=1) @ layer.attn_out.data
        x = _layer_norm(x + attended, layer.ln1_gain.data, layer.ln1_bias.data)
        inner = np.maximum(x @ layer.ff1_w.data + layer.ff1_b.data, 0.0)
        ff = inner @ layer.ff2_w.data + layer.ff2_b.data
        x = _layer_norm(x + ff, layer.ln2_gain.data, layer.ln2_bias.data)
    return x


def _readout(x, action_w, activity_w):
    return x @ action_w.data, x.max(axis=0) @ activity_w.data


def oracle_logits(model, scene):
    """(action logits, activity logits) of one scene in inference mode.

    Covers single-branch and early-concat models with post-embed codes,
    the configurations the workloads use.
    """
    if isinstance(model, BranchModel):
        cfg, w = model.cfg, model.weights
        x = scene.features[model.branch] @ w.embed_w.data + w.embed_b.data
        if cfg.use_pe:
            x = x + _position_codes(scene.centers, cfg.d_model, cfg.pe_scale)
        if w.encoder is not None:
            x = _encoder(x, w.encoder)
        return _readout(x, w.action_w, w.activity_w)
    if isinstance(model, EarlyFusionModel):
        cfg = model.cfg
        parts = [scene.features[b] @ model.embeds[b][0].data + model.embeds[b][1].data
                 for b in model.branches]
        x = np.concatenate(parts, axis=1) @ model.proj.data
        if cfg.use_pe:
            x = x + _position_codes(scene.centers, cfg.d_model, cfg.pe_scale)
        if model.encoder is not None:
            x = _encoder(x, model.encoder)
        return _readout(x, model.action_w, model.activity_w)
    raise TypeError(f"no oracle for {type(model).__name__}")


def _rel_gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def check_forward(model, scenes) -> list:
    """model.forward logits equal the plain-numpy forward within FORWARD_RTOL."""
    models = model.models.values() if isinstance(model, LateFusionModel) else (model,)
    fails = []
    for m in models:
        for scene in scenes:
            pred = m.forward(branch_inputs(scene), MODE_INFER)
            want_a, want_g = oracle_logits(m, scene)
            gap = max(_rel_gap(pred.action_logits.data, want_a),
                      _rel_gap(pred.activity_logits.data, want_g))
            if not gap <= FORWARD_RTOL:
                fails.append(f"forward of scene {scene.scene_id} off the numpy oracle by {gap:.3g}")
    return fails


def _batch_loss(model, batch, seed):
    """Mean joint loss of a batch, with dropout masks fixed by the seed."""
    rng = np.random.default_rng(seed)
    total = None
    for scene in batch:
        pred = model.forward(branch_inputs(scene), MODE_TRAIN, rng)
        term = joint_loss(pred, scene.activity, scene.actions)
        total = term if total is None else total + term
    return total * (1.0 / len(batch))


def check_gradients(model, batch, seed, entries=6) -> list:
    """Backward-pass gradients match central differences on a few entries."""
    models = model.models.values() if isinstance(model, LateFusionModel) else (model,)
    fails = []
    pick = np.random.default_rng(seed)
    for m in models:
        params = m.parameters()
        saved = {name: t.grad.copy() for name, t in params}
        for _, t in params:
            t.zero_grad()
        with Graph(MODE_TRAIN):
            _batch_loss(m, batch, seed).backward()
        for _ in range(entries):
            name, t = params[int(pick.integers(len(params)))]
            flat, i = t.data.reshape(-1), int(pick.integers(t.data.size))
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = _batch_loss(m, batch, seed).item()
            flat[i] = orig - FD_STEP
            down = _batch_loss(m, batch, seed).item()
            flat[i] = orig
            numeric = (up - down) / (2 * FD_STEP)
            analytic = float(t.grad.reshape(-1)[i])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), FD_FLOOR)
            if not err <= FD_RTOL:
                fails.append(f"gradient of {name}[{i}] is {analytic:.6g}, "
                             f"central difference {numeric:.6g}")
        for name, t in params:
            t.grad[...] = saved[name]
    return fails


def check_late_mix(model, scenes) -> list:
    """Late-fusion outputs are the weighted sum of per-branch softmaxes, rows sum to 1."""
    fails = []
    for scene in scenes:
        inputs = branch_inputs(scene)
        pred = model.forward(inputs, MODE_INFER)
        want_a = want_g = 0.0
        for b in model.branches:
            sub = model.models[b].forward(inputs, MODE_INFER)
            want_a = want_a + model.weights[b] * _softmax(sub.action_logits.data)
            want_g = want_g + model.weights[b] * _softmax(sub.activity_logits.data)
        got_a, got_g = pred.action_logits.data, pred.activity_logits.data
        gap = max(_rel_gap(got_a, want_a), _rel_gap(got_g, want_g))
        if not gap <= FORWARD_RTOL:
            fails.append(f"late mix of scene {scene.scene_id} off by {gap:.3g}")
        row_err = max(np.abs(got_a.sum(axis=1) - 1).max(), abs(got_g.sum() - 1))
        if not row_err <= 1e-12:
            fails.append(f"late-fusion rows of scene {scene.scene_id} sum 1 +- {row_err:.3g}")
    return fails


def check_majority_labels(scenes) -> list:
    """Every label is the unique most common action, counted apart from the package."""
    fails = []
    for scene in scenes:
        ranked = Counter(int(a) for a in scene.actions).most_common()
        unique = len(ranked) == 1 or ranked[0][1] > ranked[1][1]
        if not unique or ranked[0][0] != scene.activity:
            fails.append(f"scene {scene.scene_id} label {scene.activity} is not the unique "
                         f"majority of {[int(a) for a in scene.actions]}")
    return fails


def check_confusion_totals(report, scenes) -> list:
    actors = sum(len(s.actions) for s in scenes)
    got = (report.n_scenes, int(report.group_confusion.sum()), int(report.action_confusion.sum()))
    if got != (len(scenes), len(scenes), actors):
        return [f"confusion totals {got} for {len(scenes)} scenes and {actors} actors"]
    return []


def check_dataset_round_trip(saved, loaded) -> list:
    return [] if loaded == saved else ["load(save(dataset)) differs from the dataset"]


def check_checkpoint_round_trip(model, iteration, extras, loaded) -> list:
    """load(save(model)) restores kind, iteration, every parameter and every slot bit-exact."""
    got_model, got_iteration, got_extras = loaded
    fails = []
    if got_model.kind != model.kind or got_iteration != iteration:
        fails.append(f"checkpoint came back as {got_model.kind} at {got_iteration}")
    want = dict((name, t.data) for name, t in model.parameters())
    got = dict((name, t.data) for name, t in got_model.parameters())
    want.update(extras)
    got.update(got_extras)
    if sorted(want) != sorted(got) or not all(
        np.array_equal(want[k], got[k]) for k in want
    ):
        fails.append("load(save(checkpoint)) differs from the saved state")
    return fails
