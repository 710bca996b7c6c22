"""Joint training of action and activity heads.

The loss for one scene is lambda_g * CE(activity) + lambda_a * CE(actions),
with the action term averaged over the scene's actors; a batch averages the
scene losses. Each step runs the whole minibatch as one packed forward pass,
one loss node and one backward pass. Optimizers are plain SGD with momentum
and Adam, with a piecewise-constant learning-rate schedule; each packs the
parameters into one vector and updates them with a few vector ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericsError, ParseError, TrainingDiverged, UsageError
from .fileio import atomic_write_text, f17, read_text
# branch_inputs stays bound here, where perfbench/spans.py wraps it
from .model import Prediction, SceneBatch, branch_inputs  # noqa: F401
from .seeding import DROPOUT, SHUFFLE, rng_for
from .tensor import MODE_TRAIN, DropoutDraws, Graph, Tensor, reshape, weighted_cross_entropy
from .transformer import dropout_widths

OPT_SGD_MOMENTUM = "sgd-momentum"
OPT_ADAM = "adam"

CURVE_COLUMNS = ("iteration", "lr", "total_loss", "activity_loss", "action_loss")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = OPT_SGD_MOMENTUM
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-10
    # (start_iteration, lr) pairs; the last pair at or before the current
    # iteration applies. Must start at iteration 0.
    lr_schedule: tuple = ((0, 0.01),)
    batch_size: int = 16
    total_iterations: int = 20000
    lambda_g: float = 1.0
    lambda_a: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in (OPT_SGD_MOMENTUM, OPT_ADAM):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        sched = tuple((int(i), float(lr)) for i, lr in self.lr_schedule)
        if not sched or sched[0][0] != 0:
            raise ConfigError(f"lr_schedule must start at iteration 0, got {sched}")
        for (i0, _), (i1, _) in zip(sched, sched[1:]):
            if i1 <= i0:
                raise ConfigError(f"lr_schedule iterations must increase, got {sched}")
        # lr 0 is allowed: it makes a run a deliberate no-op.
        if any(lr < 0 for _, lr in sched):
            raise ConfigError(f"learning rates must be >= 0, got {sched}")
        object.__setattr__(self, "lr_schedule", sched)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_iterations < 0:
            raise ConfigError(f"total_iterations must be >= 0, got {self.total_iterations}")
        if self.lambda_g < 0 or self.lambda_a < 0:
            raise ConfigError("loss weights must be >= 0")


def lr_at(schedule, iteration: int) -> float:
    if iteration < 0:
        raise UsageError(f"iteration must be >= 0, got {iteration}")
    current = schedule[0][1]
    for start, lr in schedule:
        if start > iteration:
            break
        current = lr
    return current


def loss_terms(pred: Prediction, activity_labels, action_labels, lambda_g=1.0, lambda_a=1.0):
    """Joint loss of a batch Prediction as one tape node, and its two terms.

    activity_labels holds one label per scene, action_labels one per packed
    actor row. Returns (loss, activity CE, action CE): loss is the mean over
    scenes of lambda_g * CE(activity) + lambda_a * (mean CE over the scene's
    actors), and the two floats are those means unweighted.
    """
    sizes = np.asarray(pred.sizes)
    scenes = len(sizes)
    actor_w = np.repeat(1.0 / (scenes * sizes), sizes)
    loss, (ce_g, ce_a) = weighted_cross_entropy([
        (pred.activity_logits, activity_labels, lambda_g / scenes),
        (pred.action_logits, action_labels, lambda_a * actor_w),
    ])
    return loss, float(ce_g.mean()), float(actor_w @ ce_a)


def joint_loss(pred: Prediction, activity_label, action_labels, lambda_g=1.0,
               lambda_a=1.0) -> Tensor:
    """Joint loss of a one-scene Prediction."""
    g = pred.activity_logits
    batch = Prediction(pred.action_logits, reshape(g, (1, g.shape[0])),
                       sizes=(pred.action_logits.shape[0],))
    return loss_terms(batch, [activity_label], np.asarray(action_labels), lambda_g, lambda_a)[0]


def _pack(params):
    """(data, grad, views): one float64 vector that every parameter's .data
    views, one for .grad, and views(vec), which splits such a vector into
    per-parameter views. Parameters already packed in this order keep their
    vectors, so every optimizer over them updates the same weights.
    """
    tensors = [t for _, t in params]
    bounds = np.cumsum([0] + [t.size for t in tensors]).tolist()

    def views(vec):
        return [vec[a:b].reshape(t.shape) for a, b, t in zip(bounds, bounds[1:], tensors)]

    data = tensors[0].data.base
    if data is not None and data.size == bounds[-1] and all(
            t.data.base is data and t.data.ctypes.data == data.ctypes.data + 8 * a
            for t, a in zip(tensors, bounds)):
        return data, tensors[0].grad.base, views
    data = np.concatenate([t.data.ravel() for t in tensors])
    grad = np.concatenate([t.grad.ravel() for t in tensors])
    for t, d, g in zip(tensors, views(data), views(grad)):
        t.data, t.grad = d, g
    return data, grad, views


def _slots(slot: str, store: dict) -> list:
    """An optimizer slot's per-parameter views under their checkpoint names."""
    return [(f"optim/{slot}/{name}", view) for name, view in store.items()]


def _load_state(extras: dict, slots: list):
    """Copy a checkpoint's optimizer slots into slots, an optimizer's
    state_tensors(). The checkpoint's optim/ names must be exactly those, so
    one optimizer's state never loads as another's."""
    # extras is a plain dict; whoever read it from a file names the file
    names = {key for key, _ in slots}
    for key, _ in slots:
        if key not in extras:
            raise DataError(f"missing optimizer slot {key!r}")
    for key in extras:
        if key.startswith("optim/") and key not in names:
            raise DataError(f"unexpected optimizer slot {key!r}")
    for key, view in slots:
        if extras[key].shape != view.shape:
            raise DataError(f"optimizer slot {key!r} has shape {extras[key].shape}, "
                            f"expected {view.shape}")
        view[...] = extras[key]


class SgdMomentum:
    """v <- momentum * v + grad; w <- w - lr * v, over the packed parameters."""

    kind = OPT_SGD_MOMENTUM

    def __init__(self, params, momentum: float = 0.9):
        params = list(params)
        names = [name for name, _ in params]
        self.momentum = momentum
        self._data, self._grad, views = _pack(params)
        self._v, self._tmp = np.zeros_like(self._data), np.empty_like(self._data)
        self.velocity = dict(zip(names, views(self._v)))

    def zero_grads(self):
        self._grad.fill(0.0)

    def step(self, lr: float):
        self._v *= self.momentum
        self._v += self._grad
        self._data -= np.multiply(self._v, lr, out=self._tmp)

    def state_tensors(self):
        return _slots("v", self.velocity)

    def load_state(self, extras: dict):
        _load_state(extras, self.state_tensors())


class Adam:
    """Bias-corrected Adam (eps added outside the square root) over the
    packed parameters."""

    kind = OPT_ADAM

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-10):
        params = list(params)
        names = [name for name, _ in params]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._data, self._grad, views = _pack(params)
        self._m, self._v = np.zeros_like(self._data), np.zeros_like(self._data)
        self._a, self._b = np.empty_like(self._data), np.empty_like(self._data)
        self.m = dict(zip(names, views(self._m)))
        self.v = dict(zip(names, views(self._v)))
        self.count = 0

    def zero_grads(self):
        self._grad.fill(0.0)

    def step(self, lr: float):
        # w -= lr * (m / c1) / (sqrt(v / c2) + eps), one elementwise op at a time
        self.count += 1
        c1 = 1.0 - self.beta1 ** self.count
        c2 = 1.0 - self.beta2 ** self.count
        g, m, v, a, b = self._grad, self._m, self._v, self._a, self._b
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
        np.multiply(np.divide(m, c1, out=a), lr, out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
        self._data -= np.divide(a, b, out=a)

    def state_tensors(self):
        step = [("optim/step", np.array(float(self.count)))]
        return step + _slots("m", self.m) + _slots("v", self.v)

    def load_state(self, extras: dict):
        _load_state(extras, self.state_tensors())  # the step slot is a copy of count
        self.count = int(extras["optim/step"])


def make_optimizer(cfg: TrainConfig, params):
    if cfg.optimizer == OPT_SGD_MOMENTUM:
        return SgdMomentum(params, cfg.momentum)
    return Adam(params, cfg.beta1, cfg.beta2, cfg.adam_eps)


@dataclass
class LossCurve:
    rows: list = field(default_factory=list)  # (iteration, lr, total, activity, action)

    def append(self, iteration, lr, total, activity, action):
        self.rows.append((int(iteration), float(lr), float(total), float(activity), float(action)))

    def write_csv(self, path):
        lines = [",".join(CURVE_COLUMNS)]
        for it, lr, total, act_g, act_a in self.rows:
            lines.append(f"{it},{f17(lr)},{f17(total)},{f17(act_g)},{f17(act_a)}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    @staticmethod
    def read_csv(path):
        lines = read_text(path).splitlines()
        if not lines or lines[0] != ",".join(CURVE_COLUMNS):
            raise ParseError(path, 1, "bad loss-curve header")
        curve = LossCurve()
        for no, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != 5:
                raise ParseError(path, no, f"expected 5 columns, got {len(cells)}")
            try:
                curve.append(int(cells[0]), *[float(c) for c in cells[1:]])
            except ValueError as exc:
                raise ParseError(path, no, str(exc)) from None
            if not np.isfinite(curve.rows[-1][1:]).all():
                raise ParseError(path, no, "non-finite value")
        return curve


class _SceneStream:
    """Endless stream of scene indices: one shuffled permutation per epoch.

    Batches of a fixed size are drawn off the stream, so a batch may span an
    epoch boundary but never shrinks.
    """

    def __init__(self, count: int, rng):
        self.count = count
        self.rng = rng
        self.queue = np.empty(0, dtype=np.int64)

    def take(self, size: int) -> np.ndarray:
        epochs = -(-(size - len(self.queue)) // self.count)  # permutations still needed
        if epochs > 0:
            self.queue = np.concatenate(
                [self.queue] + [self.rng.permutation(self.count) for _ in range(epochs)])
        out, self.queue = self.queue[:size], self.queue[size:]
        return out

    def skip(self, count: int, actors: np.ndarray) -> int:
        """Pass over the next count indices as take(count) does; returns the
        total of actors (one count per scene) over them."""
        return int(actors[self.take(count)].sum())


def train(model, scenes, cfg: TrainConfig, *, start_iteration: int = 0, optimizer=None) -> LossCurve:
    """Run iterations [start_iteration, cfg.total_iterations) over the scenes.

    Every random draw derives from cfg.seed, so the same inputs produce a
    bit-identical loss curve and final weights. Raises TrainingDiverged, and
    leaves the weights as they were, at the first iteration whose logits,
    loss or parameter gradients go non-finite.
    """
    if getattr(model, "kind", None) == "late":
        raise UsageError("late fusion has no joint objective; train each branch on its own")
    if not scenes:
        raise UsageError("train() needs a non-empty scene list")
    if start_iteration < 0:
        raise UsageError(f"start_iteration must be >= 0, got {start_iteration}")
    params = model.parameters()
    if optimizer is None:
        optimizer = make_optimizer(cfg, params)
    grads = _pack(params)[1]
    stream = _SceneStream(len(scenes), rng_for(cfg.seed, SHUFFLE))
    # One dropout stream serves the whole run. A resumed run advances it
    # past every draw of the iterations before start_iteration, so it
    # continues with the masks the straight run would draw.
    widths = dropout_widths(model.encoder)
    dropout_rng = rng_for(cfg.seed, DROPOUT)
    if start_iteration:
        actors = np.array([len(scene.actions) for scene in scenes])  # n_actors, minus a call
        skipped = stream.skip(start_iteration * cfg.batch_size, actors)
        dropout_rng.bit_generator.advance(skipped * sum(widths))
    curve = LossCurve()
    for it in range(start_iteration, cfg.total_iterations):
        lr = lr_at(cfg.lr_schedule, it)
        optimizer.zero_grads()
        batch = [scenes[idx] for idx in stream.take(cfg.batch_size)]
        draws = DropoutDraws(dropout_rng, [scene.n_actors for scene in batch], widths)
        try:
            with Graph(MODE_TRAIN):
                pred = model.forward_batch(SceneBatch(batch), MODE_TRAIN, draws)
                loss, ce_g, ce_a = loss_terms(
                    pred, [scene.activity for scene in batch],
                    np.concatenate([scene.actions for scene in batch]),
                    cfg.lambda_g, cfg.lambda_a)
                if not np.isfinite(loss.data):
                    raise NumericsError("non-finite loss")
                loss.backward()
            if not np.isfinite(grads).all():
                raise NumericsError("non-finite gradient")
        except NumericsError as exc:
            raise TrainingDiverged(f"diverged at iteration {it} (lr {lr}): {exc}") from exc
        optimizer.step(lr)
        curve.append(it, lr, loss.item(), ce_g, ce_a)
    return curve
