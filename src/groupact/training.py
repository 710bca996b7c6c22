"""Joint training of action and activity heads.

The loss for one scene is lambda_g * CE(activity) + lambda_a * CE(actions),
with the action term averaged over the scene's actors; a batch averages the
scene losses. Each step runs the minibatch as one packed forward pass, given
the run's dropout Generator (encode draws its masks scene by scene), one loss
node and one backward pass. Optimizers, SGD with momentum and Adam, follow a
piecewise-constant lr schedule and update the parameters as one vector;
a step raises UsageError once a parameter no longer lies in that vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericsError, ParseError, TrainingDiverged, UsageError
from .fileio import atomic_write_text, check_lines, f17, read_text
# branch_inputs stays bound here, where perfbench/spans.py wraps it
from .model import Prediction, branch_inputs  # noqa: F401
from .seeding import DROPOUT, SHUFFLE, rng_for
from .tensor import MODE_TRAIN, Graph, Tensor, reshape, weighted_cross_entropy
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


def _run(arrays):
    """The 1-d view of the one float64 array in which arrays, C-contiguous
    views of it, lie back to back in their order; None if they do not."""
    base = arrays[0].base
    if not (isinstance(base, np.ndarray) and base.dtype == np.float64
            and base.flags.c_contiguous):
        return None
    start = at = arrays[0].ctypes.data
    for a in arrays:
        if a.base is not base or a.ctypes.data != at or not a.flags.c_contiguous:
            return None
        at += a.nbytes
    first = (start - base.ctypes.data) // 8
    return base.reshape(-1)[first:first + (at - start) // 8]


def _pack(params):
    """(data, grad, views): one float64 vector that every parameter's .data
    views, one for .grad, and views(vec), which splits such a vector into
    per-parameter views. Arrays that already lie back to back in this order
    inside one larger array keep it, .data and .grad each on their own: the
    vector is a view of that run. So every optimizer over the same
    parameters, and a late fusion model that holds its members' weights and
    gradients in two arrays, read and update the same memory. Any other
    arrays are copied into a new vector and rebound to views of it.
    """
    tensors = [t for _, t in params]
    bounds = np.cumsum([0] + [t.size for t in tensors]).tolist()

    def views(vec):
        return [vec[a:b].reshape(t.shape) for a, b, t in zip(bounds, bounds[1:], tensors)]

    vectors = []
    for slot in ("data", "grad"):
        vec = _run([getattr(t, slot) for t in tensors])
        if vec is None:
            vec = np.concatenate([getattr(t, slot).ravel() for t in tensors])
            for t, view in zip(tensors, views(vec)):
                setattr(t, slot, view)
        vectors.append(vec)
    return vectors[0], vectors[1], views


def _check_bound(bound) -> None:
    """Raise UsageError if a parameter's .data or .grad is no longer the view
    its optimizer packed: a step would update memory the model no longer reads.
    bound: (name, tensor, .data, .grad) of each parameter, as packed."""
    for name, t, data, grad in bound:
        if t.data is not data or t.grad is not grad:
            raise UsageError(f"parameter {name!r} moved since its optimizer was built: build "
                             "an optimizer after any other optimizer over its parameters "
                             "and after wrapping its model in late fusion")


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
        self._bound = [(name, t, t.data, t.grad) for name, t in params]
        self._v, self._tmp = np.zeros_like(self._data), np.empty_like(self._data)
        self.velocity = dict(zip(names, views(self._v)))

    def zero_grads(self):
        self._grad.fill(0.0)

    def step(self, lr: float):
        _check_bound(self._bound)
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
        self._bound = [(name, t, t.data, t.grad) for name, t in params]
        self._m, self._v = np.zeros_like(self._data), np.zeros_like(self._data)
        self._a, self._b = np.empty_like(self._data), np.empty_like(self._data)
        self.m = dict(zip(names, views(self._m)))
        self.v = dict(zip(names, views(self._v)))
        self.count = 0

    def zero_grads(self):
        self._grad.fill(0.0)

    def step(self, lr: float):
        # w -= lr * (m / c1) / (sqrt(v / c2) + eps), one elementwise op at a time
        _check_bound(self._bound)
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

    def csv_text(self) -> str:
        lines = [",".join(CURVE_COLUMNS)]
        for it, lr, total, act_g, act_a in self.rows:
            lines.append(f"{it},{f17(lr)},{f17(total)},{f17(act_g)},{f17(act_a)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.csv_text())

    @staticmethod
    def read_csv(path):
        """The curve in path: finite values, in the text write_csv writes."""
        text = read_text(path)
        curve = LossCurve()
        for no, line in enumerate(text.splitlines()[1:], start=2):
            try:  # append converts each cell; a wrong cell count is a TypeError
                curve.append(*line.split(","))
            except (TypeError, ValueError):
                raise ParseError(path, no, "expected an iteration and four floats") from None
            if not np.isfinite(curve.rows[-1][1:]).all():
                raise ParseError(path, no, "non-finite value")
        check_lines(path, text, curve.csv_text())
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

    def skip(self, count: int, actors) -> int:
        """Pass over the next count indices as take(count) does, drawing the
        same permutations; returns the total of actors (a sequence of one
        count per scene) over them. A whole epoch counts every scene once, so
        only the indices outside whole epochs are looked up, and the queue
        keeps only the rest of the last permutation."""
        head, self.queue = self.queue[:count], self.queue[count:]
        epochs, rest = divmod(count - len(head), self.count)
        for _ in range(epochs):
            self.rng.permutation(self.count)  # drawn only to advance the stream
        if rest:
            perm = self.rng.permutation(self.count)
            head, self.queue = np.concatenate([head, perm[:rest]]), perm[rest:]
        total = sum([actors[i] for i in head.tolist()])
        if epochs:
            total += epochs * sum(actors)
        return int(total)


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
    # One dropout stream serves the whole run; encode draws each step's
    # masks off it, sum(widths) values per actor row. A resumed run advances it
    # past every draw of the iterations before start_iteration, so it
    # continues with the masks the straight run would draw.
    widths = dropout_widths(model.encoder)
    dropout_rng = rng_for(cfg.seed, DROPOUT)
    if start_iteration:
        actors = [len(scene.actions) for scene in scenes]  # n_actors, minus a call
        skipped = stream.skip(start_iteration * cfg.batch_size, actors)
        dropout_rng.bit_generator.advance(skipped * sum(widths))
    curve = LossCurve()
    for it in range(start_iteration, cfg.total_iterations):
        lr = lr_at(cfg.lr_schedule, it)
        optimizer.zero_grads()
        batch = [scenes[idx] for idx in stream.take(cfg.batch_size)]
        try:
            with Graph(MODE_TRAIN):
                pred = model.forward_batch(batch, MODE_TRAIN, dropout_rng)
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
