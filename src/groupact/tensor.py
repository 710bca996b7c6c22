"""Reverse-mode autodiff on a dynamic tape.

A Graph is an append-only record of executed ops. While a Graph in "train"
mode is active (as a context manager), every op appends a node: a tuple of
its input tensors and a closure that maps the output gradient to per-input
gradients. backward() walks the tape from the loss node toward node 0,
accumulating gradients; tensors created outside any op (leaves) receive
them in .grad. Leaving the Graph block frees the tape, so backward() must
run inside it.

A batch of actor sets travels as one packed (N, d) matrix whose rows are the
actors of scene 0, then scene 1, and so on (a SetLayout records the sizes).
Row-wise ops need nothing more; set_attention and max_over_sets are the ops
that work per set.

An op whose first operand is a plain ndarray, called while no train-mode
Graph records, computes untaped: it runs the same shape checks and
expressions on the arrays as given (a Tensor operand gives its data) and
returns the output array, with no Tensor, closure or node. On contiguous
float64 arrays, which Tensor() makes of its input, that is the taped output
bit for bit at plain numpy's cost; the models start every pass that way.
Any other call records as above; unbox and box move a pass's values between
the two forms. The loss ops always return Tensors.

All values are float64. Tensor(data) raises NumericsError on a NaN or an
infinity in data; op outputs are not checked, so that every op costs only
its arithmetic. Finiteness is checked where values enter or leave a pass
instead: the models check a pass's input features and its logits, and
training checks the loss and the parameter gradients of every step.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptySetError,
    NumericsError,
    ShapeError,
    UsageError,
)

MODE_TRAIN = "train"
MODE_INFER = "infer"

LAYER_NORM_EPS = 1e-5

_GRAPH_STACK: list["Graph"] = []


def _keep_freed_heap() -> None:
    """Keep the heap a step frees in the process instead of returning it to the OS.

    By default glibc trims the free top of the heap back to the OS once it
    exceeds 128 KiB, so every training step (and every evaluated scene) faults
    its freed tape back in. A trim threshold of 64 MiB stops that. Setting it
    also freezes glibc's mmap threshold, which would otherwise rise with use,
    so that is set to 32 MiB: else every array above 128 KiB is mapped and
    unmapped per use. The setting is process-wide and changes no arithmetic.
    It runs at import, so training, evaluation and library use all get it;
    it does nothing where the C library is not glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr, not glibc, no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_freed_heap()


def check_mode(mode):
    if mode not in (MODE_TRAIN, MODE_INFER):
        raise UsageError(f"mode must be '{MODE_TRAIN}' or '{MODE_INFER}', got {mode!r}")


class Graph:
    """Tape of executed ops. mode 'train' records; 'infer' computes only."""

    def __init__(self, mode=MODE_TRAIN):
        check_mode(mode)
        self.mode = mode
        self.nodes: list[tuple] = []  # (inputs, vjp) per recorded op
        self.closed = False

    def __enter__(self):
        if self.closed:
            raise UsageError("a Graph block runs once; its tape was freed on exit")
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.pop()
        assert popped is self
        # Every recorded tensor points back at this graph and the nodes point
        # at the tensors; dropping the nodes breaks those cycles, so a step's
        # tape is freed here rather than by the cyclic garbage collector.
        self.nodes.clear()
        self.closed = True
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_graph", "_node_id")

    def __init__(self, data, requires_grad=False, _check=True):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if _check and not np.isfinite(arr).all():
            raise NumericsError("non-finite value encountered")
        self.data = arr
        # Eager zero grad means a parameter that never touches the loss still
        # reads back an all-zero gradient after backward().
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.requires_grad = requires_grad
        self._graph = None
        self._node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        """Accumulate d(self)/d(leaf) into each leaf's .grad. self must be scalar."""
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar, got shape {self.data.shape}")
        if self._graph is None:
            raise UsageError("backward() on a tensor with no recorded history")
        graph = self._graph
        if graph.closed:
            raise UsageError("backward() after its Graph block exited; the tape is freed")
        # Gradient flowing into each tape node, indexed by node id. The tape
        # is in execution order, so one reverse scan visits every node after
        # all of its consumers.
        flows = [None] * (self._node_id + 1)
        flows[-1] = np.ones_like(self.data)
        for nid in range(self._node_id, -1, -1):
            grad_out = flows[nid]
            if grad_out is None:
                continue
            flows[nid] = None
            inputs, vjp = graph.nodes[nid]
            for inp, g in zip(inputs, vjp(grad_out)):
                if g is None:
                    continue
                if inp._graph is graph and inp._node_id is not None:
                    prev = flows[inp._node_id]
                    flows[inp._node_id] = g if prev is None else prev + g
                elif inp.requires_grad:
                    inp.grad += g

    # Operator sugar. Scalars are plain python floats; tensor-tensor ops
    # go through the module functions so they are recorded uniformly.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def recording() -> bool:
    """Whether ops called now record: a train-mode Graph is the innermost."""
    return bool(_GRAPH_STACK) and _GRAPH_STACK[-1].mode == MODE_TRAIN


def _result(data, inputs, vjp):
    """Wrap op output, unchecked; record a node iff a train-mode graph is active."""
    out = Tensor(data, _check=False)
    if recording():
        graph = out._graph = _GRAPH_STACK[-1]
        out._node_id = len(graph.nodes)
        graph.nodes.append((inputs, vjp))
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(*xs):
    """(arrays, tape) of an op's operands. Untaped (see the module notes), tape
    is None and arrays hold the ndarrays and Tensor data; else every operand
    becomes a Tensor, as Tensor() makes them, and tape lists those to record."""
    arrays = []  # loops: on Python 3.11 a comprehension costs a call per op
    if xs and type(xs[0]) is np.ndarray and not recording():
        for x in xs:
            arrays.append(x.data if isinstance(x, Tensor) else x)
        return arrays, None
    tape = []
    for x in xs:
        tape.append(x if isinstance(x, Tensor) else Tensor(x))
        arrays.append(tape[-1].data)
    return arrays, tape


def unbox(t):
    """t's data while no train-mode Graph records, so the ops on it run untaped; else t."""
    return t.data if isinstance(t, Tensor) and not recording() else t


def box(x) -> Tensor:
    """x as a Tensor: an untaped pass's array wrapped unchecked, as ops wrap theirs."""
    return x if isinstance(x, Tensor) else Tensor(x, _check=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts (m, n) + (n,) for a row-broadcast bias."""
    (ad, bd), tape = _operands(a, b)
    if ad.shape == bd.shape:
        bias_rows = False
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        bias_rows = True
    else:
        raise ShapeError(f"add: incompatible shapes {ad.shape} and {bd.shape}")
    out = ad + bd
    if tape is None:
        return out

    def vjp(g):
        return (g, g.sum(axis=0)) if bias_rows else (g, g)

    return _result(out, tape, vjp)


def mul(a: Tensor, b) -> Tensor:
    """a * b where b is a same-shape tensor or a python scalar."""
    if isinstance(b, (int, float)):
        (ad,), tape = _operands(a)
        c = float(b)
        out = ad * c
        if tape is None:
            return out

        def vjp(g):
            return (g * c,)

        return _result(out, tape, vjp)
    (ad, bd), tape = _operands(a, b)
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: incompatible shapes {ad.shape} and {bd.shape}")
    out = ad * bd
    if tape is None:
        return out

    def vjp(g):
        return (g * bd, g * ad)

    return _result(out, tape, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    (ad, bd), tape = _operands(a, b)
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: need 2-d operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {ad.shape} @ {bd.shape}")
    out = ad @ bd
    if tape is None:
        return out
    # backward drops a gradient for an operand that is neither a parameter nor
    # a tape node (such as a pass's input features), so it is not computed
    a_grad = tape[0].requires_grad or tape[0]._node_id is not None

    def vjp(g):
        return (g @ bd.T if a_grad else None, ad.T @ g)

    return _result(out, tape, vjp)


def transpose(a: Tensor) -> Tensor:
    (ad,), tape = _operands(a)
    if ad.ndim != 2:
        raise ShapeError(f"transpose: need a 2-d tensor, got {ad.shape}")
    if tape is None:
        return ad.T

    def vjp(g):
        return (np.ascontiguousarray(g.T),)

    return _result(ad.T, tape, vjp)


def reshape(a: Tensor, shape) -> Tensor:
    (ad,), tape = _operands(a)
    shape = tuple(shape)
    # exact integers: an int64 product can wrap around to the element count
    if min(shape, default=0) < 0 or math.prod(shape) != ad.size:
        raise ShapeError(f"reshape: cannot view {ad.shape} as {shape}")
    out = ad.reshape(shape)
    if tape is None:
        return out
    old_shape = ad.shape

    def vjp(g):
        return (g.reshape(old_shape),)

    return _result(out, tape, vjp)


def relu(a: Tensor) -> Tensor:
    (ad,), tape = _operands(a)
    out = np.maximum(ad, 0.0)
    if tape is None:
        return out
    mask = ad > 0

    def vjp(g):
        return (g * mask,)

    return _result(out, tape, vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a one-element tensor."""
    (ad,), tape = _operands(a)
    out = ad.sum().reshape(1)
    if tape is None:
        return out
    shape = ad.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _result(out, tape, vjp)


def concat_last_dim(parts) -> Tensor:
    """Concatenate 2-d tensors along columns. Backward splits the gradient."""
    arrays, tape = _operands(*parts)
    if not arrays:
        raise UsageError("concat_last_dim: no tensors given")
    rows = arrays[0].shape[0] if arrays[0].ndim == 2 else None
    for p in arrays:
        if p.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(
                "concat_last_dim: all parts must be 2-d with equal row counts, got "
                + ", ".join(str(q.shape) for q in arrays)
            )
    out = np.concatenate(arrays, axis=1)
    if tape is None:
        return out

    def vjp(g):
        # column views of g, one per part; np.split gives the same views 5-10x slower
        edges = [0, *accumulate(p.shape[1] for p in arrays)]
        return [g[:, a:b] for a, b in zip(edges, edges[1:])]

    return _result(out, tape, vjp)


class SetLayout:
    """How B actor sets sit in a packed (N, d) matrix: set i owns the sizes[i]
    rows starting at offsets[i]. Per-set ops pad to (B, width, d), width the
    largest set; when every set has that size, padding is a plain reshape.
    """

    def __init__(self, sizes):
        if type(sizes) is not tuple or not all(type(n) is int for n in sizes):
            sizes = np.asarray(sizes, dtype=np.int64)  # pack_inputs' tuple of ints skips this
            if sizes.ndim != 1:
                raise ShapeError(f"set sizes must be a non-empty 1-d sequence, got {sizes.tolist()}")
            sizes = tuple(sizes.tolist())
        if not sizes:
            raise ShapeError("set sizes must be a non-empty 1-d sequence, got []")
        if min(sizes) < 1:
            raise EmptySetError(f"every set needs at least one row, got sizes {list(sizes)}")
        self.sizes = np.array(sizes, dtype=np.int64)
        self.count = len(sizes)
        self.rows = sum(sizes)
        self.width = max(sizes)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.uniform = min(sizes) == self.width
        if not self.uniform:
            slots = np.arange(self.width)
            self.mask = slots < self.sizes[:, None]  # (B, width): real rows
            self.flat = np.flatnonzero(self.mask)  # padded slot of each packed row

    @staticmethod
    def of(sizes, rows: int) -> "SetLayout":
        """sizes as a SetLayout (None: the rows form one set), checked against rows.
        Every one-set layout of a row count is one shared object."""
        if sizes is None or (type(sizes) is tuple and sizes == (rows,)):
            sizes = _one_set(rows)
        elif not isinstance(sizes, SetLayout):
            sizes = SetLayout(sizes)
        if sizes.rows != rows:
            raise ShapeError(f"set sizes add up to {sizes.rows} rows, tensor has {rows}")
        return sizes

    def pad(self, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(N, d) -> (B, width, d) with padding slots set to fill."""
        if self.uniform:
            return x.reshape(self.count, self.width, x.shape[1])
        out = np.full((self.count * self.width, x.shape[1]), fill)
        out[self.flat] = x
        return out.reshape(self.count, self.width, x.shape[1])

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """(B, width, d) -> (N, d), dropping the padding slots."""
        if self.uniform:
            return x.reshape(self.rows, x.shape[2])
        return x.reshape(-1, x.shape[2])[self.flat]


@lru_cache(maxsize=256)
def _one_set(rows: int) -> SetLayout:  # shared: nothing writes to a layout
    return SetLayout((rows,))


def max_over_sets(a: Tensor, sizes=None) -> Tensor:
    """Columnwise max over the rows of each packed set: (N, d) -> (B, d).

    Permutation-invariant pooling over sets of actor embeddings. The
    gradient flows only to the winning row per set and column; ties break
    toward the lowest row index. Untaped, it takes each set's max without
    finding the winners, except where a max is zero: np.max may return 0.0
    where a lower row holds -0.0, and the winners keep the lowest row's sign.
    """
    (ad,), tape = _operands(a)
    if ad.ndim != 2:
        raise ShapeError(f"max_over_sets: need a 2-d tensor, got {ad.shape}")
    if ad.shape[0] == 0:
        raise EmptySetError("max_over_sets: empty set")
    layout = SetLayout.of(sizes, ad.shape[0])
    padded = layout.pad(ad, -np.inf)
    if tape is None:
        out = padded.max(axis=1)
        if out.all():
            return out
    slots = np.argmax(padded, axis=1)  # first max wins ties
    winners = layout.offsets[:, None] + slots
    cols = np.arange(ad.shape[1])
    out = ad[winners, cols]
    if tape is None:
        return out
    in_shape = ad.shape

    def vjp(g):
        dx = np.zeros(in_shape)
        dx[winners, cols] = g
        return (dx,)

    return _result(out, tape, vjp)


def max_over_set(a: Tensor) -> Tensor:
    """Columnwise max over the rows of one (n, d) set -> (d,)."""
    (ad,), _ = _operands(a)
    if ad.ndim != 2:
        raise ShapeError(f"max_over_set: need a 2-d tensor, got {ad.shape}")
    return reshape(max_over_sets(a), (ad.shape[1],))


def set_attention(q: Tensor, k: Tensor, v: Tensor, sizes=None, record=None) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V within each packed set, as one op.

    q, k and v are (N, d_k), (N, d_k) and (N, d_v) packed rows; a row
    attends only to the rows of its own set. Padding stays inside: the op
    works on (B, width, d) blocks with padded keys masked out. When record
    is a list of B lists, set i's (n_i, n_i) weights are appended to
    record[i].
    """
    (qd, kd, vd), tape = _operands(q, k, v)
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2 or qd.shape != kd.shape:
        raise ShapeError(f"set_attention: bad Q/K/V shapes {qd.shape}, {kd.shape}, {vd.shape}")
    if vd.shape[0] != kd.shape[0]:
        raise ShapeError(f"set_attention: V shape {vd.shape} does not match K {kd.shape}")
    layout = SetLayout.of(sizes, qd.shape[0])
    scale = 1.0 / np.sqrt(qd.shape[1])
    qp, kp, vp = layout.pad(qd), layout.pad(kd), layout.pad(vd)
    scores = (qp @ kp.transpose(0, 2, 1)) * scale
    if not layout.uniform:
        scores = np.where(layout.mask[:, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    w = e / e.sum(axis=2, keepdims=True)
    if record is not None:
        for i, n in enumerate(layout.sizes):
            record[i].append(w[i, :n, :n].copy())
    out = layout.unpad(w @ vp)
    if tape is None:
        return out

    def vjp(g):
        gp = layout.pad(g)  # padded query rows get no gradient
        dw = gp @ vp.transpose(0, 2, 1)
        dscores = w * (dw - (dw * w).sum(axis=2, keepdims=True)) * scale
        return (layout.unpad(dscores @ kp),
                layout.unpad(dscores.transpose(0, 2, 1) @ qp),
                layout.unpad(w.transpose(0, 2, 1) @ gp))

    return _result(out, tape, vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-d tensor, stabilised by the row max."""
    (ad,), tape = _operands(a)
    if ad.ndim != 2:
        raise ShapeError(f"softmax_rows: need a 2-d tensor, got {ad.shape}")
    z = ad - ad.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    if tape is None:
        return y

    def vjp(g):
        # dL/dx = y * (g - sum_j g_j y_j) per row
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, tape, vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each row to zero mean / unit variance, then scale and shift.

    Uses the population variance (divide by d) and eps = 1e-5 inside the
    square root.
    """
    (ad, gd, bd), tape = _operands(a, gain, bias)
    if ad.ndim != 2:
        raise ShapeError(f"layer_norm: need a 2-d input, got {ad.shape}")
    d = ad.shape[1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got {gd.shape} and {bd.shape}"
        )
    # each mean is np.mean's own reduce-then-divide, without its Python wrapper
    mu = ad.sum(axis=1, keepdims=True) / d
    centered = ad - mu
    var = (centered * centered).sum(axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    x_hat = centered * inv_std
    out = x_hat * gd + bd
    if tape is None:
        return out

    def vjp(g):
        gx = g * gd
        m1 = gx.sum(axis=1, keepdims=True) / d
        m2 = (gx * x_hat).sum(axis=1, keepdims=True) / d
        dx = inv_std * (gx - m1 - x_hat * m2)
        return (dx, (g * x_hat).sum(axis=0), g.sum(axis=0))

    return _result(out, tape, vjp)


def dropout(a: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: keep with prob 1-rate, scale kept values by 1/(1-rate).

    Identity in 'infer' mode and whenever rate == 0. In 'train' mode with a
    positive rate an rng is required; the sampled mask is reused by the
    backward pass.
    """
    (ad,), tape = _operands(a)
    if not (isinstance(rate, (int, float)) and 0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate!r}")
    check_mode(mode)
    if mode == MODE_INFER or rate == 0.0:
        return ad if tape is None else tape[0]
    if rng is None:
        raise UsageError("dropout in train mode with rate > 0 requires an rng")
    keep = rng.random(ad.shape) >= rate
    scaled_mask = keep / (1.0 - rate)
    out = ad * scaled_mask
    if tape is None:
        return out

    def vjp(g):
        return (g * scaled_mask,)

    return _result(out, tape, vjp)


class DropoutDraws:
    """The uniform draws of every dropout site of one packed train-mode pass.

    They come off rng set by set: all of set 0's sites in the order they
    run, then set 1's, and so on. That is the order running the sets one at
    a time draws in, so packing a batch changes no mask. dropout() reads
    this like an rng, one site per call; widths are the per-row mask widths
    of the sites in the order they run.
    """

    def __init__(self, rng, sizes, widths):
        sizes, widths = [int(n) for n in sizes], [int(w) for w in widths]
        row = sum(widths)
        draws = rng.random(sum(sizes) * row)
        # Set i's block holds its n_i rows of site 0, then of site 1, and so
        # on; a site joins its slice of every set's block.
        starts = list(accumulate([n * row for n in sizes], initial=0))
        edges = list(accumulate(widths, initial=0))
        self._sites = iter([
            np.concatenate([draws[s + n * a:s + n * b] for s, n in zip(starts, sizes)])
            .reshape(-1, w) for a, b, w in zip(edges, edges[1:], widths)
        ])

    def random(self, shape):
        draws = next(self._sites, None)
        if draws is None or draws.shape != tuple(shape):
            raise UsageError(f"dropout site of shape {tuple(shape)} was not drawn for this pass")
        return draws


def _row_cross_entropy(logits: Tensor, labels):
    """Checked labels, per-row CE and softmax probabilities of (m, c) logits."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: need (m, c) logits, got {logits.shape}")
    m, c = logits.shape
    if m == 0:
        raise EmptySetError("cross_entropy: no rows")
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise ShapeError(f"cross_entropy: need {m} labels, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"cross_entropy: labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"cross_entropy: label outside [0, {c}) in {labels.tolist()}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(m)
    return labels, -(z[rows, labels] - np.log(total[:, 0])), e / total


def weighted_cross_entropy(parts):
    """Row-weighted softmax cross entropy over several logits tensors, as one op.

    parts is a sequence of (logits, labels, weights): (m, c) logits, m int
    class ids and m row weights (or one weight for every row). Returns the
    sum over parts and rows of weight * CE(row), as a tensor of shape (1,),
    and for each part the unweighted per-row CE values as a plain array.
    """
    tensors, rows_ce, grads = [], [], []
    loss = 0.0
    for logits, labels, weights in parts:
        logits = _as_tensor(logits)
        labels, ce, probs = _row_cross_entropy(logits, labels)
        weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), ce.shape)
        loss += weights @ ce
        tensors.append(logits)
        rows_ce.append(ce)
        grads.append((probs, labels, weights))

    def vjp(g):
        out = []
        for probs, labels, weights in grads:
            dx = probs.copy()
            dx[np.arange(len(labels)), labels] -= 1.0
            out.append(dx * (weights * g)[:, None])
        return out

    return _result(loss, tuple(tensors), vjp), rows_ce


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross entropy over rows, via log-sum-exp.

    labels is a length-m sequence of int class ids for an (m, c) logits
    tensor. Returns a tensor of shape (1,).
    """
    logits = _as_tensor(logits)
    m = logits.shape[0] if logits.ndim == 2 else 0
    return weighted_cross_entropy([(logits, labels, 1.0 / max(m, 1))])[0]
