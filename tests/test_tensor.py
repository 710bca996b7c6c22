import contextlib
import math

import numpy as np
import numpy.testing as npt
import pytest

import groupact.tensor as tensor_module
from groupact.errors import (
    ConfigError,
    DataError,
    EmptySetError,
    NumericsError,
    ShapeError,
    UsageError,
)
from groupact.tensor import (
    MODE_INFER,
    MODE_TRAIN,
    Graph,
    SetLayout,
    Tensor,
    add,
    concat_last_dim,
    cross_entropy,
    dropout,
    layer_norm,
    matmul,
    max_over_set,
    max_over_sets,
    mul,
    relu,
    reshape,
    set_attention,
    softmax_rows,
    stack,
    sum_all,
    transpose,
    weighted_cross_entropy,
)

from helpers import check_gradients, numeric_gradient, rel_err


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- basics


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericsError):
        Tensor([1.0, float("nan")])
    with pytest.raises(NumericsError):
        Tensor([[float("inf")]])


def test_tensor_grad_allocation():
    t = Tensor([[1.0, 2.0]], requires_grad=True)
    npt.assert_array_equal(t.grad, np.zeros((1, 2)))
    assert Tensor([[1.0]]).grad is None


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), a)
    npt.assert_array_equal(out.data, a.data)


def test_matmul_by_hand():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_reshape_counts_elements_exactly():
    npt.assert_array_equal(reshape(Tensor(np.arange(6.0)), (3, 2)).data, [[0, 1], [2, 3], [4, 5]])
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros(4)), (-2, -2))  # negative dims multiply to the size
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros(0)), (2**32, 2**32))  # wraps to 0 in int64


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_matmul_gradcheck_tight():
    # the plain product should be accurate well below the generic tolerance
    rng = _rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    worst = check_gradients(lambda: sum_all(matmul(a, b)), [("a", a), ("b", b)], tol=1e-6)
    assert worst <= 1e-6


def test_add_bias_broadcast():
    m = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    check_gradients(lambda: sum_all(mul(add(m, b), add(m, b))), [("m", m), ("b", b)])
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_row():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_single_element_row():
    for x in (-5.0, 0.0, 17.3):
        npt.assert_array_equal(softmax_rows(Tensor([[x]])).data, [[1.0]])


def test_softmax_derived_values():
    # e^1/(e^1+e^2) and e^2/(e^1+e^2)
    out = softmax_rows(Tensor([[1.0, 2.0]]))
    npt.assert_allclose(out.data, [[0.2689414213699951, 0.7310585786300049]], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = _rng(2)
    for _ in range(20):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        sums = softmax_rows(x).data.sum(axis=1)
        npt.assert_allclose(sums, np.ones(5), atol=1e-9)


def test_softmax_large_values_stay_finite():
    out = softmax_rows(Tensor([[1000.0, 1000.1]]))
    assert np.isfinite(out.data).all()
    npt.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


def test_softmax_gradcheck():
    rng = _rng(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)))
    check_gradients(lambda: sum_all(mul(softmax_rows(x), w)), [("x", x)])


# ---------------------------------------------------------------- layer norm


def test_layer_norm_constant_row():
    out = layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    npt.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-9)


def test_layer_norm_two_values():
    out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    npt.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_row_statistics():
    # variance must dominate the 1e-5 epsilon for the unit-variance claim
    rng = _rng(4)
    x = Tensor(rng.standard_normal((6, 16)) * 10)
    out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    npt.assert_allclose(out.mean(axis=1), np.zeros(6), atol=1e-9)
    npt.assert_allclose((out ** 2).mean(axis=1), np.ones(6), atol=1e-6)


def test_layer_norm_gradcheck():
    rng = _rng(5)
    x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    gain = Tensor(rng.standard_normal(8), requires_grad=True)
    bias = Tensor(rng.standard_normal(8), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 8)))
    check_gradients(
        lambda: sum_all(mul(layer_norm(x, gain, bias), w)),
        [("x", x), ("gain", gain), ("bias", bias)],
    )


# ---------------------------------------------------------------- dropout


def test_dropout_rate_zero_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    for mode in (MODE_TRAIN, MODE_INFER):
        assert dropout(x, 0.0, mode, _rng(0)) is x


def test_dropout_inference_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert dropout(x, 0.1, MODE_INFER) is x


def test_dropout_bad_rate():
    x = Tensor([[1.0]])
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError):
            dropout(x, rate, MODE_TRAIN, _rng(0))


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(UsageError):
        dropout(Tensor([[1.0]]), 0.1, MODE_TRAIN)


def test_dropout_mask_statistics():
    x = Tensor(np.full((100, 1000), 2.0))
    out = dropout(x, 0.1, MODE_TRAIN, _rng(6)).data
    survived = (out != 0).mean()
    assert abs(survived - 0.9) < 0.01
    assert abs(out.mean() - 2.0) / 2.0 < 0.02  # inverted scaling preserves the mean


def test_dropout_gradcheck_uses_saved_mask():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    x.zero_grad()
    with Graph(MODE_TRAIN):
        out = dropout(x, 0.5, MODE_TRAIN, _rng(7))
        sum_all(out).backward()
    # gradient is the exact mask scaling used in forward
    npt.assert_array_equal(x.grad * x.data, out.data)


# ---------------------------------------------------------------- relu, concat, max


def test_relu_values_and_grad():
    x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
    x.zero_grad()
    with Graph(MODE_TRAIN):
        sum_all(relu(x)).backward()
    npt.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_concat_last_dim_roundtrip():
    rng = _rng(8)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    out = concat_last_dim([a, b, c])
    assert out.shape == (3, 7)
    npt.assert_array_equal(out.data, np.hstack([a.data, b.data, c.data]))
    w = Tensor(rng.standard_normal((3, 7)))
    check_gradients(lambda: sum_all(mul(concat_last_dim([a, b, c]), w)),
                    [("a", a), ("b", b), ("c", c)])
    # each part's gradient is its exact column slice of the upstream gradient
    for t in (a, b, c):
        t.zero_grad()
    with Graph(MODE_TRAIN):
        sum_all(mul(concat_last_dim([a, b, c]), w)).backward()
    for t, cols in ((a, slice(0, 2)), (b, slice(2, 6)), (c, slice(6, 7))):
        npt.assert_array_equal(t.grad, w.data[:, cols])
    with pytest.raises(ShapeError):
        concat_last_dim([a, Tensor(np.ones((2, 2)))])


def test_max_over_set_single_row():
    row = np.array([[3.0, -1.0, 2.0]])
    npt.assert_array_equal(max_over_set(Tensor(row)).data, row[0])


def test_max_over_set_by_hand():
    npt.assert_array_equal(max_over_set(Tensor([[1.0, 9.0], [5.0, 2.0]])).data, [5.0, 9.0])


def test_max_over_set_permutation_invariant_bitwise():
    rng = _rng(9)
    x = rng.standard_normal((7, 5))
    base = max_over_set(Tensor(x)).data
    for _ in range(10):
        perm = rng.permutation(7)
        assert np.array_equal(max_over_set(Tensor(x[perm])).data, base)


def test_max_over_set_empty_and_ties():
    with pytest.raises(EmptySetError):
        max_over_set(Tensor(np.zeros((0, 4))))
    # tie routes gradient to the lowest row index
    x = Tensor([[1.0, 2.0], [1.0, 2.0]], requires_grad=True)
    x.zero_grad()
    with Graph(MODE_TRAIN):
        sum_all(max_over_set(x)).backward()
    npt.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_max_over_set_gradcheck():
    rng = _rng(10)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal(4).reshape(1, 4))
    check_gradients(
        lambda: sum_all(mul(reshape(max_over_set(x), (1, 4)), w)), [("x", x)]
    )


# ---------------------------------------------------------------- cross entropy


def test_cross_entropy_uniform():
    loss = cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
    npt.assert_allclose(loss.item(), math.log(4), atol=1e-12)


def test_cross_entropy_goes_to_zero_with_margin():
    last = None
    for margin in (1.0, 5.0, 20.0):
        logits = np.zeros((1, 3))
        logits[0, 2] = margin
        loss = cross_entropy(Tensor(logits), np.array([2])).item()
        if last is not None:
            assert loss < last
        last = loss
    assert last < 1e-8


def test_cross_entropy_derived_value():
    loss = cross_entropy(Tensor([[1.0, 2.0]]), np.array([1]))
    npt.assert_allclose(loss.item(), 0.3132616875182228, atol=1e-5)


def test_cross_entropy_label_errors():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DataError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DataError):
        cross_entropy(logits, np.array([-1, 0]))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([0]))


def test_cross_entropy_gradcheck():
    rng = _rng(11)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    labels = np.array([1, 0, 5, 2])
    check_gradients(lambda: cross_entropy(x, labels), [("x", x)])


# ---------------------------------------------------------------- backward mechanics


def test_backward_sum_gives_ones():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Graph(MODE_TRAIN):
        sum_all(p).backward()
    npt.assert_array_equal(p.grad, np.ones((2, 3)))


def test_backward_accumulates_across_calls():
    p = Tensor(np.zeros(3), requires_grad=True)
    for expect in (1.0, 2.0):
        with Graph(MODE_TRAIN):
            sum_all(p).backward()
        npt.assert_array_equal(p.grad, np.full(3, expect))


def test_backward_disconnected_parameter_stays_zero():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    with Graph(MODE_TRAIN):
        sum_all(p).backward()
    npt.assert_array_equal(q.grad, np.zeros(2))


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph(MODE_TRAIN):
        out = add(p, p)
        with pytest.raises(UsageError):
            out.backward()


def test_backward_requires_recorded_history():
    with pytest.raises(UsageError):
        sum_all(Tensor(np.ones(2), requires_grad=True)).backward()


def _every_op(wrap):
    """Every op in tensor.py, each as a thunk on fixed operands passed through wrap."""
    rng = _rng(14)
    x, y = wrap(rng.standard_normal((3, 4))), wrap(rng.standard_normal((3, 4)))
    row, square = wrap(rng.standard_normal(4)), wrap(rng.standard_normal((4, 4)))
    return {
        "add": lambda: add(x, y),
        "bias add": lambda: add(x, row),
        "scalar mul": lambda: mul(x, 2.0),
        "tensor mul": lambda: mul(x, y),
        "matmul": lambda: matmul(x, square),
        "transpose": lambda: transpose(x),
        "reshape": lambda: reshape(x, (4, 3)),
        "relu": lambda: relu(x),
        "sum_all": lambda: sum_all(x),
        "concat_last_dim": lambda: concat_last_dim([x, y]),
        "max_over_sets": lambda: max_over_sets(x, (1, 2)),
        "set_attention": lambda: set_attention(x, y, x, (1, 2)),
        "softmax_rows": lambda: softmax_rows(x),
        "layer_norm": lambda: layer_norm(x, row, row),
        # the op's own mode is train; only the graph decides whether it records
        "dropout": lambda: dropout(x, 0.5, MODE_TRAIN, _rng(15)),
        "weighted_cross_entropy": lambda: weighted_cross_entropy([(x, [0, 1, 3], 1.0)])[0],
    }


def test_inference_graph_records_nothing():
    # each op called once: no node in infer mode, one in train mode
    for name, op in _every_op(Tensor).items():
        with Graph(MODE_INFER) as g:
            out = op()
        assert g.nodes == [] and out._graph is None, name
        with Graph(MODE_TRAIN) as g:
            out = op()
            assert len(g.nodes) == 1 and out._graph is g and out._node_id == 0, name


def test_array_operands_compute_untaped_with_the_same_bits(monkeypatch):
    taped = {name: op().data for name, op in _every_op(Tensor).items()}
    arrays = _every_op(np.asarray)
    with Graph(MODE_TRAIN) as g:  # a recording graph tapes array operands as before
        for name, op in arrays.items():
            out = op()
            assert out._graph is g and np.array_equal(out.data, taped[name]), name

    def no_tape(*args):
        raise AssertionError("an untaped op called _result")

    monkeypatch.setattr(tensor_module, "_result", no_tape)
    del arrays["weighted_cross_entropy"]  # the loss ops always tape
    for graph in (None, Graph(MODE_INFER)):
        with graph or contextlib.nullcontext():
            for name, op in arrays.items():
                out = op()
                assert type(out) is np.ndarray and np.array_equal(out, taped[name]), name


def test_shared_subexpression_gradient():
    # x used twice: d/dx sum(x*x) = 2x
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
    x.zero_grad()
    with Graph(MODE_TRAIN):
        sum_all(mul(x, x)).backward()
    npt.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_composed_graph_gradcheck():
    # one expression through most ops at once
    rng = _rng(12)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    gain = Tensor(np.ones(6), requires_grad=True)
    bias = Tensor(np.zeros(6), requires_grad=True)

    def loss():
        h = relu(matmul(x, w1))
        h = layer_norm(add(h, x), gain, bias)
        h = softmax_rows(matmul(h, transpose(w1)))
        pooled = reshape(max_over_set(h), (1, 6))
        return add(cross_entropy(h, np.array([0, 1, 2, 3])), sum_all(mul(pooled, 0.5)))

    check_gradients(loss, [("x", x), ("w1", w1), ("gain", gain), ("bias", bias)])


def test_graph_exit_frees_the_tape():
    w = Tensor(np.ones(3), requires_grad=True)
    with Graph(MODE_TRAIN) as g:
        loss = sum_all(mul(w, 2.0))
        assert len(g.nodes) == 2
        loss.backward()
    assert g.nodes == []
    npt.assert_array_equal(w.grad, [2.0, 2.0, 2.0])
    with pytest.raises(UsageError):
        loss.backward()
    with pytest.raises(UsageError):
        with g:
            pass


@pytest.mark.parametrize("sizes", [(1,), (3, 1, 5, 2, 1, 4), (4, 4, 4)])
def test_set_layout_from_a_tuple_of_ints_equals_one_from_an_int64_array(sizes):
    fast, ref = vars(SetLayout(sizes)), vars(SetLayout(np.array(sizes, dtype=np.int64)))
    assert fast.keys() == ref.keys()
    for name, want in ref.items():
        got = fast[name]
        assert type(got) is type(want), name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name


@pytest.mark.parametrize("sizes, error", [((), ShapeError), ((0,), EmptySetError),
                                          ((2, 0), EmptySetError)])
def test_set_layout_rejects_bad_sizes_alike_from_a_tuple_or_an_array(sizes, error):
    with pytest.raises(error) as from_tuple:
        SetLayout(sizes)
    with pytest.raises(error) as from_array:
        SetLayout(np.array(sizes, dtype=np.int64))
    assert str(from_tuple.value) == str(from_array.value)


@pytest.mark.parametrize("shape", [(1, 4), (7, 32), (33, 64)])
def test_layer_norm_is_bit_identical_to_the_np_mean_formula(shape):
    rng = _rng(30)
    x0, g0, b0, up = (rng.standard_normal(shape), rng.standard_normal(shape[1]),
                      rng.standard_normal(shape[1]), rng.standard_normal(shape))
    mu = x0.mean(axis=1, keepdims=True)
    centered = x0 - mu
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + 1e-5)
    x_hat = centered * inv_std
    gx = up * g0
    dx = inv_std * (gx - gx.mean(axis=1, keepdims=True)
                    - x_hat * (gx * x_hat).mean(axis=1, keepdims=True))
    x, gain, bias = (Tensor(v, requires_grad=True) for v in (x0, g0, b0))
    with Graph(MODE_TRAIN):
        out = layer_norm(x, gain, bias)
        sum_all(mul(out, Tensor(up))).backward()
    assert out.data.tobytes() == (x_hat * g0 + b0).tobytes()
    # leaves accumulate into zeroed grads, so the oracle does too (0.0 + -0.0 is 0.0)
    assert x.grad.tobytes() == (np.zeros(shape) + dx).tobytes()
    assert gain.grad.tobytes() == (np.zeros(shape[1]) + (up * x_hat).sum(axis=0)).tobytes()
    assert bias.grad.tobytes() == (np.zeros(shape[1]) + up.sum(axis=0)).tobytes()


def _unknown_confstr_name(name):
    raise ValueError("unrecognized configuration name")


class _Libc:
    """A C library whose mallopt records its calls (a function, so that the
    caller can declare its argument and result types)."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


@pytest.mark.parametrize("confstr, cdll, calls", [
    (lambda name: "glibc 2.36", _Libc, [(-1, 64 << 20), (-3, 32 << 20)]),
    (lambda name: "glibc 2.36", object, []),  # a libc without mallopt
    (lambda name: None, _Libc, []),
    (lambda name: "musl", _Libc, []),
    (_unknown_confstr_name, _Libc, []),
], ids=["glibc", "no-mallopt", "no-libc-version", "other-libc", "no-confstr-name"])
def test_keep_freed_heap_sets_glibc_thresholds_and_is_a_no_op_elsewhere(
        monkeypatch, confstr, cdll, calls):
    libc = cdll()

    def load(name):
        assert name is None  # the running process's own symbols
        return libc

    monkeypatch.setattr(tensor_module.os, "confstr", confstr)
    monkeypatch.setattr(tensor_module.ctypes, "CDLL", load)
    assert tensor_module._keep_freed_heap() is None
    assert getattr(libc, "calls", []) == calls


def test_keep_freed_heap_without_a_loadable_libc_does_nothing(monkeypatch):
    def fail(name):
        raise OSError("cannot load")

    monkeypatch.setattr(tensor_module.ctypes, "CDLL", fail)
    tensor_module._keep_freed_heap()
    monkeypatch.delattr(tensor_module.os, "confstr")
    tensor_module._keep_freed_heap()


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# (call, error type, message) of refusals that no other test reaches
_REFUSALS = [
    (lambda: tensor_module.check_mode("eval"), UsageError,
     "mode must be 'train' or 'infer', got 'eval'"),
    (lambda: _zeros(2).item(), UsageError, "item() on tensor of size 2"),
    (lambda: mul(_zeros(2), _zeros(3)), ShapeError, "mul: incompatible shapes (2,) and (3,)"),
    (lambda: transpose(_zeros(2)), ShapeError, "transpose: need a 2-d tensor, got (2,)"),
    (lambda: concat_last_dim([]), UsageError, "concat_last_dim: no tensors given"),
    (lambda: stack([]), UsageError, "stack: no tensors given"),
    (lambda: SetLayout([[1, 2]]), ShapeError,
     "set sizes must be a non-empty 1-d sequence, got [[1, 2]]"),
    (lambda: max_over_sets(_zeros(2)), ShapeError,
     "max_over_sets: need a 2-d or grouped 3-d tensor, got (2,)"),
    (lambda: max_over_set(_zeros(2, 2, 2)), ShapeError,
     "max_over_set: need a 2-d tensor, got (2, 2, 2)"),
    (lambda: set_attention(_zeros(2, 4), _zeros(3, 4), _zeros(2, 4)), ShapeError,
     "set_attention: bad Q/K/V shapes (2, 4), (3, 4), (2, 4)"),
    (lambda: set_attention(_zeros(2, 4), _zeros(2, 4), _zeros(3, 4)), ShapeError,
     "set_attention: V shape (3, 4) does not match K (2, 4)"),
    (lambda: softmax_rows(_zeros(2)), ShapeError,
     "softmax_rows: need a 2-d or grouped 3-d tensor, got (2,)"),
    (lambda: layer_norm(_zeros(2), _zeros(2), _zeros(2)), ShapeError,
     "layer_norm: need a 2-d or grouped 3-d input, got (2,)"),
    (lambda: layer_norm(_zeros(2, 4), _zeros(3), _zeros(3)), ShapeError,
     "layer_norm: gain/bias must have shape (4,), got (3,) and (3,)"),
    (lambda: cross_entropy(_zeros(3), [0, 1, 2]), ShapeError,
     "cross_entropy: need (m, c) logits, got (3,)"),
    (lambda: cross_entropy(_zeros(0, 3), []), EmptySetError, "cross_entropy: no rows"),
    (lambda: cross_entropy(_zeros(2, 3), [0.0, 1.0]), DataError,
     "cross_entropy: labels must be integers, got dtype float64"),
]


@pytest.mark.parametrize("call, error, message", _REFUSALS,
                         ids=["check-mode", "item", "mul", "transpose", "concat-empty",
                              "stack-empty", "layout-2d", "max-over-sets-1d", "max-over-set-3d",
                              "attention-qk", "attention-v", "softmax-1d", "layer-norm-1d",
                              "layer-norm-gain", "ce-logits-1d", "ce-no-rows", "ce-float-labels"])
def test_refusal_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
