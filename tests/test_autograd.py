"""Tape engine: op semantics, backward rules, gradcheck harness, checkpoints."""

import gc
import struct
import weakref

import numpy as np
import pytest

from dialact import autograd as ag
from dialact import encoder
from helpers import float_mask_dropout, leaves, sigmoid


def fd_grad(closure, flat, eps=1e-6):
    """Central-difference gradient of a scalar closure over a flat view."""
    grad = np.empty(flat.size)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = float(closure().data)
        flat[j] = orig - eps
        down = float(closure().data)
        flat[j] = orig
        grad[j] = (up - down) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_matmul_identity():
    out = ag.matmul(ag.Tensor(np.eye(2)), ag.Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_tanh_odd_at_origin():
    assert ag.tanh(ag.Tensor([0.0])).data[0] == 0.0


def test_softmax_uniform_and_singleton():
    out = ag.softmax(ag.Tensor([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    for x in (-7.3, 0.0, 123.0):
        assert ag.softmax(ag.Tensor([x]), axis=-1).data[0] == pytest.approx(1.0)


def test_softmax_direct_arithmetic():
    logits = np.array([1.0, 2.0, 3.0])
    expected = np.exp(logits) / np.exp(logits).sum()  # [0.09003, 0.24473, 0.66524]
    out = ag.softmax(ag.Tensor(logits), axis=-1)
    assert np.allclose(out.data, expected, atol=1e-5)
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(scale=10.0, size=(4, 6))
        out = ag.softmax(ag.Tensor(x), axis=1).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-10
        shifted = ag.softmax(ag.Tensor(x + rng.normal() * np.ones((4, 1))), axis=1).data
        assert np.abs(out - shifted).max() < 1e-10


def test_softmax_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ag.softmax(ag.Tensor([np.nan, 1.0]), axis=-1)


def test_dropout_inverted_scaling_and_eval_identity():
    x = ag.Tensor(np.ones((1000,)), requires_grad=True)
    rng = np.random.default_rng(3)
    out = ag.dropout(x, 0.2, rng, train=True)
    kept = out.data != 0.0
    assert np.allclose(out.data[kept], 1.0 / 0.8)
    assert 0.7 < kept.mean() < 0.9
    assert ag.dropout(x, 0.2, rng, train=False) is x
    assert ag.dropout(x, 0.0, rng, train=True) is x


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_dropout_keeps_a_bool_mask_and_matches_the_float_mask_to_the_bit(rate):
    """Outputs, gradients and the rng's next draw equal ``keep / (1 - rate)`` masking, signed zeros included."""
    data = np.random.default_rng(2).normal(size=(40, 7))
    data[::3] *= -1e-300  # tiny and negative: a dropped entry is -0.0 either way
    upstream = np.random.default_rng(4).normal(size=data.shape)
    runs = []
    for dropout in (ag.dropout, float_mask_dropout):
        x, rng = ag.Tensor(data, requires_grad=True), np.random.default_rng(9)
        with ag.Tape() as tape:
            out = dropout(x, rate, rng, True)
            loss = ag.reduce_sum(ag.mul(out, upstream))
        masks = [c.cell_contents for c in tape.records[0].backward_fn.__closure__]
        tape.backward(loss)
        runs.append((out.data.tobytes(), x.grad.tobytes(), rng.random(), masks))
    (out, grad, draw, masks), (ref_out, ref_grad, ref_draw, _) = runs
    assert (out, grad, draw) == (ref_out, ref_grad, ref_draw)
    arrays = [m for m in masks if isinstance(m, np.ndarray)]
    assert [m.dtype for m in arrays] == [np.dtype(bool)]


@pytest.mark.parametrize("rate", [-0.1, 1.0, np.nan])
def test_dropout_rejects_a_rate_outside_unit_interval(rate):
    x = ag.Tensor(np.ones(3))
    for train in (True, False):
        with pytest.raises(ValueError, match="dropout rate"):
            ag.dropout(x, rate, np.random.default_rng(0), train)
        with pytest.raises(ValueError, match="dropout rate"):
            ag.dropout_mask((3,), rate, np.random.default_rng(0), train)


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ag.ShapeError, match="matmul.*\\(2, 3\\).*\\(2, 3\\)"):
        ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((2, 3))))
    with pytest.raises(IndexError, match="gather"):
        ag.gather(ag.Tensor(np.zeros((3, 2))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# backward rules
# ---------------------------------------------------------------------------


def test_backward_quadratic():
    w = ag.Tensor(np.array([3.0]), requires_grad=True)
    with ag.Tape() as tape:
        loss = ag.reduce_sum(ag.mul(w, w))
    tape.backward(loss)
    assert np.array_equal(w.grad, [6.0])


def test_backward_linearity_of_sum():
    a = ag.Tensor(np.arange(4.0), requires_grad=True)
    b = ag.Tensor(np.ones(4), requires_grad=True)
    with ag.Tape() as tape:
        loss = ag.reduce_sum(ag.add(a, b))
    tape.backward(loss)
    assert np.array_equal(a.grad, np.ones(4))
    assert np.array_equal(b.grad, np.ones(4))


def test_backward_sum_of_losses_equals_sum_of_gradients():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 3))

    def grads(build):
        w = ag.Tensor(x.copy(), requires_grad=True)
        with ag.Tape() as tape:
            loss = build(w)
        tape.backward(loss)
        return w.grad

    loss_a = lambda w: ag.reduce_sum(ag.mul(w, w))
    loss_b = lambda w: ag.reduce_sum(ag.tanh(w))
    combined = grads(lambda w: ag.add(loss_a(w), loss_b(w)))
    assert np.abs(combined - (grads(loss_a) + grads(loss_b))).max() < 1e-12


def test_backward_requires_scalar():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    with ag.Tape() as tape:
        out = ag.mul(w, w)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(out)


def test_backward_accumulates_across_calls():
    w = ag.Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(2):
        with ag.Tape() as tape:
            loss = ag.reduce_sum(ag.mul(w, w))
        tape.backward(loss)
    assert np.array_equal(w.grad, [8.0])  # 2 backward passes, 4.0 each


def test_dropped_tape_frees_its_graph_without_the_cyclic_collector():
    """Backward consumes the graph: an intermediate dies there, while the tape is still referenced.

    Records never point back at their tape, so nothing waits for the cyclic
    collector. The intermediate is watched through its data array, which
    only the tensor and its record's backward closure hold.
    """
    x = ag.Tensor(np.linspace(-1.0, 1.0, 9).reshape(3, 3), requires_grad=True)
    gc.disable()
    try:
        with ag.Tape() as tape:
            hidden = ag.tanh(ag.matmul(x, x))
            loss = ag.reduce_sum(hidden)
        hidden_ref = weakref.ref(hidden.data)
        del hidden
        assert hidden_ref() is not None  # the graph holds it until backward
        tape.backward(loss)
        assert hidden_ref() is None
        assert tape.records == []
        tape_ref = weakref.ref(tape)
        del tape
        assert tape_ref() is None
    finally:
        gc.enable()
    assert x.grad is not None and loss.grad is None


def test_a_tape_is_single_use():
    w = ag.Tensor(np.array([2.0]), requires_grad=True)
    with ag.Tape() as tape:
        loss = ag.reduce_sum(ag.mul(w, w))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        tape.backward(loss)
    assert np.array_equal(w.grad, [4.0])


def test_forward_bit_reproducible():
    rng_data = np.random.default_rng(5).normal(size=(4, 4))

    def run():
        x = ag.Tensor(rng_data, requires_grad=True)
        with ag.Tape():
            out = ag.reduce_sum(ag.softmax(ag.tanh(ag.matmul(x, x)), axis=1))
        return out.data.copy()

    assert np.array_equal(run(), run())


def char_cnn_on_table(p):
    """The fused char-CNN op with ``p`` as a 3-row, 3-column char table."""
    rng = np.random.default_rng(3)
    params = {"emb.char": p, "cnn.w": ag.Tensor(rng.normal(size=(3, 18))), "cnn.b": ag.Tensor(rng.normal(size=6))}
    return encoder.char_cnn(np.array([[1, 2, 0, 2, 1], [2, 2, 1, 0, 0]]), params)


def char_cnn_on_filters(p):
    """The fused char-CNN op with ``p`` as the width-3 taps (rows) of 3 filters over 1-column chars.

    The tap matrix (1, 27) holds width 2's 2 taps of 3 filters, then p's
    rows, then width 4's taps.
    """
    rng = np.random.default_rng(3)
    taps = ag.concat([ag.Tensor(rng.normal(size=(1, 6))), ag.reshape(p, (1, 9)), ag.Tensor(rng.normal(size=(1, 12)))], 1)
    params = {"emb.char": ag.Tensor(rng.normal(size=(5, 1))), "cnn.w": taps, "cnn.b": ag.Tensor(rng.normal(size=9))}
    return encoder.char_cnn(np.array([[1, 2, 3, 4, 1, 3], [4, 3, 0, 2, 1, 2]]), params)


PRIMITIVE_CASES = {
    "matmul2d": lambda p: ag.matmul(p, ag.Tensor(np.arange(6.0).reshape(3, 2))),
    "matmul3d": lambda p: ag.matmul(ag.reshape(ag.concat([p, p], axis=0), (2, 3, 3)),
                                    ag.Tensor(np.arange(6.0).reshape(3, 2) / 7.0)),
    "add_broadcast": lambda p: ag.add(ag.reshape(p, (3, 3, 1)), ag.Tensor(np.arange(4.0))),
    "mul_broadcast": lambda p: ag.mul(p, ag.Tensor(np.arange(3.0))),
    "concat": lambda p: ag.concat([p, ag.mul(p, 2.0)], axis=1),
    "tanh": ag.tanh,
    "sigmoid": sigmoid,
    "softmax": lambda p: ag.softmax(p, axis=0),
    "reduce_sum_axis": lambda p: ag.reduce_sum(p, axis=0),
    "reshape": lambda p: ag.reshape(p, (9,)),
    "transpose_last": ag.transpose_last,
    "select": lambda p: ag.select(p, 1, axis=0),
    "gather": lambda p: ag.gather(p, np.array([[0, 2], [2, 2]])),
    # convolution and max-over-time pooling are one fused record, encoder.char_cnn:
    # "conv1d" takes the gradient into the char table through the window
    # convolutions, "max_over_time" into a filter bank through the argmax routing
    "conv1d": char_cnn_on_table,
    "max_over_time": char_cnn_on_filters,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_backward_matches_finite_differences(name):
    build = PRIMITIVE_CASES[name]
    base = np.random.default_rng(7).normal(size=(3, 3))
    param = ag.Tensor(base.copy(), requires_grad=True)

    def closure():
        out = build(param)
        return ag.reduce_sum(ag.mul(out, out))

    param.grad = None
    with ag.Tape() as tape:
        loss = closure()
    tape.backward(loss)
    numeric = fd_grad(closure, param.data.reshape(-1)).reshape(3, 3)
    assert np.abs(param.grad - numeric).max() < 1e-6


@pytest.mark.parametrize(
    "table_shape, indices",
    [
        ((6, 3), np.array([4, 1, 4, 0, 1, 4, 5])),  # unsorted, repeated
        ((6, 3), np.array([[2, 0, 2], [5, 2, 0]])),  # 2-d indices
        ((6,), np.array([3, 3, 1, 0, 3])),  # 1-d table
        ((6, 3), np.array([], dtype=np.int64)),  # empty index
        ((6,), np.array([], dtype=np.int64)),
    ],
)
def test_gather_backward_equals_add_at(table_shape, indices):
    rng = np.random.default_rng(4)
    table = ag.Tensor(rng.normal(size=table_shape), requires_grad=True)
    shape = indices.shape + table_shape[1:]
    upstream = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)  # wide magnitudes
    expected = np.zeros(table_shape)
    np.add.at(expected, indices.reshape(-1), upstream.reshape(-1, *table_shape[1:]))
    with ag.Tape() as tape:
        out = ag.gather(table, indices)
        loss = ag.reduce_sum(ag.mul(out, upstream))
    tape.backward(loss)
    assert np.array_equal(table.grad, expected)  # same additions in the same order
    assert np.array_equal(ag.scatter_add(indices, upstream, table_shape[0]), expected)


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------


def test_grad_check_linear_model_exact():
    params = leaves({"w": np.array([[1.5]])})
    x = ag.Tensor(np.array([[2.0]]))
    report = ag.grad_check(lambda: ag.reduce_sum(ag.matmul(x, params["w"])), params, eps=1e-4, tol=1e-8)
    assert report.passed
    assert report.entries[0][1] < 1e-8  # linear: FD is exact
    assert report.summary().splitlines()[-1] == "gradcheck PASSED at tol 1e-08 over 1 elements of 1 tensors"


def test_grad_check_sigmoid_chain():
    params = leaves({
        "w1": np.random.default_rng(0).normal(size=(4, 4)) * 0.3,
        "w2": np.random.default_rng(1).normal(size=(4, 1)) * 0.3,
    })
    x = ag.Tensor(np.random.default_rng(2).normal(size=(5, 4)))

    def closure():
        return ag.reduce_sum(sigmoid(ag.matmul(sigmoid(ag.matmul(x, params["w1"])), params["w2"])))

    assert ag.grad_check(closure, params, eps=1e-4, tol=1e-4).passed


def test_grad_check_flags_corrupted_tanh_rule(monkeypatch):
    def broken_tanh(x):
        x = ag._as_tensor(x)
        out_data = np.tanh(x.data)

        def bwd(g):
            if x.requires_grad:
                x.accumulate_grad(g * (1.0 - 0.5 * out_data * out_data))  # wrong rule

        return ag.record("tanh", (x,), out_data, bwd)

    monkeypatch.setattr(ag, "tanh", broken_tanh)
    params = leaves({"tanh_w": np.array([[0.7, -0.4], [0.2, 0.9]]), "sigmoid_w": np.array([[0.3], [-0.6]])})
    tanh_w, sig_w = params.values()
    x = ag.Tensor(np.array([[1.0, 2.0], [0.5, -1.0]]))

    def closure():
        return ag.reduce_sum(
            ag.add(sigmoid(ag.matmul(x, sig_w)), ag.tanh(ag.matmul(x, tanh_w)))
        )

    report = ag.grad_check(closure, params, eps=1e-4, tol=1e-4)
    assert not report.passed
    failing = [name for name, _ in report.failures()]
    assert failing == ["tanh_w"]  # the corrupted rule's parameter, not the clean one
    assert "tanh_w" in report.summary()


@pytest.mark.parametrize("slope_error", [1.0, 1.001])
def test_grad_check_retries_an_element_whose_steps_straddle_a_kink(slope_error):
    # max(w, 0): the first two elements sit within eps of the kink at 0, where
    # a central difference at eps averages the two slopes (0.75 and 0.35)
    params = leaves({"w": np.array([5e-5, -3e-5, 0.7])})
    w = params["w"]

    def closure():
        def bwd(g):
            w.accumulate_grad(slope_error * g * (w.data > 0))

        return ag.reduce_sum(ag.record("relu", (w,), np.maximum(w.data, 0.0), bwd))

    report = ag.grad_check(closure, params, eps=1e-4, tol=1e-4)
    assert report.passed == (slope_error == 1.0), report.summary()


def test_grad_check_rejects_nondeterministic_closure():
    params = leaves({"w": np.array([1.0])})
    rng = np.random.default_rng(0)

    def closure():
        return ag.reduce_sum(ag.mul(params["w"], float(rng.random())))

    with pytest.raises(RuntimeError, match="deterministic"):
        ag.grad_check(closure, params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    tensors = {
        "alpha": np.random.default_rng(0).normal(size=(3, 4)),
        "beta": np.array([1.5]),
        "gamma/nested.name": np.arange(24.0).reshape(2, 3, 4),
    }
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, tensors)
    loaded = ag.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        ag.load_checkpoint(path)


def test_checkpoint_truncation_names_file_tensor_and_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, {"alpha": np.zeros((2, 3)), "beta": np.ones(4)})
    full = path.read_bytes()
    path.write_bytes(full[:-5])  # beta's values lose their last 5 bytes
    with pytest.raises(ValueError, match=r"model\.ckpt.*'beta' values needs 32 bytes, 27 left"):
        ag.load_checkpoint(path)
    path.write_bytes(full[:6])  # cut inside the header
    with pytest.raises(ValueError, match="header version needs 4 bytes, 2 left"):
        ag.load_checkpoint(path)


def test_checkpoint_loads_into_owned_contiguous_arrays(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"alpha": np.arange(6.0).reshape(2, 3), "empty": np.zeros((0, 4))}
    ag.save_checkpoint(path, tensors)
    for name, value in ag.load_checkpoint(path).items():
        assert np.array_equal(value, tensors[name]) and value.shape == tensors[name].shape
        assert value.dtype == np.float64
        assert all(value.flags[flag] for flag in ("C_CONTIGUOUS", "ALIGNED", "WRITEABLE", "OWNDATA"))


def test_checkpoint_rejects_bytes_after_the_last_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, {"alpha": np.zeros((2, 3))})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match=r"model\.ckpt has 1 bytes after its last tensor"):
        ag.load_checkpoint(path)


def test_checkpoint_rejects_a_tensor_name_given_twice(tmp_path):
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, {"alpha": np.zeros(2)})
    full = path.read_bytes()
    # the header's count says 2, and the one tensor follows twice
    path.write_bytes(full[:8] + struct.pack("<I", 2) + full[12:] + full[12:])
    with pytest.raises(ValueError, match=r"model\.ckpt holds tensor 'alpha' twice"):
        ag.load_checkpoint(path)


def test_checkpoint_rejects_a_tensor_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, {"alpha": np.zeros(2), "beta": np.zeros(2)})
    full = path.read_bytes()
    at = full.index(b"beta")
    path.write_bytes(full[:at] + b"\xffeta" + full[at + 4 :])
    with pytest.raises(ValueError, match=r"model\.ckpt: tensor #1 name is not UTF-8"):
        ag.load_checkpoint(path)


def test_checkpoint_checks_a_tensor_size_before_allocating_it(tmp_path):
    path = tmp_path / "model.ckpt"
    ag.save_checkpoint(path, {"alpha": np.zeros((2, 3))})
    full = bytearray(path.read_bytes())
    full[20:28] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # alpha's dims: 2**67 bytes of values
    path.write_bytes(full)
    with pytest.raises(ValueError, match=rf"'alpha' values needs {8 * (2**32 - 1) ** 2} bytes, 48 left"):
        ag.load_checkpoint(path)


def test_l2_penalty_value_and_gradient():
    a, b = leaves({"a": np.array([[1.0, -2.0], [0.5, 3.0]]), "b": np.array([4.0])}).values()
    with ag.Tape() as tape:
        loss = ag.l2_penalty([a, b], 0.25)
    assert len(tape.records) == 1
    assert float(loss.data) == pytest.approx(0.25 * (1 + 4 + 0.25 + 9 + 16), abs=1e-15)
    tape.backward(loss)
    assert np.array_equal(a.grad, 0.5 * a.data)
    assert np.array_equal(b.grad, 0.5 * b.data)
