"""Dense-tensor reverse-mode automatic differentiation on a recorded tape.

Everything is 64-bit float. A ``Tape`` is an eager, per-step execution
context: operations append a record (inputs, output, backward closure) in
execution order, so the record list is already topologically sorted and
``backward`` is a single reverse sweep. Gradients accumulate into
``Tensor.grad``; the caller zeroes them between optimization steps.

The module also owns the parameter registry (named tensors plus the
per-parameter squared-gradient and EMA shadow buffers used by training),
the finite-difference gradient checker, and the binary checkpoint format.

Checkpoint layout (little-endian, stable across releases):

    magic   4 bytes  b"DACT"
    version uint32   currently 1
    count   uint32   number of tensors
    then per tensor:
        name_len uint16
        name     utf-8 bytes
        ndim     uint8
        dims     ndim * uint32
        values   prod(dims) * float64, row-major
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ParamRegistry",
    "GradCheckReport",
    "ShapeError",
    "record",
    "grad_check",
    "matmul",
    "add",
    "mul",
    "concat",
    "tanh",
    "gather",
    "scatter_add",
    "dropout",
    "softmax",
    "reduce_sum",
    "reshape",
    "transpose_last",
    "select",
    "l2_penalty",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"DACT"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's contract."""


class Tensor:
    """A dense float64 array, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def accumulate_grad(self, g):
        """Add ``g`` into ``.grad``; the first gradient is stored as a private copy.

        The copy matters: an op may hand one array to several operands, and
        the optimizer later scales gradients in place.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("op", "output", "backward_fn")

    def __init__(self, op, output, backward_fn):
        self.op = op
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE_TAPE = None


class Tape:
    """Recorded-operation context; at most one tape is live per process.

    An op is recorded only when one of its inputs requires a gradient, so
    work on grad-free tensors (inference) never reaches a live tape, from
    whichever thread it runs. Records point at their outputs and inputs,
    never back at the tape, so a graph is freed as soon as its tape is.
    """

    def __init__(self):
        self.records = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss):
        """Reverse sweep from a scalar loss; accumulates into .grad fields."""
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if not self.records:
            raise RuntimeError("tape is empty; nothing to differentiate")
        loss.accumulate_grad(np.ones_like(loss.data))
        for rec in reversed(self.records):
            g = rec.output.grad
            if g is not None:
                rec.backward_fn(g)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def record(op, inputs, out_data, backward_fn):
    """Make the output tensor; append a record iff a tape is live and needed.

    This is also the entry point for fused ops defined outside this module:
    ``backward_fn(g)`` receives the output gradient and accumulates into
    the inputs that require one.
    """
    out = Tensor(out_data)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.records.append(_Record(op, out, backward_fn))
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return record("matmul", (a, b), out_data, bwd)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add shapes do not broadcast: {a.shape} + {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return record("add", (a, b), out_data, bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul shapes do not broadcast: {a.shape} * {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return record("mul", (a, b), out_data, bwd)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return record("concat", tuple(tensors), out_data, bwd)


def tanh(x):
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out_data * out_data))

    return record("tanh", (x,), out_data, bwd)


def scatter_add(indices, values, rows):
    """``np.add.at`` of ``values`` into a zero table of ``rows`` rows, to the bit.

    ``values`` holds one row per entry of ``indices``: the index shape,
    then the row shape. One ``np.bincount`` over the flat (row, column)
    positions adds every element, in index order as ``np.add.at`` does.
    """
    indices = np.asarray(indices)
    shape = np.shape(values)[indices.ndim :]
    width = math.prod(shape)
    flat = (indices.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=np.reshape(values, -1), minlength=rows * width)
    return sums.reshape(rows, *shape)


def gather(table, indices):
    """Row lookup: out[..., :] = table[indices[...], :]."""
    table = _as_tensor(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather index out of range: [{idx.min()}, {idx.max()}] for table with {table.shape[0]} rows"
        )
    out_data = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            table.accumulate_grad(scatter_add(idx, g, table.shape[0]))

    return record("gather", (table,), out_data, bwd)


def dropout(x, rate, rng, train):
    """Inverted dropout: kept activations scale by 1/(1-rate); identity at eval."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out_data = x.data * mask

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return record("dropout", (x,), out_data, bwd)


def softmax(x, axis=-1):
    x = _as_tensor(x)
    if np.isnan(x.data).any():
        raise ValueError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(out_data * (g - inner))

    return record("softmax", (x,), out_data, bwd)


def reduce_sum(x, axis=None):
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis)

    def bwd(g):
        if x.requires_grad:
            ge = g if axis is None else np.expand_dims(g, axis)
            x.accumulate_grad(np.broadcast_to(ge, x.shape).copy())

    return record("reduce_sum", (x,), out_data, bwd)


def reshape(x, shape):
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return record("reshape", (x,), out_data, bwd)


def transpose_last(x):
    """Swap the last two axes."""
    x = _as_tensor(x)
    out_data = np.swapaxes(x.data, -1, -2)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.swapaxes(g, -1, -2))

    return record("transpose_last", (x,), out_data, bwd)


def select(x, index, axis):
    """Index one slice along ``axis``, dropping that axis."""
    x = _as_tensor(x)
    if not 0 <= index < x.shape[axis]:
        raise IndexError(f"select index {index} out of range for axis {axis} of {x.shape}")
    out_data = np.take(x.data, index, axis=axis)

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            idx = [slice(None)] * x.ndim
            idx[axis] = index
            gx[tuple(idx)] = g
            x.accumulate_grad(gx)

    return record("select", (x,), out_data, bwd)


def l2_penalty(tensors, coeff):
    """``coeff`` times the sum of squares of every element, as one record."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.asarray(coeff * sum(float(np.vdot(t.data, t.data)) for t in tensors))

    def bwd(g):
        scale = 2.0 * coeff * float(g)
        for t in tensors:
            if t.requires_grad:
                t.accumulate_grad(scale * t.data)

    return record("l2_penalty", tuple(tensors), out_data, bwd)


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------


class ParamRegistry:
    """Named parameters plus the optimizer-side buffers that shadow them.

    ``sq_accum`` holds the per-element running sum of squared gradients;
    ``ema`` holds the exponential moving-average shadow, initialized to the
    initial parameter values. ``frozen_rows`` lists row indices whose
    gradient is masked to keep them pinned (padding rows).

    Parameter and EMA arrays are never written in place: updates bind a
    new array, so any mapping of arrays taken earlier stays as it was.
    """

    def __init__(self):
        self.params = {}
        self.sq_accum = {}
        self.ema = {}
        self.frozen_rows = {}

    def add(self, name, value, frozen_rows=None):
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        self.sq_accum[name] = np.zeros_like(t.data)
        self.ema[name] = t.data.copy()
        if frozen_rows is not None:
            self.frozen_rows[name] = np.asarray(frozen_rows, dtype=np.int64)
        return t

    def __getitem__(self, name):
        return self.params[name]

    def names(self):
        return list(self.params)

    def zero_grads(self):
        for t in self.params.values():
            t.grad = None

    def mask_frozen_grads(self):
        for name, rows in self.frozen_rows.items():
            g = self.params[name].grad
            if g is not None:
                g[rows] = 0.0

    def trainable_mask(self, name):
        """Boolean mask of elements that actually train (frozen rows excluded)."""
        mask = np.ones(self.params[name].shape, dtype=bool)
        rows = self.frozen_rows.get(name)
        if rows is not None:
            mask[rows] = False
        return mask

    def state_dict(self):
        return {name: t.data.copy() for name, t in self.params.items()}


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


class GradCheckReport:
    """Per-parameter worst relative error between analytic and numeric grads."""

    def __init__(self, tol):
        self.tol = tol
        self.entries = []  # (name, max_rel_err, n_checked)

    def record(self, name, max_rel_err, n_checked):
        self.entries.append((name, max_rel_err, n_checked))

    @property
    def passed(self):
        return all(err <= self.tol for _, err, _ in self.entries)

    def failures(self):
        return [(n, e) for n, e, _ in self.entries if e > self.tol]

    def summary(self):
        lines = []
        for name, err, n in self.entries:
            status = "ok" if err <= self.tol else "FAIL"
            lines.append(f"{status:4s} {name:32s} max_rel_err={err:.3e} ({n} elements)")
        lines.append(f"gradcheck {'PASSED' if self.passed else 'FAILED'} at tol {self.tol:g}")
        return "\n".join(lines)


def _rel_err(a, b, floor):
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check(closure, registry, eps=1e-4, tol=1e-4, max_per_tensor=50, seed=0, floor=1e-3):
    """Compare analytic gradients of ``closure()`` against central differences.

    The closure must build and return a scalar loss tensor when called under
    an active tape, and must be deterministic (dropout off, fixed inputs).
    Frozen (pinned) rows are skipped: their gradient is masked by contract,
    so they are constants rather than parameters. Up to ``max_per_tensor``
    elements are sampled per parameter.

    The error denominator is floored at ``floor``: gradients below that
    magnitude are compared absolutely at tol*floor, which sits safely above
    the resolution of a central difference in float64 (truncation plus
    rounding is roughly 1e-9..1e-8 absolute at eps=1e-4 on O(10) losses,
    so genuinely near-zero gradients would otherwise fail on pure noise).

    A piecewise-linear op (a max-pool switch) can put a kink inside
    [x - eps, x + eps], where the central difference averages two slopes.
    When the one-sided slopes disagree by more than ``tol`` (same measure),
    that element is differenced once more at 1e-2 * eps; the analytic
    gradient is still compared with a central difference at ``tol``.
    """
    base1 = _loss_value(closure)
    base2 = _loss_value(closure)
    if base1 != base2:
        raise RuntimeError(
            f"closure is not deterministic: two forward passes gave {base1!r} and {base2!r}"
        )

    registry.zero_grads()
    with Tape() as tape:
        loss = closure()
    tape.backward(loss)
    registry.mask_frozen_grads()

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol)
    for name in registry.names():
        t = registry.params[name]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        candidates = np.flatnonzero(registry.trainable_mask(name).reshape(-1))
        if candidates.size == 0:
            continue
        if candidates.size > max_per_tensor:
            chosen = rng.choice(candidates, size=max_per_tensor, replace=False)
        else:
            chosen = candidates
        base = t.data

        def shifted_losses(j, step):
            losses = []
            for delta in (step, -step):
                # rebind, never write: arrays read earlier must not change
                t.data = base.copy()
                t.data.reshape(-1)[j] += delta
                losses.append(_loss_value(closure))
            t.data = base
            return losses

        worst = 0.0
        for j in sorted(int(c) for c in chosen):
            step = eps
            up, down = shifted_losses(j, step)
            if _rel_err((up - base1) / step, (base1 - down) / step, floor) > tol:
                step = 1e-2 * eps  # the two sides straddle a kink: retry once, closer in
                up, down = shifted_losses(j, step)
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, _rel_err(analytic.reshape(-1)[j], numeric, floor))
        report.record(name, worst, len(chosen))
    return report


def _loss_value(closure):
    return float(closure().data)


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(path, tensors):
    """Write named float64 arrays in the documented binary layout."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(tensors)))
        for name, value in tensors.items():
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(value, dtype="<f8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into a name -> float64 ndarray dict.

    Every field is length-checked, so a short file raises ``ValueError``
    naming the file, the tensor being read, and the bytes expected and left.
    """
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def read(size, what):
        nonlocal pos
        if len(buf) - pos < size:
            raise ValueError(
                f"checkpoint {path} is truncated: {what} needs {size} bytes, "
                f"{len(buf) - pos} left"
            )
        pos += size
        return buf[pos - size : pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, read(struct.calcsize(fmt), what))[0]

    magic = read(4, "header magic")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    version = unpack("<I", "header version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    count = unpack("<I", "header tensor count")
    tensors = {}
    for i in range(count):
        where = f"tensor #{i}"
        name_len = unpack("<H", f"{where} name length")
        name = read(name_len, f"{where} name").decode("utf-8")
        where = f"tensor {name!r}"
        ndim = unpack("<B", f"{where} ndim")
        shape = tuple(unpack("<I", f"{where} dims") for _ in range(ndim))
        values = read(8 * math.prod(shape), f"{where} values")
        tensors[name] = np.frombuffer(values, dtype="<f8").astype(np.float64).reshape(shape)
    return tensors
