"""Hierarchical utterance encoding with memory attention.

Pipeline per conversation batch (any utterance counts):

1. token features: [word row | char-CNN over characters | POS row | NER
   row], with dropout, as one tape op;
2. word-level BiGRU whose two final states form the utterance vector u_j;
3. conversation-level BiGRU over u_1..u_n combined through a tanh layer
   into contextual keys h_j;
4. memory attention p[j, i] = softmax_i(u_j . h_i), weighted sum over the
   utterance memory, residual hop u1_j = o_j + u_j (default one hop).

Token rows are packed: the tokens of every utterance are laid end to end,
conversation by conversation and utterance by utterance, with a separate
array of per-utterance lengths; utterance rows likewise, with
``utt_counts`` per conversation. No padded row reaches dropout or the
recurrences. The memory layer gets a padded (B, N, d) block, laid out by
one gather, and masks padded keys.

A token's word id and characters depend only on its surface, so a batch
stores them once per type row (one distinct surface, in order of first
occurrence) and ``types`` maps each packed token row to its type row.
``embed_tokens`` runs the word lookup and ``char_cnn``, one fused tape
op that adds up k rows of projected character tables per window and
pools over the windows inside the surface only, over the type rows.
``token_features``, one more tape op, writes each feature row's type
row, POS row and NER row into their column blocks of one array and
applies dropout there in place from a bool keep-mask, so a recorded step
keeps one float array of token features; its backward sends each column
block to its table by ``ag.scatter_add``. So a token's features never
depend on the batch it is in.
In training, dropout masks every token's row separately, so there is one
feature row per token. Where no mask is drawn (inference, or a dropout
of 0), a token's features depend only on its (type, POS, NER) triple, so
there is one row per distinct triple and an ``index`` from tokens to
rows: the word BiGRU projects each distinct row once and reads the
projections by that index.

Each BiGRU is one ``gru_sequence`` call, one tape record with a
hand-written backward through time, returning [fwd | bwd] rows. One
GEMM per direction projects every input row through all three gates.
The sequences are sorted by length, longest first, and one time loop
steps both directions: at step t, ``gru_step`` updates the prefix of
sequences still running, forward and backward rows in one block, in
place; the backward direction reads each sequence from its last row.
Gates and candidates are kept only when the op is recorded, so inference
keeps one step's worth. No padding row of an embedding table is ever
read: the vocabulary maps no input symbol to PAD, and ``char_cnn`` reads
the PAD filler after a surface as a constant zero character. So every
PAD row's gradient is exactly 0 and those rows stay as they start.

Every layer takes ``params``, one flat mapping from checkpoint name to
tensor, and reads its own entries, each stored in the layout its op
computes with: ``emb.*`` and the tap matrix ``cnn.w`` with ``cnn.b`` for
the token features, ``{name}.w``/``.u``/``.b`` for a BiGRU (``utt_gru``,
``ctx_gru``), both directions' weights in one tensor each, and ``ctx.w``,
``ctx.b`` for the context combination, one matmul over the [fwd | bwd]
states. Training passes the model's parameter tensors; inference passes
grad-free tensors over the same arrays, so it records nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .corpus import PAD_ID

CHAR_WIDTHS = (2, 3, 4)


def split_filter_counts(total):
    """Distribute filter outputs across ``CHAR_WIDTHS``, earlier widths get remainders."""
    base, rem = divmod(total, len(CHAR_WIDTHS))
    return tuple(base + (1 if i < rem else 0) for i in range(len(CHAR_WIDTHS)))


# ---------------------------------------------------------------------------
# batch preparation
# ---------------------------------------------------------------------------


@dataclass
class BatchArrays:
    """Integer id arrays for a batch of conversations of any lengths.

    Token arrays are packed: row m is one real token, utterances laid end
    to end in (conversation, utterance, token) order; ``lengths`` gives the
    token count of each utterance in the same order. Word ids and
    characters depend only on a token's surface, so they are stored once
    per type: a type row is one distinct surface in the batch, in order of
    first occurrence, and ``types[m]`` is token m's type row.
    """

    utt_counts: np.ndarray  # (B,) utterances per conversation
    lengths: np.ndarray  # (S,) tokens per utterance, S = utt_counts.sum()
    types: np.ndarray  # (M,) type row of each token
    word: np.ndarray  # (U,) word id of each type
    char: np.ndarray  # (U, L), PAD after each type's characters
    pos: np.ndarray  # (M,)
    ner: np.ndarray  # (M,)


def prepare_batch(conversations, vocab):
    """Map conversations onto packed id arrays.

    L, the width of ``char``, is the longest surface in the batch but at
    least the widest filter.
    """
    utterances = [u for c in conversations for u in c.utterances]
    tokens = [tok for u in utterances for tok in u.tokens]
    type_rows = {}
    types = [type_rows.setdefault(tok.surface, len(type_rows)) for tok in tokens]
    l_max = max(max(CHAR_WIDTHS), max(map(len, type_rows)))
    char = np.full((len(type_rows), l_max), PAD_ID, dtype=np.int64)
    for row, surface in enumerate(type_rows):
        char[row, : len(surface)] = [vocab.char_id(ch) for ch in surface]
    return BatchArrays(
        utt_counts=np.array([len(c) for c in conversations], dtype=np.int64),
        lengths=np.array([len(u.tokens) for u in utterances], dtype=np.int64),
        types=np.array(types, dtype=np.int64),
        word=np.array([vocab.word_id(surface) for surface in type_rows], dtype=np.int64),
        char=char,
        pos=np.array([vocab.pos_id(tok.pos) for tok in tokens], dtype=np.int64),
        ner=np.array([vocab.ner_id(tok.ner) for tok in tokens], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


def gru_step(params, x, h, out, rz, cand):
    """One gated update of the k running sequences of both directions, in place.

    ``x`` (2k, 3H) holds the projected inputs of the forward sequences, then
    of the backward ones, with the r/z columns halved: [(x w_r + b_r) / 2 |
    (x w_z + b_z) / 2 | x w_h + b_h]. ``params`` holds each direction's
    ``u_rz`` = [u_r | u_z] / 2, stacked (2, H, 2H), and ``u_h`` (2, H, H).
    ``h`` (2, k, H) is the state before the step, or None for the zero state
    of step 0, which needs no recurrent GEMM. Writes [r | z] to ``rz`` (2, k,
    2H), the candidate to ``cand`` (2, k, H) and h' = z * h + (1 - z) *
    candidate to ``out`` (2, k, H).
    """
    hid = out.shape[2]
    x = x.reshape(2, -1, 3 * hid)
    if h is None:
        np.tanh(x[:, :, : 2 * hid], out=rz)
    else:
        np.matmul(h, params["u_rz"], out=rz)
        rz += x[:, :, : 2 * hid]
        np.tanh(rz, out=rz)
    rz *= 0.5
    rz += 0.5  # sigmoid(v) = tanh(v / 2) / 2 + 1/2, with v / 2 formed above
    if h is None:
        np.tanh(x[:, :, 2 * hid :], out=cand)
        np.multiply(rz[:, :, hid:], cand, out=out)
        np.subtract(cand, out, out=out)
    else:
        np.multiply(rz[:, :, :hid], h, out=out)  # r * h, until h' overwrites it
        np.matmul(out, params["u_h"], out=cand)
        cand += x[:, :, 2 * hid :]
        np.tanh(cand, out=cand)
        np.subtract(h, cand, out=out)
        out *= rz[:, :, hid:]
        out += cand


@dataclass
class PackedSchedule:
    """Time-major order of packed rows: step t runs the first k_t sequences.

    Sequences are sorted by length, longest first, so the sequences still
    running at step t are a prefix of that order, in both directions.
    ``perm[d, i]`` is the packed row that direction d (0 forward, 1
    backward, which reads each sequence from its last row) reads at
    time-major position i; ``offsets[t]`` is where step t starts; ``last[s]``
    is the time-major position of sequence s's final state. A step-blocked
    buffer holds step t in rows [2 offsets[t], 2 offsets[t + 1]), its k_t
    forward rows then its k_t backward rows; ``slots[d, i]`` is the row of
    direction d's position i there.
    """

    running: list  # k_t per step
    offsets: list
    perm: np.ndarray  # (2, M)
    last: np.ndarray  # (S,)
    slots: np.ndarray  # (2, M)

    @classmethod
    def build(cls, lengths):
        """Schedule for an int64 array of sequence lengths."""
        if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
            raise ValueError(f"sequence lengths must be a non-empty list of ints >= 1, got {lengths}")
        order = np.argsort(-lengths, kind="stable")
        t_len = int(lengths[order[0]])
        running = lengths.size - np.cumsum(np.bincount(lengths, minlength=t_len + 1))[:t_len]
        offsets = np.concatenate([[0], np.cumsum(running)])
        step = np.repeat(np.arange(t_len), running)
        seq = order[np.arange(offsets[-1]) - offsets[step]]
        starts = np.cumsum(lengths) - lengths
        last = np.empty_like(order)
        last[order] = offsets[lengths[order] - 1] + np.arange(lengths.size)
        slots = np.arange(offsets[-1]) + offsets[step]
        return cls(
            running=running.tolist(),
            offsets=offsets.tolist(),
            perm=np.stack([starts[seq] + step, starts[seq] + lengths[seq] - 1 - step]),
            last=last,
            slots=np.stack([slots, slots + running[step]]),
        )


def gru_sequence(params, name, xs, lengths, collect=False, index=None):
    """Bidirectional GRU over packed rows, recorded as one tape op.

    ``xs`` (M, E) is a tensor holding the sequences end to end, in order, with
    ``lengths`` (S,) rows each (all >= 1, summing to M). ``name`` names the
    BiGRU, whose weights are ``{name}.w`` (2, E, 3H), ``{name}.u`` (2, H, 3H)
    and ``{name}.b`` (2, 3H): direction 0 is forward and 1 backward, and the
    gate columns are [r | z | h]. Each state starts at zero, runs over each
    sequence (the backward one from its last row) and never sees another
    sequence's rows. Returns the final states [fwd | bwd] (S, 2H), or with
    ``collect`` the states after every row, (M, 2H) in packed order.

    With ``index`` (M,), packed row m is ``xs[index[m]]``: ``xs`` holds
    distinct rows only, each projected once, and the backward sums the
    gradients of the packed rows that share one.

    One GEMM per direction projects its rows through all three gates; one
    time loop then steps both directions together (``gru_step``), writing
    into step-blocked buffers. The gates and candidates are kept for the
    backward only when the op is recorded; the backward reads each step's
    previous state from the states. An op that is not recorded carves its
    buffers from one block, its size rounded up to a power of two, and
    frees it when it returns.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    w, u, b = (params[f"{name}.{kind}"] for kind in "wub")
    if xs.ndim != 2 or (index is None and xs.shape[0] != lengths.sum()):
        raise ag.ShapeError(f"gru_sequence needs (sum(lengths), E) rows, got {xs.shape} for {lengths}")
    if index is not None:
        if index.shape != (lengths.sum(),):
            raise ag.ShapeError(f"gru_sequence index needs sum(lengths) rows, got {index.shape} for {lengths}")
        if index.size and (index.min() < 0 or index.max() >= xs.shape[0]):
            raise ag.ShapeError(f"gru_sequence index must lie in [0, {xs.shape[0]}), the rows of xs")
    hid = b.shape[-1] // 3
    if w.shape != (2, xs.shape[1], 3 * hid) or u.shape != (2, hid, 3 * hid) or b.shape != (2, 3 * hid):
        raise ag.ShapeError(f"{name} weights {w.shape}, {u.shape}, {b.shape} do not fit E = {xs.shape[1]} inputs")
    sched = PackedSchedule.build(lengths)
    rows = sched.perm if index is None else index[sched.perm]
    u_rz, u_h = u.data[:, :, : 2 * hid], u.data[:, :, 2 * hid :]
    m, k0, n_x = rows.shape[1], sched.running[0], xs.shape[0]
    inputs = (xs, w, u, b)
    keep = ag.will_record(inputs)
    kept = 2 * m if keep else 2 * k0  # without a backward, one step's gates at a time
    shapes = [(2, n_x, 3 * hid), (2 * m, hid), (2 * k0, 3 * hid), (kept, 2 * hid), (kept, hid)]
    if keep:  # separate arrays: the backward keeps states, rz and cand, but not proj
        proj, states, step_in, rz, cand = (np.empty(shape) for shape in shapes)
    else:
        # One block per call: freeing it raises glibc's mmap threshold to its size
        # and the trim threshold to twice that, so the heap stays mapped between
        # decode calls instead of being handed back and faulted in again. Its size
        # is rounded up to a power of two, so a call a little larger than any before
        # reuses the heap's block instead of mapping a new one beside it.
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
        scratch = np.empty(1 << (ends[-1] - 1).bit_length())
        proj, states, step_in, rz, cand = (
            scratch[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)
        )
    np.matmul(xs.data, w.data, out=proj)
    proj += b.data[:, None]
    # The sigmoid's inner 1/2, folded into the r/z columns: halving is exact.
    proj[:, :, : 2 * hid] *= 0.5
    src = np.empty(2 * m, dtype=np.int64)  # step-blocked rows of proj
    src[sched.slots] = rows + n_x * np.arange(2)[:, None]
    proj = proj.reshape(-1, 3 * hid)

    def block(buf, t):
        """Step t's rows of a step-blocked buffer, viewed as (2, k_t, width)."""
        lo, k = sched.offsets[t], sched.running[t]
        return buf[2 * lo : 2 * (lo + k)].reshape(2, k, -1)

    step_params = {"u_rz": 0.5 * u_rz, "u_h": u_h}
    h = None
    for t, (lo, k) in enumerate(zip(sched.offsets, sched.running)):
        out = block(states, t)
        if keep:
            step_rz, step_cand = block(rz, t), block(cand, t)
        else:
            step_rz, step_cand = rz[: 2 * k].reshape(2, k, -1), cand[: 2 * k].reshape(2, k, -1)
        # src is in range by construction; mode "raise" would buffer the write to out
        np.take(proj, src[2 * lo : 2 * (lo + k)], axis=0, out=step_in[: 2 * k], mode="clip")
        gru_step(step_params, step_in[: 2 * k], None if h is None else h[:, :k], out, step_rz, step_cand)
        h = out
    if collect:
        take = np.empty_like(sched.slots)
        np.put_along_axis(take, sched.perm, sched.slots, axis=1)
    else:
        take = sched.slots[:, sched.last]
    out_data = states[take.T].reshape(-1, 2 * hid)

    def bwd(g):
        # Direction-major (2, M, .) buffers: each direction's rows are contiguous and
        # time-major, the order its weight GEMMs sum in.
        g = g.reshape(-1, 2, hid).swapaxes(0, 1)
        if collect:
            d_states = np.take_along_axis(g, sched.perm[:, :, None], axis=1)
        else:
            d_states = np.zeros((2, m, hid))
            d_states[:, sched.last] = g
        u_rz_t, u_h_t = u_rz.swapaxes(1, 2), u_h.swapaxes(1, 2)
        da = np.empty((2, m, 3 * hid))
        h_prev, rh = np.empty((2, m, hid)), np.empty((2, m, hid))
        h_prev[:, :k0] = 0.0
        carry = np.zeros((2, k0, hid))  # dL/dh from the step after
        for t in reversed(range(len(sched.running))):
            lo, k = sched.offsets[t], sched.running[t]
            hi = lo + k
            if t:
                h_prev[:, lo:hi] = block(states, t - 1)[:, :k]
            dh = d_states[:, lo:hi]
            dh += carry[:, :k]
            hp, c, gates = h_prev[:, lo:hi], block(cand, t), block(rz, t)
            z = gates[:, :, hid:]
            np.multiply(gates[:, :, :hid], hp, out=rh[:, lo:hi])
            da_h = da[:, lo:hi, 2 * hid :]
            np.multiply(dh * (1.0 - z), 1.0 - c * c, out=da_h)
            drh = np.matmul(da_h, u_h_t)
            da_rz = da[:, lo:hi, : 2 * hid]
            np.multiply(drh, hp, out=da_rz[:, :, :hid])
            np.multiply(dh, hp - c, out=da_rz[:, :, hid:])
            da_rz *= gates * (1.0 - gates)
            carry[:, :k] = dh * z + drh * gates[:, :, :hid] + np.matmul(da_rz, u_rz_t)
        # Freed before the input-side GEMMs allocate: a lower peak keeps the
        # heap within pages already mapped instead of faulting in fresh ones.
        del d_states, carry
        d_w, d_u, d_b = np.empty_like(w.data), np.empty_like(u.data), np.empty_like(b.data)
        np.matmul(h_prev.swapaxes(1, 2), da[:, :, : 2 * hid], out=d_u[:, :, : 2 * hid])
        np.matmul(rh.swapaxes(1, 2), da[:, :, 2 * hid :], out=d_u[:, :, 2 * hid :])
        del h_prev, rh
        for d in range(2):
            if index is None:
                da_rows = np.empty_like(da[d])
                da_rows[rows[d]] = da[d]
            else:
                da_rows = ag.scatter_add(rows[d], da[d], n_x)
            np.matmul(xs.data.T, da_rows, out=d_w[d])
            da_rows.sum(axis=0, out=d_b[d])
            if xs.requires_grad:
                xs.accumulate_grad(da_rows @ w.data[d].T)
        for weight, grad in ((w, d_w), (u, d_u), (b, d_b)):
            if weight.requires_grad:
                weight.accumulate_grad(grad)

    return ag.record("gru", inputs, out_data, bwd)


# ---------------------------------------------------------------------------
# token embedding
# ---------------------------------------------------------------------------


def char_cnn(char_ids, params):
    """Character convolutions with max-over-time pooling, as one tape record.

    char_ids: (N, L) ids into ``emb.char`` (V, C), L at least the widest
    filter. ``cnn.b`` (F,) holds the biases of F filters, split across the
    widths by ``split_filter_counts``, F_k of width k. ``cnn.w`` (C, sum
    k*F_k) is the tap matrix: width k's tap j, the weights of a window's
    j-th character, is its columns [start_k + j*F_k, start_k + (j+1)*F_k),
    widths in ascending order. Output (N, F), widths in ascending order.

    PAD is a constant zero character, whatever the table's PAD row holds:
    its projected rows are 0 and so is its row's gradient. Windows past a
    surface's end are excluded: those starting beyond max(len, widest
    filter) - k, len counting a row's non-PAD ids, so a token's features
    do not depend on L, its batch's longest surface.

    One GEMM projects the whole table (not only the batch's characters)
    through every tap, so a window's scores are its k characters' rows of
    the projected tap tables plus the bias, laid out time-major (L_out, N,
    F_k). Inference pools with max; a recorded op also keeps each filter's
    argmax window (ties go to the first), and its backward adds each pooled
    gradient into the tap tables at that window's characters (one
    ``np.bincount``), then into the table and the tap matrix by one GEMM each.
    """
    table, weight, bias = params["emb.char"], params["cnn.w"], params["cnn.b"]
    (n, length), dim = char_ids.shape, table.shape[1]
    if length < max(CHAR_WIDTHS):
        raise ag.ShapeError(f"char_cnn input length {length} shorter than filter width {max(CHAR_WIDTHS)}")
    counts = split_filter_counts(bias.shape[0])
    starts = np.cumsum([0] + [k * f for k, f in zip(CHAR_WIDTHS, counts)]).tolist()
    if weight.shape != (dim, starts[-1]):
        raise ag.ShapeError(f"char_cnn tap matrix {weight.shape} does not fit C = {dim} and {bias.shape[0]} filters")
    bounds = np.cumsum([0, *counts]).tolist()  # width k's filters: output columns [bounds_k, bounds_k+1)
    proj = table.data @ weight.data  # (V, sum k*F_k): every tap's table
    proj[PAD_ID] = 0.0
    time_ids = np.ascontiguousarray(char_ids.T)
    # a window of width k may start at most max(len, widest filter) - k in
    ends = np.maximum(np.count_nonzero(char_ids != PAD_ID, axis=1), max(CHAR_WIDTHS))
    inputs = (table, weight, bias)
    keep = ag.will_record(inputs)
    pooled, args = [], []
    for width, filters, start, lo in zip(CHAR_WIDTHS, counts, starts, bounds):
        span = length - width + 1
        conv = np.take(proj[:, start : start + filters], time_ids[:span], axis=0)
        for j in range(1, width):
            conv += np.take(proj[:, start + j * filters : start + (j + 1) * filters], time_ids[j : j + span], axis=0)
        conv += bias.data[lo : lo + filters]
        conv[np.arange(span)[:, None] > ends - width] = -np.inf
        pooled.append(conv.max(axis=0))  # the value at the argmax window, to the bit
        args.append(conv.argmax(axis=0) if keep else None)
    out_data = np.concatenate(pooled, axis=1)

    def bwd(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        flat_ids, flat, grads = char_ids.reshape(-1), [], []
        for width, filters, start, lo, arg in zip(CHAR_WIDTHS, counts, starts, bounds, args):
            g_k = g[:, lo : lo + filters]
            window = np.arange(n)[:, None] * length + arg  # each filter's argmax window in the flat ids
            for j in range(width):  # d P_j[c, f] gets g_k[:, f] wherever tap j read character c
                flat.append(flat_ids[window + j] * proj.shape[1] + (start + j * filters + np.arange(filters)))
                grads.append(g_k)
        flat, grads = np.concatenate(flat, axis=None), np.concatenate(grads, axis=None)
        d_proj = np.bincount(flat, weights=grads, minlength=proj.size).reshape(proj.shape)
        d_proj[PAD_ID] = 0.0
        if table.requires_grad:
            table.accumulate_grad(d_proj @ weight.data.T)
        if weight.requires_grad:
            weight.accumulate_grad(table.data.T @ d_proj)

    return ag.record("char_cnn", inputs, out_data, bwd)


def token_features(tables, rows, keep=None, rate=0.0):
    """Feature rows [t_0[rows_0] | t_1[rows_1] | ...] (R, E), as one tape record.

    ``tables`` are (V_i, E_i) tensors and ``rows`` (R,) int arrays, one per
    table. Each table's rows are written into its column block of one (R, E)
    array. A bool ``keep`` mask (R, E) from ``ag.dropout_mask`` applies
    inverted dropout to that array in place; the backward scales the
    gradient by the same mask and sends each column block to its table by
    one ``ag.scatter_add``. No float mask or intermediate row block is kept.
    """
    bounds = np.cumsum([0] + [t.shape[1] for t in tables]).tolist()
    out = np.empty((len(rows[0]), bounds[-1]))
    for table, ids, lo, hi in zip(tables, rows, bounds, bounds[1:]):
        if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
            raise IndexError(f"token_features row ids [{ids.min()}, {ids.max()}] out of range for {table.shape[0]} rows")
        out[:, lo:hi] = table.data[ids]
    if keep is not None:
        ag.apply_dropout(out, keep, rate, out=out)

    def bwd(g):
        if keep is not None:
            g = ag.apply_dropout(g, keep, rate)
        for table, ids, lo, hi in zip(tables, rows, bounds, bounds[1:]):
            if table.requires_grad:
                table.accumulate_grad(ag.scatter_add(ids, g[:, lo:hi], table.shape[0]))

    return ag.record("token_features", tuple(tables), out, bwd)


def embed_tokens(batch, params, train=False, rng=None, dropout_rate=0.0):
    """Token features (R, E) and ``index`` (M,), the row of each token; None when R = M.

    The word row and the char-CNN features are built once per type row;
    ``token_features`` then writes each feature row's type row, POS row and
    NER row into one array and applies dropout there. When dropout draws a
    mask, every token gets its own row, in packed order, and ``index`` is
    None. Otherwise a row's features depend only on its (type, POS, NER)
    triple, so there is one row per distinct triple, in key order, and
    ``index`` maps each token to it.
    """
    per_type = ag.concat([ag.gather(params["emb.word"], batch.word), char_cnn(batch.char, params)], axis=1)
    pos_table, ner_table = params["emb.pos"], params["emb.ner"]
    types, pos, ner, index = batch.types, batch.pos, batch.ner, None
    width = per_type.shape[1] + pos_table.shape[1] + ner_table.shape[1]
    keep = ag.dropout_mask((types.size, width), dropout_rate, rng, train)
    if keep is None:
        key = (types * pos_table.shape[0] + pos) * ner_table.shape[0] + ner
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        types, pos, ner = types[first], pos[first], ner[first]
    return token_features((per_type, pos_table, ner_table), (types, pos, ner), keep, dropout_rate), index


def encode_utterances(embedded, lengths, params, index=None):
    """Utterance vectors (S, 2*hidden) from the ``utt_gru`` BiGRU's final states.

    ``embedded`` and ``index`` are as ``embed_tokens`` returns them.
    """
    return gru_sequence(params, "utt_gru", embedded, lengths, index=index)


def encode_context(rows, utt_counts, params):
    """Contextual keys h_j = tanh([fwd_j | bwd_j] W + b) over packed utterance rows.

    ``rows`` (S, d) and the result hold each conversation's ``utt_counts``
    rows end to end. fwd/bwd are the ``ctx_gru`` BiGRU's states; W (2H, d)
    and b are ``ctx.w`` and ``ctx.b``.
    """
    states = gru_sequence(params, "ctx_gru", rows, utt_counts, collect=True)
    return ag.tanh(ag.add(ag.matmul(states, params["ctx.w"]), params["ctx.b"]))


def pad_rows(rows, utt_counts):
    """Packed rows (S, d) as a (B, N, d) block by one gather; padding reads an appended zero row."""
    pos = np.arange(utt_counts.max())
    starts = np.cumsum(utt_counts) - utt_counts
    index = np.where(pos < utt_counts[:, None], starts[:, None] + pos, rows.shape[0])
    return ag.gather(ag.concat([rows, np.zeros((1, rows.shape[1]))], axis=0), index)


def memory_layer(us, hs, hops=1, utt_counts=None):
    """Attention over the utterance memory plus residual hop stacking.

    us, hs: (B, N, d). Returns (attention (B, N, N) from the last hop,
    last hop outputs o (B, N, d), finals (B, N, d)). Scores are query
    utterance against contextual key; values are the current-hop memory.
    Keys past a conversation's ``utt_counts`` entry get no attention.
    """
    bias = 0.0
    if utt_counts is not None:
        bias = np.where(np.arange(us.shape[1]) < utt_counts[:, None], 0.0, -np.inf)[:, None, :]
    cur = us
    attention = out = None
    for _ in range(hops):
        attention = ag.softmax(ag.add(ag.matmul(cur, ag.transpose_last(hs)), bias), axis=2)
        out = ag.matmul(attention, cur)
        cur = ag.add(out, cur)
    return attention, out, cur


@dataclass
class EncodedConversations:
    """Batched encoder outputs; all fields (B, N, ...) tensors, padded past each count."""

    original: ag.Tensor  # u_j as fed to the memory layer
    contextual: ag.Tensor  # h_j
    attention: ag.Tensor  # (B, N, N), rows sum to 1
    memory_out: ag.Tensor  # o_j of the last hop
    final: ag.Tensor  # u1_j = o_j + u_j


def encode_batch(batch, params, cfg, train=False, rng=None):
    """Full hierarchy over one prepared batch; see the module docstring."""
    rate = cfg.dropout if train else 0.0
    e, index = embed_tokens(batch, params, train=train, rng=rng, dropout_rate=rate)
    rows = ag.dropout(encode_utterances(e, batch.lengths, params, index), rate, rng, train)
    # Recorded before the context GRUs read ``rows``: the backward adds the two GRUs'
    # gradients first and the memory's last, the rounding of an unpadded (B, n, d) input.
    us = pad_rows(rows, batch.utt_counts)
    hs = pad_rows(encode_context(rows, batch.utt_counts, params), batch.utt_counts)
    attention, out, finals = memory_layer(us, hs, hops=cfg.hops, utt_counts=batch.utt_counts)
    return EncodedConversations(
        original=us, contextual=hs, attention=attention, memory_out=out, final=finals
    )
