"""Hierarchical utterance encoding with memory attention.

Pipeline per conversation batch (any utterance counts):

1. token features: word row + char-CNN over characters + POS/NER rows,
   concatenated;
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
op, over the type rows, expands them to feature rows with one gather and
adds the POS/NER rows; table gradients are summed by ``ag.scatter_add``.
In training, dropout masks every token's row separately, so there is one
feature row per token. Where no mask is drawn (inference, or a dropout
of 0), a token's features depend only on its (type, POS, NER) triple, so
there is one row per distinct triple and an ``index`` from tokens to
rows: the word BiGRU projects each distinct row once and reads the
projections by that index.

Both BiGRUs run through ``gru_sequence``, one tape record per direction
with a hand-written backward through time. It projects every input row
for all three gates with one GEMM, sorts the sequences by length, longest
first, and at step t updates only the prefix of sequences still running;
the reverse direction reads each sequence from its last row. Padding
rows of the embedding tables stay identically zero: they are initialized
to zero and their gradients are masked by the registry.

Every layer takes ``params``, one flat mapping from checkpoint name to
tensor, and reads its own entries: ``emb.*`` and ``cnn.w{k}``/``cnn.b{k}``
for the token features, ``{prefix}.w_r`` ... ``{prefix}.b_h`` for a GRU
(``utt_fwd``, ``utt_bwd``, ``ctx_fwd``, ``ctx_bwd``), and ``ctx.w_fwd``,
``ctx.w_bwd``, ``ctx.b`` for the context combination. Training passes the
registry's tensors; inference passes grad-free tensors over the same
arrays, so it records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .corpus import PAD_ID

GRU_GATES = ("r", "z", "h")
CHAR_WIDTHS = (2, 3, 4)


def split_filter_counts(total, widths=CHAR_WIDTHS):
    """Distribute filter outputs across widths, earlier widths get remainders."""
    base, rem = divmod(total, len(widths))
    return tuple(base + (1 if i < rem else 0) for i in range(len(widths)))


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


def prepare_batch(conversations, vocab, min_char_len=4):
    """Map conversations onto packed id arrays.

    L, the width of ``char``, is the longest surface in the batch but at
    least ``min_char_len``.
    """
    utterances = [u for c in conversations for u in c.utterances]
    tokens = [tok for u in utterances for tok in u.tokens]
    type_rows = {}
    types = [type_rows.setdefault(tok.surface, len(type_rows)) for tok in tokens]
    l_max = max(min_char_len, max(map(len, type_rows)))
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


def gru_step(params, x, h):
    """One gated update of the k running sequences, on plain arrays.

    ``x`` (k, 3H) holds the projected inputs [x w_r + b_r | x w_z + b_z |
    x w_h + b_h]; ``params`` holds ``u_rz`` = [u_r | u_z] and ``u_h``.
    Returns (h', [r | z], candidate) with h' = z * h + (1 - z) * candidate.
    """
    hid = h.shape[1]
    rz = 0.5 * np.tanh(0.5 * (x[:, : 2 * hid] + h @ params["u_rz"])) + 0.5  # sigmoid
    cand = np.tanh(x[:, 2 * hid :] + (rz[:, :hid] * h) @ params["u_h"])
    return cand + rz[:, hid:] * (h - cand), rz, cand


@dataclass
class PackedSchedule:
    """Time-major order of packed rows: step t runs the first k_t sequences.

    Sequences are sorted by length, longest first, so the sequences still
    running at step t are a prefix of that order. ``perm[i]`` is the packed
    row read at time-major position i; ``offsets[t]`` is where step t
    starts; ``last[s]`` is the time-major position of sequence s's final
    state.
    """

    running: list  # k_t per step
    offsets: list
    perm: np.ndarray
    last: np.ndarray

    @classmethod
    def build(cls, lengths, reverse):
        """Schedule for an int64 array of sequence lengths."""
        if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
            raise ValueError(f"sequence lengths must be a non-empty list of ints >= 1, got {lengths}")
        order = np.argsort(-lengths, kind="stable")
        t_len = int(lengths[order[0]])
        running = lengths.size - np.cumsum(np.bincount(lengths, minlength=t_len + 1))[:t_len]
        offsets = np.concatenate([[0], np.cumsum(running)])
        step = np.repeat(np.arange(t_len), running)
        seq = order[np.arange(offsets[-1]) - offsets[step]]
        pos = lengths[seq] - 1 - step if reverse else step
        starts = np.cumsum(lengths) - lengths
        last = np.empty_like(order)
        last[order] = offsets[lengths[order] - 1] + np.arange(lengths.size)
        return cls(
            running=running.tolist(), offsets=offsets.tolist(), perm=starts[seq] + pos, last=last
        )


def gru_sequence(params, prefix, xs, lengths, reverse=False, collect=False, index=None):
    """GRU over packed rows, recorded as one tape op.

    ``xs`` (M, E) is a tensor holding the sequences end to end, in order, with
    ``lengths`` (S,) rows each (all >= 1, summing to M); the GRU's weights
    are ``params[f"{prefix}.w_r"]`` and so on. The state starts at zero, runs over each
    sequence (from its last row when ``reverse``) and never sees another
    sequence's rows. Returns the final states (S, H), or with ``collect``
    the state after every row, (M, H) in packed order.

    With ``index`` (M,), packed row m is ``xs[index[m]]``: ``xs`` holds
    distinct rows only, each projected once, and the backward sums the
    gradients of the packed rows that share one.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if xs.ndim != 2 or (index is None and xs.shape[0] != lengths.sum()):
        raise ag.ShapeError(f"gru_sequence needs (sum(lengths), E) rows, got {xs.shape} for {lengths}")
    if index is not None:
        if index.shape != (lengths.sum(),):
            raise ag.ShapeError(f"gru_sequence index needs sum(lengths) rows, got {index.shape} for {lengths}")
        if index.size and (index.min() < 0 or index.max() >= xs.shape[0]):
            raise ag.ShapeError(f"gru_sequence index must lie in [0, {xs.shape[0]}), the rows of xs")
    sched = PackedSchedule.build(lengths, reverse)
    rows = sched.perm if index is None else index[sched.perm]
    own = {f"{kind}_{g}": params[f"{prefix}.{kind}_{g}"] for g in GRU_GATES for kind in "wub"}
    w = np.concatenate([own[f"w_{g}"].data for g in GRU_GATES], axis=1)
    step_params = {
        "u_rz": np.concatenate([own["u_r"].data, own["u_z"].data], axis=1),
        "u_h": own["u_h"].data,
    }
    bias = np.concatenate([own[f"b_{g}"].data for g in GRU_GATES])
    hid = step_params["u_h"].shape[0]
    a = (xs.data @ w + bias)[rows]
    steps = a.shape[0]
    h_prev, states, cand = np.empty((steps, hid)), np.empty((steps, hid)), np.empty((steps, hid))
    rz = np.empty((steps, 2 * hid))
    h = np.zeros((sched.running[0], hid))
    for lo, k in zip(sched.offsets, sched.running):
        hi = lo + k
        h = h[:k]
        h_prev[lo:hi] = h
        h, rz[lo:hi], cand[lo:hi] = gru_step(step_params, a[lo:hi], h)
        states[lo:hi] = h
    if collect:
        out_data = np.empty_like(states)
        out_data[sched.perm] = states
    else:
        out_data = states[sched.last]

    def bwd(g):
        if collect:
            d_states = g[sched.perm]
        else:
            d_states = np.zeros_like(states)
            d_states[sched.last] = g
        u_rz_t, u_h_t = step_params["u_rz"].T, step_params["u_h"].T
        da = np.empty_like(a)
        carry = np.zeros((sched.running[0], hid))  # dL/dh from the step after
        for lo, k in zip(reversed(sched.offsets[:-1]), reversed(sched.running)):
            hi = lo + k
            dh = d_states[lo:hi]
            dh += carry[:k]
            hp, c, gates = h_prev[lo:hi], cand[lo:hi], rz[lo:hi]
            z = gates[:, hid:]
            da_h = da[lo:hi, 2 * hid :]
            np.multiply(dh * (1.0 - z), 1.0 - c * c, out=da_h)
            drh = da_h @ u_h_t
            da_rz = da[lo:hi, : 2 * hid]
            np.multiply(drh, hp, out=da_rz[:, :hid])
            np.multiply(dh, hp - c, out=da_rz[:, hid:])
            da_rz *= gates * (1.0 - gates)
            carry[:k] = dh * z + drh * gates[:, :hid] + da_rz @ u_rz_t
        d_rz = h_prev.T @ da[:, : 2 * hid]
        if index is None:
            da_rows = np.empty_like(da)
            da_rows[rows] = da
        else:
            da_rows = ag.scatter_add(rows, da, xs.shape[0])
        d_w = xs.data.T @ da_rows
        d_b = da_rows.sum(axis=0)
        grads = {"u_r": d_rz[:, :hid], "u_z": d_rz[:, hid:]}
        grads["u_h"] = (rz[:, :hid] * h_prev).T @ da[:, 2 * hid :]
        for i, gate in enumerate(GRU_GATES):
            grads[f"w_{gate}"] = d_w[:, i * hid : (i + 1) * hid]
            grads[f"b_{gate}"] = d_b[i * hid : (i + 1) * hid]
        for name, grad in grads.items():
            if own[name].requires_grad:
                own[name].accumulate_grad(grad)
        if xs.requires_grad:
            xs.accumulate_grad(da_rows @ w.T)

    return ag.record("gru", (xs, *own.values()), out_data, bwd)


# ---------------------------------------------------------------------------
# token embedding
# ---------------------------------------------------------------------------


def char_cnn(char_ids, params):
    """Character convolutions with max-over-time pooling, as one tape record.

    char_ids: (N, L) ids into ``emb.char`` (C columns), L at least the
    widest filter. Width k has the filter bank ``cnn.w{k}`` (k*C, F_k),
    laid out position-major, and ``cnn.b{k}`` (F_k,). Output (N, sum F_k),
    widths concatenated in ascending order.

    Each width reads its windows' character rows straight from the id
    array (im2col by indexing), convolves all N rows with one stacked
    matmul and keeps each filter's argmax window; ties go to the first
    window. The backward routes each pooled gradient to its argmax window
    only and adds every width's window gradients into ``emb.char`` with one
    ``scatter_add``.
    """
    table = params["emb.char"]
    banks = [(k, params[f"cnn.w{k}"], params[f"cnn.b{k}"]) for k in CHAR_WIDTHS]
    n, length = char_ids.shape
    dim = table.shape[1]
    pooled, saved = [], []
    for width, weight, bias in banks:
        if length < width:
            raise ag.ShapeError(f"char_cnn input length {length} shorter than filter width {width}")
        if weight.shape[0] != width * dim:
            raise ag.ShapeError(f"char_cnn weight rows {weight.shape[0]} != width*C {width * dim}")
        ids = np.lib.stride_tricks.sliding_window_view(char_ids, width, axis=1)
        col = table.data[ids].reshape(n, length - width + 1, width * dim)
        # A stacked (N, L_out, k*C) matmul rounds each row as a per-token
        # product does; one flat 2-D GEMM would not.
        conv = col @ weight.data + bias.data
        arg = conv.argmax(axis=1)
        pooled.append(np.take_along_axis(conv, arg[:, None, :], axis=1)[:, 0, :])
        saved.append((ids, col, arg))
    out_data = np.concatenate(pooled, axis=1)

    def bwd(g):
        lo = 0
        window_ids, window_grads = [], []
        for (width, weight, bias), (ids, col, arg) in zip(banks, saved):
            filters = weight.shape[1]
            g_k = g[:, lo : lo + filters]
            lo += filters
            if bias.requires_grad:
                bias.accumulate_grad(g_k.sum(axis=0))
            argmax_rows = np.arange(n)[:, None] * col.shape[1] + arg
            d_conv = np.zeros((n * col.shape[1], filters))
            d_conv[argmax_rows, np.arange(filters)] = g_k
            if weight.requires_grad:
                weight.accumulate_grad(col.reshape(-1, width * dim).T @ d_conv)
            if table.requires_grad:
                window_ids.append(ids.reshape(-1))
                window_grads.append((d_conv @ weight.data.T).reshape(-1, dim))
        if table.requires_grad:
            table.accumulate_grad(
                ag.scatter_add(np.concatenate(window_ids), np.concatenate(window_grads), table.shape[0])
            )

    inputs = (table, *(p for _, weight, bias in banks for p in (weight, bias)))
    return ag.record("char_cnn", inputs, out_data, bwd)


def embed_tokens(batch, params, train=False, rng=None, dropout_rate=0.0):
    """Token features (R, E) and ``index`` (M,), the row of each token; None when R = M.

    The word row and the char-CNN features are built once per type row and
    copied to the feature rows by one gather; POS/NER rows are added per
    feature row. When dropout draws a mask, every token gets its own row,
    in packed order, and ``index`` is None. Otherwise a row's features depend
    only on its (type, POS, NER) triple, so there is one row per distinct
    triple, in key order, and ``index`` maps each token to it.
    """
    types, pos, ner, index = batch.types, batch.pos, batch.ner, None
    if not train or dropout_rate == 0.0:  # as in ag.dropout: no mask is drawn
        key = (types * params["emb.pos"].shape[0] + pos) * params["emb.ner"].shape[0] + ner
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        types, pos, ner = types[first], pos[first], ner[first]
    per_type = ag.concat([ag.gather(params["emb.word"], batch.word), char_cnn(batch.char, params)], axis=1)
    e = ag.concat(
        [ag.gather(per_type, types), ag.gather(params["emb.pos"], pos), ag.gather(params["emb.ner"], ner)],
        axis=1,
    )
    return ag.dropout(e, dropout_rate, rng, train), index


def encode_utterances(embedded, lengths, params, index=None):
    """Utterance vectors (S, 2*hidden) from the ``utt_fwd``/``utt_bwd`` GRUs' final states.

    ``embedded`` and ``index`` are as ``embed_tokens`` returns them.
    """
    h_fwd = gru_sequence(params, "utt_fwd", embedded, lengths, index=index)
    h_bwd = gru_sequence(params, "utt_bwd", embedded, lengths, reverse=True, index=index)
    return ag.concat([h_fwd, h_bwd], axis=1)


def encode_context(rows, utt_counts, params):
    """Contextual keys h_j = tanh(Wf fwd_j + Wb bwd_j + b) over packed utterance rows.

    ``rows`` (S, d) and the result hold each conversation's ``utt_counts``
    rows end to end. fwd/bwd are the ``ctx_fwd``/``ctx_bwd`` GRU states;
    Wf, Wb and b are ``ctx.w_fwd``, ``ctx.w_bwd`` and ``ctx.b``.
    """
    fwd = ag.matmul(gru_sequence(params, "ctx_fwd", rows, utt_counts, collect=True), params["ctx.w_fwd"])
    bwd = ag.matmul(
        gru_sequence(params, "ctx_bwd", rows, utt_counts, reverse=True, collect=True),
        params["ctx.w_bwd"],
    )
    return ag.tanh(ag.add(ag.add(fwd, bwd), params["ctx.b"]))


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
