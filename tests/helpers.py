"""Helpers shared by several test files."""

from collections import Counter

import numpy as np

from dialact import autograd as ag
from dialact.corpus import ABSENT, PAD, PAD_ID, UNK, TranscriptError, Vocab
from dialact.encoder import CHAR_WIDTHS, char_cnn, split_filter_counts


def leaves(arrays):
    """Parameter tensors, as a model holds them: name -> ``Tensor`` requiring a gradient, one per array."""
    return {name: ag.Tensor(value, requires_grad=True) for name, value in arrays.items()}


def init_gru(params, name, input_dim, hidden_dim, rng, scale=0.08):
    """Adds a BiGRU's ``{name}.w`` (2, E, 3H) and ``{name}.u`` (2, H, 3H), uniform(+-scale), and zero ``{name}.b``."""
    params.update(leaves({
        f"{name}.w": rng.uniform(-scale, scale, (2, input_dim, 3 * hidden_dim)),
        f"{name}.u": rng.uniform(-scale, scale, (2, hidden_dim, 3 * hidden_dim)),
        f"{name}.b": np.zeros((2, 3 * hidden_dim)),
    }))


def sigmoid(x):
    """Logistic sigmoid as a tape op; the reference for the fused GRU gates."""
    x = ag._as_tensor(x)
    # Stable piecewise form; avoids exp overflow for large |x|.
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * out_data * (1.0 - out_data))

    return ag.record("sigmoid", (x,), out_data, bwd)


def sub(a, b):
    """a - b as a tape op; the reference GRU's 1 - z."""
    a, b = ag._as_tensor(a), ag._as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(ag._unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(ag._unbroadcast(-g, b.shape))

    return ag.record("sub", (a, b), a.data - b.data, bwd)


def pick(x, indices):
    """out[...] = x[..., indices[...]] as a tape op; the reference char CNN's max over time."""
    idx = np.asarray(indices)
    out_data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            # one target per position along the picked axis, so no collisions
            np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
            x.accumulate_grad(gx)

    return ag.record("pick", (x,), out_data, bwd)


def retained_backward(tape, loss):
    """The reverse sweep that frees nothing: every record and intermediate ``.grad`` stays.

    The reference for ``Tape.backward``, which frees each record once its
    backward has run.
    """
    loss.accumulate_grad(np.ones_like(loss.data))
    for rec in reversed(tape.records):
        g = rec.output.grad
        if g is not None:
            rec.backward_fn(g)


class ReferenceOptimizer:
    """Adagrad sums and EMA shadows as an object's own state, beside a name -> parameter dict.

    The reference for ``train.adagrad_step`` and ``train.ema_update``, which
    take the state as dicts: the sums start at zero and the shadows as
    copies of the initial weights.
    """

    def __init__(self, params):
        self.params = params
        self.sq_accum = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.ema = {name: t.data.copy() for name, t in params.items()}

    def adagrad_step(self, lr):
        for name, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            acc = self.sq_accum[name]
            acc += g * g
            denom = np.sqrt(np.maximum(acc, 1e-12))
            tensor.data = tensor.data - lr * g / denom

    def ema_update(self, decay):
        for name, tensor in self.params.items():
            self.ema[name] = decay * self.ema[name] + (1.0 - decay) * tensor.data


def per_token_vocab(conversations, min_count=1):
    """``build_vocab`` by one Counter update per token; the reference for ``corpus.build_vocab``."""
    if not conversations:
        raise TranscriptError("cannot build a vocabulary from an empty corpus")
    words, chars, pos, ner, acts = Counter(), Counter(), Counter(), Counter(), Counter()
    for conv in conversations:
        for utt in conv.utterances:
            if utt.act is not None:
                acts[utt.act] += 1
            for tok in utt.tokens:
                words[tok.surface] += 1
                chars.update(tok.surface)
                if tok.pos is not None:
                    pos[tok.pos] += 1
                if tok.ner is not None:
                    ner[tok.ner] += 1
    if not acts:
        raise TranscriptError("corpus has no labeled utterance; cannot index acts")

    def ranked(counter):
        return [sym for sym, _ in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))]

    def table(counter, reserved, threshold=1):
        index = {sym: i for i, sym in enumerate(reserved)}
        for sym in ranked(counter):
            if counter[sym] >= threshold and sym not in index:
                index[sym] = len(index)
        return index

    return Vocab(
        word_index=table(words, (PAD, UNK), threshold=min_count),
        char_index=table(chars, (PAD, UNK)),
        pos_index=table(pos, (PAD, UNK, ABSENT)),
        ner_index=table(ner, (PAD, UNK, ABSENT)),
        act_index={sym: i for i, sym in enumerate(ranked(acts))},
    )


def im2col_char_cnn(char_ids, params):
    """The char CNN by im2col, as one tape record; the reference for ``encoder.char_cnn``.

    Each width slices its filter bank (k*C, F_k) out of the tap matrix
    ``cnn.w``, row j*C + c holding tap j's weight of character column c,
    gathers every window's character rows into an (N, L_out, k*C) array,
    convolves it with one stacked matmul and keeps each filter's argmax
    window, ties to the first, among the windows that start at most
    max(len, widest filter) - k in (len: the row's non-PAD ids). The
    backward sends each pooled gradient to its argmax window only.
    """
    table, taps, bias = params["emb.char"], params["cnn.w"], params["cnn.b"]
    n, length = char_ids.shape
    dim = table.shape[1]
    own_width = np.maximum((char_ids != PAD_ID).sum(axis=1), max(CHAR_WIDTHS))
    pooled, saved, start, lo = [], [], 0, 0
    for width, filters in zip(CHAR_WIDTHS, split_filter_counts(bias.shape[0])):
        cols, outs = slice(start, start + width * filters), slice(lo, lo + filters)
        start, lo = cols.stop, outs.stop
        weight = taps.data[:, cols].reshape(dim, width, filters).transpose(1, 0, 2).reshape(width * dim, filters)
        ids = np.lib.stride_tricks.sliding_window_view(char_ids, width, axis=1)
        col = table.data[ids].reshape(n, length - width + 1, width * dim)
        conv = col @ weight + bias.data[outs]
        valid = np.arange(length - width + 1) <= (own_width - width)[:, None]  # (N, L_out)
        conv = np.where(valid[:, :, None], conv, -np.inf)
        arg = conv.argmax(axis=1)
        pooled.append(np.take_along_axis(conv, arg[:, None, :], axis=1)[:, 0, :])
        saved.append((width, filters, cols, outs, weight, ids, col, arg))

    def bwd(g):
        d_taps, d_bias = np.zeros_like(taps.data), np.zeros_like(bias.data)
        for width, filters, cols, outs, weight, ids, col, arg in saved:
            g_k = g[:, outs]
            d_bias[outs] = g_k.sum(axis=0)
            d_conv = np.zeros((n * col.shape[1], filters))
            d_conv[np.arange(n)[:, None] * col.shape[1] + arg, np.arange(filters)] = g_k
            d_weight = col.reshape(-1, width * dim).T @ d_conv
            d_taps[:, cols] = d_weight.reshape(width, dim, filters).transpose(1, 0, 2).reshape(dim, -1)
            if table.requires_grad:
                d_windows = (d_conv @ weight.T).reshape(-1, dim)
                table.accumulate_grad(ag.scatter_add(ids.reshape(-1), d_windows, table.shape[0]))
        if taps.requires_grad:
            taps.accumulate_grad(d_taps)
        if bias.requires_grad:
            bias.accumulate_grad(d_bias)

    return ag.record("char_cnn", (table, taps, bias), np.concatenate(pooled, axis=1), bwd)


def float_mask_dropout(x, rate, rng, train):
    """Inverted dropout through a float mask, keep / (1 - rate); the reference for ``ag.dropout``."""
    x = ag._as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return ag.record("dropout", (x,), x.data * mask, bwd)


def chained_embed_tokens(batch, params, train=False, rng=None, dropout_rate=0.0):
    """Token features by three gathers, a concat and ``float_mask_dropout``; the reference for ``embed_tokens``.

    Same rows, ``index`` and draws as ``encoder.embed_tokens``, one tape
    record per step, with a float (M, E) mask and every intermediate kept.
    """
    types, pos, ner, index = batch.types, batch.pos, batch.ner, None
    if not train or dropout_rate == 0.0:  # no mask is drawn
        key = (types * params["emb.pos"].shape[0] + pos) * params["emb.ner"].shape[0] + ner
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        types, pos, ner = types[first], pos[first], ner[first]
    per_type = ag.concat([ag.gather(params["emb.word"], batch.word), char_cnn(batch.char, params)], axis=1)
    e = ag.concat(
        [ag.gather(per_type, types), ag.gather(params["emb.pos"], pos), ag.gather(params["emb.ner"], ner)],
        axis=1,
    )
    return float_mask_dropout(e, dropout_rate, rng, train), index


def log_space_alpha_beta(unary, transition, lengths):
    """Log forward/backward tables (B, N, Y) and logZ (B,) by a per-step (B, Y, Y) logsumexp.

    The reference for the chain engine at any tag-set size: alpha is
    carried and beta is 0 past each chain's length, and padded unaries are
    never read.
    """
    live = np.arange(unary.shape[1]) < np.asarray(lengths)[:, None]
    unary = np.where(live[..., None], unary, 0.0)

    def logsumexp(a, axis):
        m = a.max(axis=axis, keepdims=True)
        return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))

    alpha, beta = np.empty_like(unary), np.zeros_like(unary)
    alpha[:, 0] = unary[:, 0]
    for t in range(1, unary.shape[1]):
        step = logsumexp(alpha[:, t - 1, :, None] + transition, axis=1) + unary[:, t]
        alpha[:, t] = np.where(live[:, t, None], step, alpha[:, t - 1])
    for t in range(unary.shape[1] - 2, -1, -1):
        step = logsumexp(transition + (unary[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(live[:, t + 1, None], step, 0.0)
    return alpha, beta, logsumexp(alpha[:, -1], axis=1)
