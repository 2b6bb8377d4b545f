"""Helpers shared by several test files."""

from collections import Counter

import numpy as np

from dialact import autograd as ag
from dialact.corpus import ABSENT, PAD, PAD_ID, UNK, TranscriptError, Vocab
from dialact.encoder import CHAR_WIDTHS, GRU_GATES, char_cnn


def init_gru(registry, prefix, input_dim, hidden_dim, rng, scale=0.08):
    """A GRU's ``{prefix}.w_*``/``u_*`` weights, uniform(+-scale), and zero ``b_*`` biases."""
    for gate in GRU_GATES:
        registry.add(f"{prefix}.w_{gate}", rng.uniform(-scale, scale, (input_dim, hidden_dim)))
        registry.add(f"{prefix}.u_{gate}", rng.uniform(-scale, scale, (hidden_dim, hidden_dim)))
        registry.add(f"{prefix}.b_{gate}", np.zeros(hidden_dim))


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


class RegistryOptimizer:
    """Adagrad sums and EMA shadows held beside a registry, updated as the registry once held them.

    The reference for ``train.adagrad_step`` and ``train.ema_update``, which
    take the state as dicts: the sums start at zero and the shadows as
    copies of the initial weights.
    """

    def __init__(self, registry):
        self.registry = registry
        self.sq_accum = {name: np.zeros_like(t.data) for name, t in registry.params.items()}
        self.ema = {name: t.data.copy() for name, t in registry.params.items()}

    def adagrad_step(self, lr):
        for name in self.registry.names():
            tensor = self.registry.params[name]
            g = tensor.grad
            if g is None:
                continue
            acc = self.sq_accum[name]
            acc += g * g
            denom = np.sqrt(np.maximum(acc, 1e-12))
            tensor.data = tensor.data - lr * g / denom

    def ema_update(self, decay):
        for name in self.registry.names():
            self.ema[name] = decay * self.ema[name] + (1.0 - decay) * self.registry.params[name].data


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

    Each width gathers every window's character rows into an (N, L_out,
    k*C) array, convolves it with one stacked matmul and keeps each
    filter's argmax window, ties to the first, among the windows that
    start at most max(len, widest filter) - k in (len: the row's non-PAD
    ids). The backward sends each pooled gradient to its argmax window only.
    """
    table = params["emb.char"]
    banks = [(k, params[f"cnn.w{k}"], params[f"cnn.b{k}"]) for k in CHAR_WIDTHS]
    n, length = char_ids.shape
    dim = table.shape[1]
    own_width = np.maximum((char_ids != PAD_ID).sum(axis=1), max(CHAR_WIDTHS))
    pooled, saved = [], []
    for width, weight, bias in banks:
        ids = np.lib.stride_tricks.sliding_window_view(char_ids, width, axis=1)
        col = table.data[ids].reshape(n, length - width + 1, width * dim)
        conv = col @ weight.data + bias.data
        valid = np.arange(length - width + 1) <= (own_width - width)[:, None]  # (N, L_out)
        conv = np.where(valid[:, :, None], conv, -np.inf)
        arg = conv.argmax(axis=1)
        pooled.append(np.take_along_axis(conv, arg[:, None, :], axis=1)[:, 0, :])
        saved.append((ids, col, arg))

    def bwd(g):
        lo = 0
        for (width, weight, bias), (ids, col, arg) in zip(banks, saved):
            filters = weight.shape[1]
            g_k = g[:, lo : lo + filters]
            lo += filters
            if bias.requires_grad:
                bias.accumulate_grad(g_k.sum(axis=0))
            d_conv = np.zeros((n * col.shape[1], filters))
            d_conv[np.arange(n)[:, None] * col.shape[1] + arg, np.arange(filters)] = g_k
            if weight.requires_grad:
                weight.accumulate_grad(col.reshape(-1, width * dim).T @ d_conv)
            if table.requires_grad:
                d_windows = (d_conv @ weight.data.T).reshape(-1, dim)
                table.accumulate_grad(ag.scatter_add(ids.reshape(-1), d_windows, table.shape[0]))

    inputs = (table, *(p for _, weight, bias in banks for p in (weight, bias)))
    return ag.record("char_cnn", inputs, np.concatenate(pooled, axis=1), bwd)


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
