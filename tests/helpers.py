"""Helpers shared by several test files."""

import numpy as np

from dialact import autograd as ag
from dialact.corpus import Conversation, Token, Utterance
from dialact.encoder import GRU_GATES


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


def same_char_width(conversations):
    """Copies whose token surfaces are padded with "_" to one width.

    The char CNN pools over every column of a batch's character array, PAD
    columns included, so a token's features depend on the longest surface
    in its batch. With one width, every batch has the same columns.
    """
    width = max(len(t.surface) for c in conversations for u in c.utterances for t in u.tokens)
    return [
        Conversation(
            id=c.id,
            utterances=tuple(
                Utterance(
                    tokens=tuple(Token(t.surface.ljust(width, "_"), t.pos, t.ner) for t in u.tokens),
                    speaker=u.speaker,
                    act=u.act,
                )
                for u in c.utterances
            ),
        )
        for c in conversations
    ]
