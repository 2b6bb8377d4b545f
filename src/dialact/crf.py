"""Linear-chain inference and the latent-selection layer.

One engine does all chain inference. ``forward_backward`` (logZ, node and
edge marginals) and ``viterbi_decode`` (argmax paths) run on a batch of
chains: unary scores (B, N, Y) as numpy arrays, one shared (Y, Y)
transition table and optional ``lengths`` (B,), N by default. Scores past
a chain's length are padding and never read: at step t a ``live =
t < lengths`` mask carries alpha and the Viterbi score forward, keeps beta
0 and makes backpointers the identity, and marginals there are 0.
Decoding, the attention export, the oracle suites and the synthetic
reference decoder call the engine directly. Training reaches it through
two tape ops, one record each:

* ``chain_nll``: logZ minus the gold path's score per chain, the label
  chain's loss. Its backward is expected minus observed counts: the node
  and edge marginals minus the gold path's indicators (Lafferty et al.
  2001).
* ``chain_marginals``: node marginals, for the selection layer. Its
  backward is the exact Hessian-vector product of logZ, one forward-mode
  pass over the same alpha/beta tables in O(n Y^2).

The engine is checked against brute-force enumeration (``oracles``) and
both ops against finite differences. All recursions run in log space, so
overflow is impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))


def _checked(unary, transition, ndim):
    """float64 views of chain scores after shape and finiteness checks."""
    unary, transition = np.asarray(unary, dtype=np.float64), np.asarray(transition, dtype=np.float64)
    if unary.ndim != ndim or unary.shape[-2] < 1:
        layout = "(n, Y)" if ndim == 2 else "(B, n, Y)"
        raise ValueError(f"unary must be {layout} with n >= 1, got {unary.shape}")
    n_labels = unary.shape[-1]
    if transition.shape != (n_labels, n_labels):
        raise ValueError(f"transition shape {transition.shape} does not match {n_labels} labels")
    if not (np.isfinite(unary).all() and np.isfinite(transition).all()):
        raise ValueError("potentials must be finite")
    return unary, transition


@dataclass(frozen=True)
class PotentialTable:
    """Chain scores of one conversation: unary (n x Y), transition (Y x Y), all finite."""

    unary: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        unary, transition = _checked(self.unary, self.transition, ndim=2)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "transition", transition)


@dataclass(frozen=True)
class MarginalSet:
    """Exact marginals of a chain batch: node (B, N, Y), edge (B, N-1, Y, Y), logZ (B,)."""

    node: np.ndarray
    edge: np.ndarray
    logZ: np.ndarray


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _live(lengths, b, n):
    """Checked int lengths (B,), n by default, and the (B, n) mask t < lengths."""
    lengths = np.full(b, n) if lengths is None else np.asarray(lengths)
    if lengths.shape != (b,) or lengths.dtype.kind not in "iu" or not ((lengths >= 1) & (lengths <= n)).all():
        raise ValueError(f"lengths must be {b} ints in [1, {n}], got {lengths}")
    return lengths, np.arange(n) < lengths[:, None]


def _chain(unary, transition, lengths):
    """Checked (B, N, Y) unaries (padding zeroed), transition and live mask."""
    unary, transition = _checked(unary, transition, ndim=3)
    _, live = _live(lengths, *unary.shape[:2])
    if not live.all():
        unary = np.where(live[..., None], unary, 0.0)
    return unary, transition, live


def _masked_exp(log_values, mask):
    """exp of ``log_values`` where ``mask`` holds, exactly 0 elsewhere."""
    return np.exp(np.where(mask, log_values, -np.inf))


def _alpha_beta(unary, transition, live):
    """Log forward/backward tables (B, N, Y), carried and 0 past each chain's end, and logZ (B,)."""
    n = unary.shape[1]
    alpha = np.empty_like(unary)
    beta = np.zeros_like(unary)
    alpha[:, 0] = unary[:, 0]
    for t in range(1, n):
        step = _logsumexp(alpha[:, t - 1, :, None] + transition, axis=1) + unary[:, t]
        alpha[:, t] = np.where(live[:, t, None], step, alpha[:, t - 1])
    for t in range(n - 2, -1, -1):
        step = _logsumexp(transition + (unary[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(live[:, t + 1, None], step, 0.0)
    return alpha, beta, _logsumexp(alpha[:, -1], axis=1)


def _marginals(unary, transition, live, alpha, beta, logz):
    node = _masked_exp(alpha + beta - logz[:, None, None], live[..., None])
    pair = alpha[:, :-1, :, None] + transition + (unary[:, 1:] + beta[:, 1:])[:, :, None, :]
    edge = _masked_exp(pair - logz[:, None, None, None], live[:, 1:, None, None])
    return MarginalSet(node=node, edge=edge, logZ=logz)


def forward_backward(unary, transition, lengths=None):
    """Node and edge marginals plus logZ of each chain in a batch.

    unary (B, N, Y) and transition (Y, Y), finite numpy arrays; lengths
    (B,) in [1, N]. Returns a :class:`MarginalSet`.
    """
    unary, transition, live = _chain(unary, transition, lengths)
    return _marginals(unary, transition, live, *_alpha_beta(unary, transition, live))


def viterbi_decode(unary, transition, lengths=None):
    """Exact argmax paths (B, N) int64 and their scores (B,) for a chain batch.

    Arguments as for :func:`forward_backward`; a path repeats its last
    label past its length. Ties break toward the lowest label id (argmax
    takes the first maximum), keeping decodes deterministic across
    platforms.
    """
    unary, transition, live = _chain(unary, transition, lengths)
    b, n, k = unary.shape
    back = np.zeros(unary.shape, dtype=np.int64)
    score = unary[:, 0]
    into, labels = np.ascontiguousarray(transition.T), np.arange(k)  # into[to]: the scores into label to
    for t in range(1, n):
        cand = score[:, None, :] + into  # (B, to, from)
        best = cand.argmax(axis=2)
        step = cand.max(axis=2) + unary[:, t]
        back[:, t] = np.where(live[:, t, None], best, labels)
        score = np.where(live[:, t, None], step, score)
    rows = np.arange(b)
    paths = np.empty((b, n), dtype=np.int64)
    paths[:, -1] = np.argmax(score, axis=1)
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = back[rows, t, paths[:, t]]
    return paths, score[rows, paths[:, -1]]


# ---------------------------------------------------------------------------
# tape ops over the engine (training route)
# ---------------------------------------------------------------------------


def chain_nll(unary, transition, gold, lengths=None):
    """Differentiable negative log-likelihood logZ - score(gold) (B,) of a chain batch, one tape record.

    unary: tensor (B, N, Y); transition: tensor (Y, Y); gold: (B, N) ints,
    ignored past each length; lengths as for :func:`forward_backward`. The
    backward is expected minus observed counts: node and summed edge
    marginals minus the gold path's indicators.
    """
    marg = forward_backward(unary.data, transition.data, lengths)
    b, n, k = unary.shape
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (b, n):
        raise ValueError(f"gold shape {gold.shape} does not match unary {unary.shape}")
    _, live = _live(lengths, b, n)
    if gold[live].min() < 0 or gold[live].max() >= k:
        raise IndexError(f"gold label out of range [0, {k})")
    gold = np.where(live, gold, 0)
    score = (np.take_along_axis(unary.data, gold[..., None], axis=2)[..., 0] * live).sum(axis=1)
    score = score + (transition.data[gold[:, :-1], gold[:, 1:]] * live[:, 1:]).sum(axis=1)

    def bwd(g):
        if unary.requires_grad:
            grad = g[:, None, None] * marg.node
            at, t = np.nonzero(live)
            grad[at, t, gold[at, t]] -= g[at]
            unary.accumulate_grad(grad)
        if transition.requires_grad:
            pairs = gold[:, :-1] * k + gold[:, 1:]
            transition.accumulate_grad(ag.scatter_add(pairs, -g[:, None] * live[:, 1:], k * k).reshape(k, k))
            transition.accumulate_grad(np.tensordot(g, marg.edge.sum(axis=1), axes=1))

    return ag.record("chain_nll", (unary, transition), marg.logZ - score, bwd)


def chain_marginals(unary, transition, lengths=None):
    """Differentiable node marginals (B, N, Y) of a chain batch, one tape record.

    The node marginals are the gradient of logZ, so their backward is the
    Hessian-vector product of logZ with the output gradient g: du[t, y] =
    Cov(1[y_t = y], G) with G = sum_t g[t, y_t]. One forward-mode pass over
    the alpha/beta tables gives the conditional expectations of G's left
    part (da) and right part (db) given y_t; see Kim et al. 2017,
    "Structured Attention Networks". Conditionals across a chain's end are 0.
    """
    u, trans, live = _chain(unary.data, transition.data, lengths)
    alpha, beta, logz = _alpha_beta(u, trans, live)
    marg = _marginals(u, trans, live, alpha, beta, logz)

    def bwd(g):
        n = g.shape[1]
        edge_live = live[:, 1:, None, None]
        # left[b, t-1, a, c] = p(y_{t-1} = a | y_t = c); right[b, t, c, d] = p(y_{t+1} = d | y_t = c)
        left = _masked_exp(alpha[:, :-1, :, None] + trans + (u[:, 1:] - alpha[:, 1:])[:, :, None, :], edge_live)
        right = _masked_exp(trans + (u[:, 1:] + beta[:, 1:])[:, :, None, :] - beta[:, :-1, :, None], edge_live)
        da = g.copy()
        for t in range(1, n):
            da[:, t] += np.einsum("bac,ba->bc", left[:, t - 1], da[:, t - 1])
        ahead = g.copy()  # g[t] + db[t]
        for t in range(n - 2, -1, -1):
            ahead[:, t] += np.einsum("bcd,bd->bc", right[:, t], ahead[:, t + 1])
        mean = np.einsum("bty,bty->b", marg.node, g)[:, None, None]
        if unary.requires_grad:
            unary.accumulate_grad(marg.node * (da + ahead - g - mean))
        if transition.requires_grad:
            pair = da[:, :-1, :, None] + ahead[:, 1:, None, :] - mean[..., None]
            transition.accumulate_grad((marg.edge * pair).sum(axis=(0, 1)))

    return ag.record("chain_marginals", (unary, transition), marg.node, bwd)


# ---------------------------------------------------------------------------
# latent-selection attention
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionAttention:
    """Binary-chain selection over positions and its expectation context.

    ``gamma[b, i]`` is the marginal probability that position i is
    selected; ``context[b] = sum_i gamma[b, i] * finals[b, i]``. Fields are
    tensors; ``.data`` gives the numpy view.
    """

    gamma: ag.Tensor
    context: ag.Tensor


def selection_attention(finals, params, lengths=None):
    """Soft selection over utterance positions via a 2-state chain.

    finals: tensor (B, N, d). params: name -> tensor mapping holding
    ``sel.w`` (d, a), ``sel.b`` (a,), ``sel.v`` (a, 1) and ``sel.trans``
    (2, 2). The not-selected state scores 0 at every position, and gamma
    is 0 past each of the optional ``lengths`` (B,).
    """
    b, n, d = finals.shape
    hidden = ag.tanh(ag.add(ag.matmul(finals, params["sel.w"]), params["sel.b"]))
    score_sel = ag.matmul(hidden, params["sel.v"])  # (B, n, 1)
    unary = ag.concat([ag.Tensor(np.zeros((b, n, 1))), score_sel], axis=2)
    gamma = ag.select(chain_marginals(unary, params["sel.trans"], lengths), 1, axis=2)  # (B, n)
    context = ag.reduce_sum(ag.mul(ag.reshape(gamma, (b, n, 1)), finals), axis=1)
    return SelectionAttention(gamma=gamma, context=context)


# ---------------------------------------------------------------------------
# label-chain potentials
# ---------------------------------------------------------------------------


def compute_potentials(finals, context, params):
    """Unary and transition scores for the label chain, on the tape.

    unary[b, i, y] combines an act-embedding dot product with a one-hidden-
    layer emission over the utterance vector and the selection context:

        finals[b,i] . act_emb[y]
        + emit_wout[:, y] . tanh(finals[b,i] @ emit_wu + context[b] @ emit_wc + emit_b)

    params: name -> tensor mapping holding ``crf.act_emb`` (Y, d),
    ``crf.emit_wu`` (d, h), ``crf.emit_wc`` (d, h), ``crf.emit_b`` (h,),
    ``crf.emit_wout`` (h, Y) and ``crf.trans`` (Y, Y). Returns (unary
    (B, n, Y), transition).
    """
    b = finals.shape[0]
    act_dot = ag.matmul(finals, ag.transpose_last(params["crf.act_emb"]))
    ctx_part = ag.reshape(ag.matmul(context, params["crf.emit_wc"]), (b, 1, -1))
    hidden = ag.tanh(
        ag.add(ag.add(ag.matmul(finals, params["crf.emit_wu"]), ctx_part), params["crf.emit_b"])
    )
    unary = ag.add(act_dot, ag.matmul(hidden, params["crf.emit_wout"]))
    return unary, params["crf.trans"]
