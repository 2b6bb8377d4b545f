"""Linear-chain inference and the latent-selection layer.

One engine does all chain inference. ``forward_backward`` (logZ, node and
edge marginals) and ``viterbi_decode`` (argmax paths) run on a batch of
equal-length chains: unary scores (B, n, Y) as numpy arrays, one shared
(Y, Y) transition table, and optional start/stop vectors added at the
first and last positions. Decoding, the attention export, the oracle
suites and the synthetic reference decoder call it directly. Training
reaches it through two tape ops, one record each:

* ``chain_log_partition``: logZ per chain. Its backward is the gradient
  of logZ, i.e. the node, edge and boundary marginals.
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


def _checked(unary, transition, start, stop, ndim):
    """float64 views of chain scores after shape and finiteness checks."""
    unary, transition, start, stop = (
        None if a is None else np.asarray(a, dtype=np.float64)
        for a in (unary, transition, start, stop)
    )
    if unary.ndim != ndim or unary.shape[-2] < 1:
        layout = "(n, Y)" if ndim == 2 else "(B, n, Y)"
        raise ValueError(f"unary must be {layout} with n >= 1, got {unary.shape}")
    n_labels = unary.shape[-1]
    if transition.shape != (n_labels, n_labels):
        raise ValueError(f"transition shape {transition.shape} does not match {n_labels} labels")
    for name, vec in (("start", start), ("stop", stop)):
        if vec is not None and vec.shape != (n_labels,):
            raise ValueError(f"{name} must have shape ({n_labels},), got {vec.shape}")
    for arr in (unary, transition, start, stop):
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError("potentials must be finite")
    return unary, transition, start, stop


@dataclass(frozen=True)
class PotentialTable:
    """Chain scores of one conversation: unary (n x Y), transition (Y x Y).

    Optional start/stop vectors add boundary scores at the first and last
    positions. All entries must be finite.
    """

    unary: np.ndarray
    transition: np.ndarray
    start: np.ndarray | None = None
    stop: np.ndarray | None = None

    def __post_init__(self):
        checked = _checked(self.unary, self.transition, self.start, self.stop, ndim=2)
        for name, value in zip(("unary", "transition", "start", "stop"), checked):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.unary.shape[0]

    @property
    def n_labels(self):
        return self.unary.shape[1]


@dataclass(frozen=True)
class MarginalSet:
    """Exact marginals of a chain batch: node (B, n, Y), edge (B, n-1, Y, Y), logZ (B,)."""

    node: np.ndarray
    edge: np.ndarray
    logZ: np.ndarray


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _chain(unary, transition, start, stop):
    """Checked (B, n, Y) unaries with the boundary scores folded in, and transition."""
    unary, transition, start, stop = _checked(unary, transition, start, stop, ndim=3)
    if start is not None or stop is not None:
        unary = unary.copy()
        if start is not None:
            unary[:, 0] += start
        if stop is not None:
            unary[:, -1] += stop
    return unary, transition


def _alpha_beta(unary, transition):
    """Log forward/backward tables (B, n, Y) and logZ (B,)."""
    n = unary.shape[1]
    alpha = np.empty_like(unary)
    beta = np.zeros_like(unary)
    alpha[:, 0] = unary[:, 0]
    for t in range(1, n):
        alpha[:, t] = _logsumexp(alpha[:, t - 1, :, None] + transition, axis=1) + unary[:, t]
    for t in range(n - 2, -1, -1):
        beta[:, t] = _logsumexp(transition + (unary[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
    return alpha, beta, _logsumexp(alpha[:, -1], axis=1)


def _marginals(unary, transition, alpha, beta, logz):
    node = np.exp(alpha + beta - logz[:, None, None])
    edge = np.exp(
        alpha[:, :-1, :, None]
        + transition
        + (unary[:, 1:] + beta[:, 1:])[:, :, None, :]
        - logz[:, None, None, None]
    )
    return MarginalSet(node=node, edge=edge, logZ=logz)


def forward_backward(unary, transition, start=None, stop=None):
    """Node and edge marginals plus logZ of each chain in a batch.

    unary (B, n, Y), transition (Y, Y), start/stop (Y,) or None; all
    finite numpy arrays. Returns a :class:`MarginalSet`.
    """
    unary, transition = _chain(unary, transition, start, stop)
    return _marginals(unary, transition, *_alpha_beta(unary, transition))


def viterbi_decode(unary, transition, start=None, stop=None):
    """Exact argmax paths (B, n) int64 and their scores (B,) for a chain batch.

    Arguments as for :func:`forward_backward`. Ties break toward the
    lowest label id (argmax takes the first maximum), keeping decodes
    deterministic across platforms.
    """
    unary, transition = _chain(unary, transition, start, stop)
    b, n, _ = unary.shape
    back = np.zeros(unary.shape, dtype=np.int64)
    score = unary[:, 0]
    for t in range(1, n):
        cand = score[:, :, None] + transition  # (B, from, to)
        back[:, t] = np.argmax(cand, axis=1)
        score = np.take_along_axis(cand, back[:, t, None, :], axis=1)[:, 0] + unary[:, t]
    rows = np.arange(b)
    paths = np.empty((b, n), dtype=np.int64)
    paths[:, -1] = np.argmax(score, axis=1)
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = back[rows, t, paths[:, t]]
    return paths, score[rows, paths[:, -1]]


# ---------------------------------------------------------------------------
# tape ops over the engine (training route)
# ---------------------------------------------------------------------------


def chain_log_partition(unary, transition, start=None, stop=None):
    """Differentiable logZ (B,) of a chain batch, one tape record.

    unary: tensor (B, n, Y); transition: tensor (Y, Y); start/stop:
    optional tensors (Y,). The backward is the gradient of logZ: node
    marginals for the unaries and boundaries, summed edge marginals for
    the transition.
    """
    marg = forward_backward(
        unary.data, transition.data, *(None if v is None else v.data for v in (start, stop))
    )

    def bwd(g):
        if unary.requires_grad:
            unary.accumulate_grad(g[:, None, None] * marg.node)
        if transition.requires_grad:
            transition.accumulate_grad(np.tensordot(g, marg.edge.sum(axis=1), axes=1))
        if start is not None and start.requires_grad:
            start.accumulate_grad(g @ marg.node[:, 0])
        if stop is not None and stop.requires_grad:
            stop.accumulate_grad(g @ marg.node[:, -1])

    inputs = tuple(v for v in (unary, transition, start, stop) if v is not None)
    return ag.record("chain_log_partition", inputs, marg.logZ, bwd)


def chain_gold_score(unary, transition, gold, start=None, stop=None):
    """Differentiable score of the gold paths; gold is an int array (B, n)."""
    gold = np.asarray(gold, dtype=np.int64)
    b, n, k = unary.shape
    if gold.shape != (b, n):
        raise ValueError(f"gold shape {gold.shape} does not match unary {unary.shape}")
    if gold.min() < 0 or gold.max() >= k:
        raise IndexError(f"gold label out of range [0, {k})")
    score = ag.reduce_sum(ag.pick(unary, gold), axis=1)
    if n > 1:
        score = ag.add(score, ag.reduce_sum(ag.gather_pairs(transition, gold[:, :-1], gold[:, 1:]), axis=1))
    if start is not None:
        score = ag.add(score, ag.gather(start, gold[:, 0]))
    if stop is not None:
        score = ag.add(score, ag.gather(stop, gold[:, -1]))
    return score


def chain_marginals(unary, transition):
    """Differentiable node marginals (B, n, Y) of a chain batch, one tape record.

    The node marginals are the gradient of logZ, so their backward is the
    Hessian-vector product of logZ with the output gradient g: du[t, y] =
    Cov(1[y_t = y], G) with G = sum_t g[t, y_t]. One forward-mode pass over
    the alpha/beta tables gives the conditional expectations of G's left
    part (da) and right part (db) given y_t; see Kim et al. 2017,
    "Structured Attention Networks".
    """
    u, trans = _chain(unary.data, transition.data, None, None)
    alpha, beta, logz = _alpha_beta(u, trans)
    marg = _marginals(u, trans, alpha, beta, logz)

    def bwd(g):
        n = g.shape[1]
        # left[b, t-1, a, c] = p(y_{t-1} = a | y_t = c); right[b, t, c, d] = p(y_{t+1} = d | y_t = c)
        left = np.exp(alpha[:, :-1, :, None] + trans + (u[:, 1:] - alpha[:, 1:])[:, :, None, :])
        right = np.exp(trans + (u[:, 1:] + beta[:, 1:])[:, :, None, :] - beta[:, :-1, :, None])
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


class SelectionAttention:
    """Binary-chain selection over positions and its expectation context.

    ``gamma[b, i]`` is the marginal probability that position i is
    selected; ``context[b] = sum_i gamma[b, i] * finals[b, i]``. Fields are
    tensors while a tape is live; ``.data`` gives the numpy view.
    """

    def __init__(self, unary, pairwise, gamma, context):
        self.unary = unary
        self.pairwise = pairwise
        self.gamma = gamma
        self.context = context


def selection_attention(finals, params):
    """Soft selection over utterance positions via a 2-state chain.

    finals: tensor (B, n, d). params: name -> tensor mapping holding
    ``sel.w`` (d, a), ``sel.b`` (a,), ``sel.v`` (a, 1) and ``sel.trans``
    (2, 2). The not-selected state scores 0 at every position.
    """
    b, n, d = finals.shape
    hidden = ag.tanh(ag.add(ag.matmul(finals, params["sel.w"]), params["sel.b"]))
    score_sel = ag.matmul(hidden, params["sel.v"])  # (B, n, 1)
    unary = ag.concat([ag.Tensor(np.zeros((b, n, 1))), score_sel], axis=2)
    gamma = ag.select(chain_marginals(unary, params["sel.trans"]), 1, axis=2)  # (B, n)
    context = ag.reduce_sum(ag.mul(ag.reshape(gamma, (b, n, 1)), finals), axis=1)
    return SelectionAttention(
        unary=unary, pairwise=params["sel.trans"], gamma=gamma, context=context
    )


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
    ``crf.emit_wout`` (h, Y) and ``crf.trans`` (Y, Y). The optional
    boundary vectors ``crf.start``/``crf.stop`` are read by the caller.
    Returns (unary (B, n, Y), transition).
    """
    b, n, d = finals.shape
    act_dot = ag.matmul(finals, ag.transpose_last(params["crf.act_emb"]))
    ctx_part = ag.reshape(ag.matmul(context, params["crf.emit_wc"]), (b, 1, -1))
    hidden = ag.tanh(
        ag.add(ag.add(ag.matmul(finals, params["crf.emit_wu"]), ctx_part), params["crf.emit_b"])
    )
    unary = ag.add(act_dot, ag.matmul(hidden, params["crf.emit_wout"]))
    return unary, params["crf.trans"]
