"""Chain inference vs enumeration, selection layer, potential construction."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import autograd as ag
from dialact import oracles
from dialact.corpus import build_vocab
from dialact.crf import (
    PotentialTable,
    chain_marginals,
    chain_nll,
    compute_potentials,
    forward_backward,
    selection_attention,
    viterbi_decode,
)
from dialact.model import DialogueActModel
from dialact.synthetic import default_spec, generate_synthetic
from dialact.train import TrainConfig, adagrad_step
from helpers import same_char_width


def fb(pot):
    """Engine marginals of one table, as a batch of one."""
    return forward_backward(pot.unary[None], pot.transition)


def log_partition(pot):
    return float(fb(pot).logZ[0])


def viterbi(pot):
    paths, scores = viterbi_decode(pot.unary[None], pot.transition)
    return paths[0].tolist(), float(scores[0])


def sequence_log_prob(pot, labels):
    """log p(labels) = gold score - logZ, the negated tape op."""
    return -float(chain_nll(ag.Tensor(pot.unary[None]), ag.Tensor(pot.transition), [labels]).data[0])


# ---------------------------------------------------------------------------
# log partition
# ---------------------------------------------------------------------------


def test_log_partition_two_equal_states():
    pot = PotentialTable(unary=np.zeros((1, 2)), transition=np.zeros((2, 2)))
    assert log_partition(pot) == pytest.approx(np.log(2.0), abs=1e-12)


def test_log_partition_factorizes_without_transitions():
    rng = np.random.default_rng(0)
    unary = rng.normal(size=(5, 3))
    pot = PotentialTable(unary=unary, transition=np.zeros((3, 3)))
    expected = sum(
        np.log(np.exp(row - row.max()).sum()) + row.max() for row in unary
    )
    assert log_partition(pot) == pytest.approx(expected, abs=1e-12)


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(1)
    for n in (1, 5):
        pot = oracles.random_potentials(rng, n, 4)
        logz_ref, *_ = oracles.enumerate_chain(pot)
        assert abs(log_partition(pot) - logz_ref) < 1e-9


def test_potentials_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        PotentialTable(unary=np.array([[np.inf, 0.0]]), transition=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        viterbi_decode(np.zeros((1, 2, 2)), np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"\(B, n, Y\)"):
        forward_backward(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# forward-backward
# ---------------------------------------------------------------------------


def test_marginals_factorize_without_transitions():
    rng = np.random.default_rng(2)
    unary = rng.normal(size=(4, 3))
    marg = fb(PotentialTable(unary=unary, transition=np.zeros((3, 3))))
    softmax = np.exp(unary - unary.max(1, keepdims=True))
    softmax /= softmax.sum(1, keepdims=True)
    assert np.abs(marg.node[0] - softmax).max() < 1e-12


def test_marginals_fully_symmetric_case():
    pot = PotentialTable(unary=np.zeros((2, 2)), transition=np.zeros((2, 2)))
    marg = fb(pot)
    assert np.abs(marg.edge[0, 0] - 0.25).max() < 1e-12
    assert np.abs(marg.node - 0.5).max() < 1e-12


def test_marginals_match_enumeration():
    rng = np.random.default_rng(3)
    pot = oracles.random_potentials(rng, 6, 3)
    logz_ref, node_ref, edge_ref, *_ = oracles.enumerate_chain(pot)
    marg = fb(pot)
    assert abs(marg.logZ[0] - logz_ref) < 1e-9
    assert np.abs(marg.node[0] - node_ref).max() < 1e-9
    assert np.abs(marg.edge[0] - edge_ref).max() < 1e-9


def test_marginal_normalization_and_consistency():
    rng = np.random.default_rng(4)
    for _ in range(25):
        pot = oracles.random_potentials(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
        marg = fb(pot)
        node, edge = marg.node[0], marg.edge[0]
        assert np.abs(node.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(edge.sum(axis=(1, 2)) - 1.0).max() < 1e-9
        # edge slices reduce to the node marginals on both sides
        assert np.abs(edge.sum(axis=2) - node[:-1]).max() < 1e-9
        assert np.abs(edge.sum(axis=1) - node[1:]).max() < 1e-9


def test_single_position_chain():
    pot = PotentialTable(unary=np.array([[1.0, 2.0, 0.5]]), transition=np.zeros((3, 3)))
    marg = fb(pot)
    assert marg.edge.shape == (1, 0, 3, 3)
    assert marg.node.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sequence probability
# ---------------------------------------------------------------------------


def test_sequence_log_prob_uniform_two_state():
    pot = PotentialTable(unary=np.zeros((1, 2)), transition=np.zeros((2, 2)))
    assert sequence_log_prob(pot, [0]) == pytest.approx(np.log(0.5), abs=1e-12)


def test_sequence_probabilities_normalize():
    rng = np.random.default_rng(5)
    pot = oracles.random_potentials(rng, 4, 3)
    total = sum(
        np.exp(sequence_log_prob(pot, seq))
        for seq in itertools.product(range(3), repeat=4)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sequence_log_prob_never_positive_and_viterbi_dominates():
    rng = np.random.default_rng(6)
    pot = oracles.random_potentials(rng, 5, 4)
    path, _ = viterbi(pot)
    best = sequence_log_prob(pot, path)
    assert best <= 0.0
    for _ in range(30):
        seq = rng.integers(0, 4, size=5)
        assert sequence_log_prob(pot, seq) <= best + 1e-12


def test_sequence_log_prob_validates_labels():
    pot = PotentialTable(unary=np.zeros((2, 2)), transition=np.zeros((2, 2)))
    with pytest.raises(IndexError):
        sequence_log_prob(pot, [0, 5])
    with pytest.raises(ValueError):
        sequence_log_prob(pot, [0])


# ---------------------------------------------------------------------------
# viterbi
# ---------------------------------------------------------------------------


def test_viterbi_factorizes_without_transitions():
    rng = np.random.default_rng(7)
    unary = rng.normal(size=(6, 4))
    path, score = viterbi(PotentialTable(unary=unary, transition=np.zeros((4, 4))))
    assert path == list(np.argmax(unary, axis=1))
    assert score == pytest.approx(unary.max(axis=1).sum())


def test_viterbi_alternates_under_repeat_penalty():
    # label 1 wins everywhere on unaries, but repeating it costs more than
    # the unary gap, so the best path alternates; odd length makes the
    # alternating optimum unique, and enumeration confirms it.
    unary = np.tile([0.0, 1.0], (5, 1))
    transition = np.array([[0.0, 0.0], [0.0, -3.0]])
    pot = PotentialTable(unary=unary, transition=transition)
    path, score = viterbi(pot)
    *_, path_ref, score_ref = oracles.enumerate_chain(pot)
    assert path == path_ref == [1, 0, 1, 0, 1]
    assert score == pytest.approx(score_ref) == 3.0


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(8)
    for n in (1, 6):
        pot = oracles.random_potentials(rng, n, 4)
        *_, path_ref, score_ref = oracles.enumerate_chain(pot)
        path, score = viterbi(pot)
        assert path == path_ref
        assert score == pytest.approx(score_ref, abs=1e-12)


def test_viterbi_ties_break_low():
    pot = PotentialTable(unary=np.zeros((3, 3)), transition=np.zeros((3, 3)))
    path, _ = viterbi(pot)
    assert path == [0, 0, 0]


def test_unary_shift_invariance():
    rng = np.random.default_rng(9)
    pot = oracles.random_potentials(rng, 5, 3)
    shift = 1.7
    shifted = PotentialTable(unary=pot.unary + shift, transition=pot.transition)
    assert viterbi(shifted)[0] == viterbi(pot)[0]
    assert log_partition(shifted) == pytest.approx(log_partition(pot) + 5 * shift, abs=1e-9)
    assert np.abs(fb(shifted).node - fb(pot).node).max() < 1e-9


# ---------------------------------------------------------------------------
# tape ops against enumeration
# ---------------------------------------------------------------------------


def test_tape_log_partition_equals_numpy():
    rng = np.random.default_rng(10)
    unary = rng.normal(size=(3, 5, 4))
    trans = rng.normal(size=(4, 4))
    gold = rng.integers(0, 4, size=(3, 5))
    nll = chain_nll(ag.Tensor(unary), ag.Tensor(trans), gold)
    for b in range(3):
        ref, *_ = oracles.enumerate_chain(PotentialTable(unary=unary[b], transition=trans))
        score = unary[b, np.arange(5), gold[b]].sum() + trans[gold[b, :-1], gold[b, 1:]].sum()
        assert nll.data[b] == pytest.approx(ref - score, abs=1e-10)


def test_log_partition_gradient_is_node_marginals():
    rng = np.random.default_rng(11)
    unary = rng.normal(size=(2, 6, 3))
    trans = rng.normal(size=(3, 3))
    ut = ag.Tensor(unary, requires_grad=True)
    tt = ag.Tensor(trans, requires_grad=True)
    gold = rng.integers(0, 3, size=(2, 6))
    with ag.Tape() as tape:
        nll = ag.reduce_sum(chain_nll(ut, tt, gold))
    tape.backward(nll)
    # d nll = d logZ minus the gold path's indicators, and d logZ is the marginals
    edge_total = np.zeros((3, 3))
    for b in range(2):
        _, node, edge, *_ = oracles.enumerate_chain(PotentialTable(unary=unary[b], transition=trans))
        assert np.abs(ut.grad[b] - (node - np.eye(3)[gold[b]])).max() < 1e-8
        edge_total += edge.sum(axis=0)
        np.add.at(edge_total, (gold[b, :-1], gold[b, 1:]), -1.0)
    assert np.abs(tt.grad - edge_total).max() < 1e-8


def test_gold_score_matches_sequence_score():
    rng = np.random.default_rng(12)
    unary = rng.normal(size=(2, 4, 3))
    trans = rng.normal(size=(3, 3))
    gold = rng.integers(0, 3, size=(2, 4))
    nll = chain_nll(ag.Tensor(unary), ag.Tensor(trans), gold)
    logz = forward_backward(unary, trans).logZ
    for b in range(2):
        ref = unary[b, np.arange(4), gold[b]].sum() + trans[gold[b, :-1], gold[b, 1:]].sum()
        assert logz[b] - nll.data[b] == pytest.approx(ref, abs=1e-12)


def test_chain_marginals_match_forward_backward():
    rng = np.random.default_rng(13)
    unary = rng.normal(size=(2, 5, 2))
    trans = rng.normal(size=(2, 2))
    marg_t = chain_marginals(ag.Tensor(unary), ag.Tensor(trans))
    ref = forward_backward(unary, trans)
    assert np.array_equal(marg_t.data, ref.node)
    for b in range(2):
        _, node_ref, *_ = oracles.enumerate_chain(PotentialTable(unary=unary[b], transition=trans))
        assert np.abs(marg_t.data[b] - node_ref).max() < 1e-10


# ---------------------------------------------------------------------------
# engine properties
# ---------------------------------------------------------------------------


@st.composite
def chain_batches(draw):
    """(unary (B, n, Y), transition)."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(0.0, 2.0, (b, n, k)), rng.normal(0.0, 2.0, (k, k))


@settings(max_examples=40, deadline=None)
@given(chain_batches())
def test_engine_matches_enumeration_per_conversation(chain):
    unary, trans = chain
    marg = forward_backward(*chain)
    paths, scores = viterbi_decode(*chain)
    for b in range(unary.shape[0]):
        pot = PotentialTable(unary=unary[b], transition=trans)
        logz_ref, node_ref, edge_ref, path_ref, score_ref = oracles.enumerate_chain(pot)
        assert abs(marg.logZ[b] - logz_ref) < 1e-9
        assert np.abs(marg.node[b] - node_ref).max() < 1e-9
        if unary.shape[1] > 1:
            assert np.abs(marg.edge[b] - edge_ref).max() < 1e-9
        assert paths[b].tolist() == path_ref
        assert abs(scores[b] - score_ref) < 1e-9


@settings(max_examples=40, deadline=None)
@given(chain_batches())
def test_batched_viterbi_equals_one_row_at_a_time(chain):
    unary, trans = chain
    paths, scores = viterbi_decode(*chain)
    for b in range(unary.shape[0]):
        row_paths, row_scores = viterbi_decode(unary[b : b + 1], trans)
        assert np.array_equal(paths[b], row_paths[0])
        assert scores[b] == row_scores[0]


@settings(max_examples=40, deadline=None)
@given(chain_batches(), st.integers(0, 2**32 - 1))
def test_chain_marginals_backward_is_enumeration_covariance(chain, seed):
    unary, trans = chain
    b, n, k = unary.shape
    g = np.random.default_rng(seed).normal(size=unary.shape)
    ut = ag.Tensor(unary, requires_grad=True)
    tt = ag.Tensor(trans, requires_grad=True)
    with ag.Tape() as tape:
        out = ag.reduce_sum(ag.mul(chain_marginals(ut, tt), g))
    tape.backward(out)
    # Cov(1[y_j = y], G) and sum_t Cov(1[y_t = a, y_t+1 = c], G), G = sum_t g[t, y_t]
    seqs = np.array(list(itertools.product(range(k), repeat=n)))
    steps = np.arange(n)
    trans_ref = np.zeros((k, k))
    for row in range(b):
        scores = unary[row, steps, seqs].sum(axis=1) + trans[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        big_g = g[row, steps, seqs].sum(axis=1)
        centred = p * (big_g - p @ big_g)
        unary_ref = np.zeros((n, k))
        np.add.at(unary_ref, (np.broadcast_to(steps, seqs.shape), seqs), centred[:, None])
        np.add.at(trans_ref, (seqs[:, :-1], seqs[:, 1:]), centred[:, None])
        assert np.abs(ut.grad[row] - unary_ref).max() < 1e-9
    assert np.abs(tt.grad - trans_ref).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 5])
def test_fused_chain_ops_pass_grad_check(n):
    rng = np.random.default_rng(40 + n)
    reg = ag.ParamRegistry()
    unary = reg.add("unary", rng.normal(size=(3, n, 3)))
    trans = reg.add("trans", rng.normal(size=(3, 3)))
    weights = rng.normal(size=(3, n, 3))
    gold, scale = rng.integers(0, 3, size=(3, n)), rng.normal(size=3)
    for closure in (
        lambda: ag.reduce_sum(ag.mul(chain_nll(unary, trans, gold), scale)),
        lambda: ag.reduce_sum(ag.mul(chain_marginals(unary, trans), weights)),
    ):
        report = ag.grad_check(closure, reg, eps=1e-4, tol=1e-4)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# chains of mixed lengths in one batch
# ---------------------------------------------------------------------------


@st.composite
def mixed_chain_batches(draw):
    """(unary (B, N, Y), transition, lengths): chains 1..6 long, noise past each end."""
    b = draw(st.integers(1, 4))
    lengths = np.array(draw(st.lists(st.integers(1, 6), min_size=b, max_size=b)))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unary = rng.normal(0.0, 2.0, (b, lengths.max(), k))
    pad = np.arange(lengths.max()) >= lengths[:, None]
    unary[pad] = rng.uniform(-50.0, 50.0, (pad.sum(), k))
    return unary, rng.normal(0.0, 2.0, (k, k)), lengths


def cropped(chain, b):
    unary, trans, lengths = chain
    return PotentialTable(unary=unary[b, : lengths[b]], transition=trans)


@settings(max_examples=60, deadline=None)
@given(mixed_chain_batches())
def test_mixed_length_engine_matches_enumeration_per_chain(chain):
    lengths = chain[-1]
    marg = forward_backward(*chain)
    paths, scores = viterbi_decode(*chain)
    for b, n in enumerate(lengths):
        logz_ref, node_ref, edge_ref, path_ref, score_ref = oracles.enumerate_chain(cropped(chain, b))
        assert abs(marg.logZ[b] - logz_ref) < 1e-9
        assert np.abs(marg.node[b, :n] - node_ref).max() < 1e-9
        if n > 1:
            assert np.abs(marg.edge[b, : n - 1] - edge_ref).max() < 1e-9
        assert not marg.node[b, n:].any() and not marg.edge[b, n - 1 :].any()
        assert paths[b, :n].tolist() == path_ref
        assert abs(scores[b] - score_ref) < 1e-9


@settings(max_examples=40, deadline=None)
@given(mixed_chain_batches(), st.integers(0, 2**32 - 1))
def test_mixed_length_marginals_backward_is_enumeration_covariance(chain, seed):
    unary, trans, lengths = chain
    k = unary.shape[2]
    g = np.random.default_rng(seed).normal(size=unary.shape)
    ut = ag.Tensor(unary, requires_grad=True)
    tt = ag.Tensor(trans, requires_grad=True)
    with ag.Tape() as tape:
        out = ag.reduce_sum(ag.mul(chain_marginals(ut, tt, lengths), g))
    tape.backward(out)
    trans_ref = np.zeros((k, k))
    for row, n in enumerate(lengths):
        seqs = np.array(list(itertools.product(range(k), repeat=n)))
        steps = np.arange(n)
        scores = unary[row, steps, seqs].sum(axis=1) + trans[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        big_g = g[row, steps, seqs].sum(axis=1)
        centred = p * (big_g - p @ big_g)
        unary_ref = np.zeros((n, k))
        np.add.at(unary_ref, (np.broadcast_to(steps, seqs.shape), seqs), centred[:, None])
        np.add.at(trans_ref, (seqs[:, :-1], seqs[:, 1:]), centred[:, None])
        assert np.abs(ut.grad[row, :n] - unary_ref).max() < 1e-9
        assert not ut.grad[row, n:].any()
    assert np.abs(tt.grad - trans_ref).max() < 1e-9


def chain_outputs(chain, g, gold):
    """Every engine output and every tape-op gradient of one mixed batch."""
    unary, trans, lengths = chain
    ut, tt = ag.Tensor(unary, requires_grad=True), ag.Tensor(trans, requires_grad=True)
    with ag.Tape() as tape:
        nll = chain_nll(ut, tt, gold, lengths)
        node = chain_marginals(ut, tt, lengths)
        loss = ag.add(ag.reduce_sum(nll), ag.reduce_sum(ag.mul(node, g)))
    tape.backward(loss)
    marg = forward_backward(*chain)
    return [
        marg.logZ, marg.node, marg.edge, *viterbi_decode(*chain), nll.data, node.data,
        ut.grad, tt.grad,
    ]


@settings(max_examples=40, deadline=None)
@given(mixed_chain_batches(), st.integers(0, 2**32 - 1))
def test_padded_unary_values_change_no_output_or_gradient(chain, seed):
    unary, trans, lengths = chain
    rng = np.random.default_rng(seed)
    g = rng.normal(size=unary.shape)
    gold = rng.integers(0, unary.shape[2], size=unary.shape[:2])
    noisy = unary.copy()
    pad = np.arange(unary.shape[1]) >= lengths[:, None]
    noisy[pad] = rng.uniform(-50.0, 50.0, (pad.sum(), unary.shape[2]))
    for got, want in zip(
        chain_outputs((noisy, trans, lengths), g, gold), chain_outputs(chain, g, gold)
    ):
        assert np.array_equal(got, want)


def test_mixed_length_marginals_backward_stays_finite_at_large_scores():
    rng = np.random.default_rng(47)
    unary = rng.normal(0.0, 400.0, (2, 5, 3))  # alpha gaps far beyond exp's range
    trans = rng.normal(0.0, 400.0, (3, 3))
    lengths = np.array([5, 2])
    ut = ag.Tensor(unary, requires_grad=True)
    tt = ag.Tensor(trans, requires_grad=True)
    with ag.Tape() as tape:
        out = ag.reduce_sum(ag.mul(chain_marginals(ut, tt, lengths), rng.normal(size=unary.shape)))
    tape.backward(out)
    assert np.isfinite(ut.grad).all() and np.isfinite(tt.grad).all()
    assert not ut.grad[1, 2:].any()


def test_fused_chain_ops_pass_grad_check_on_mixed_lengths():
    rng = np.random.default_rng(45)
    lengths = np.array([4, 1, 3, 2])
    reg = ag.ParamRegistry()
    unary = reg.add("unary", rng.normal(size=(4, 4, 3)))
    trans = reg.add("trans", rng.normal(size=(3, 3)))
    weights = rng.normal(size=(4, 4, 3))
    gold = rng.integers(0, 3, size=(4, 4))
    scale = rng.normal(size=4)
    for closure in (
        lambda: ag.reduce_sum(ag.mul(chain_nll(unary, trans, gold, lengths), scale)),
        lambda: ag.reduce_sum(ag.mul(chain_marginals(unary, trans, lengths), weights)),
    ):
        report = ag.grad_check(closure, reg, eps=1e-4, tol=1e-4)
        assert report.passed, report.summary()


def test_gold_score_of_mixed_lengths_sums_each_chain_to_its_end():
    rng = np.random.default_rng(46)
    unary = rng.normal(size=(2, 4, 3))
    trans = rng.normal(size=(3, 3))
    gold = rng.integers(0, 3, size=(2, 4))
    lengths = np.array([4, 2])
    gold[1, 2:] = [99, -1]  # past the chain's end: never read
    nll = chain_nll(ag.Tensor(unary), ag.Tensor(trans), gold, lengths)
    logz = forward_backward(unary, trans, lengths).logZ
    for b, n in enumerate(lengths):
        y = gold[b, :n]
        ref = unary[b, np.arange(n), y].sum() + trans[y[:-1], y[1:]].sum()
        assert logz[b] - nll.data[b] == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("lengths", [[0, 2], [3, 2], [2], [2.0, 1.0]])
def test_engine_rejects_bad_lengths(lengths):
    with pytest.raises(ValueError, match="lengths"):
        forward_backward(np.zeros((2, 2, 3)), np.zeros((3, 3)), lengths=np.array(lengths))


def test_each_fused_chain_op_is_one_record():
    rng = np.random.default_rng(44)
    unary = ag.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    trans = ag.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with ag.Tape() as tape:
        chain_nll(unary, trans, rng.integers(0, 3, size=(2, 4)))
        chain_marginals(unary, trans)
    assert [r.op for r in tape.records] == ["chain_nll", "chain_marginals"]


# ---------------------------------------------------------------------------
# selection attention
# ---------------------------------------------------------------------------


def selection_weights(rng, d, a):
    return {
        "sel.w": ag.Tensor(rng.uniform(-0.3, 0.3, (d, a))),
        "sel.b": ag.Tensor(np.zeros(a)),
        "sel.v": ag.Tensor(rng.uniform(-0.5, 0.5, (a, 1))),
        "sel.trans": ag.Tensor(rng.normal(size=(2, 2))),
    }


def test_selection_zero_parameters_is_uniform():
    rng = np.random.default_rng(14)
    finals = rng.normal(size=(1, 4, 6))
    params = {
        "sel.w": ag.Tensor(np.zeros((6, 3))),
        "sel.b": ag.Tensor(np.zeros(3)),
        "sel.v": ag.Tensor(np.zeros((3, 1))),
        "sel.trans": ag.Tensor(np.zeros((2, 2))),
    }
    sel = selection_attention(ag.Tensor(finals), params)
    assert np.abs(sel.gamma.data - 0.5).max() < 1e-12
    assert np.abs(sel.context.data[0] - 0.5 * finals[0].sum(axis=0)).max() < 1e-12


def test_selection_single_node_is_sigmoid():
    rng = np.random.default_rng(15)
    finals = rng.normal(size=(1, 1, 4))
    params = selection_weights(rng, 4, 3)
    sel = selection_attention(ag.Tensor(finals), params)
    hidden = np.tanh(finals[0, 0] @ params["sel.w"].data + params["sel.b"].data)
    s = float((hidden @ params["sel.v"].data)[0])
    assert sel.gamma.data[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-s)), abs=1e-12)


def test_selection_gamma_matches_enumeration():
    rng = np.random.default_rng(16)
    finals = rng.normal(size=(1, 5, 6))
    params = selection_weights(rng, 6, 4)
    sel = selection_attention(ag.Tensor(finals), params)
    hidden = np.tanh(finals[0] @ params["sel.w"].data + params["sel.b"].data)
    s1 = (hidden @ params["sel.v"].data)[:, 0]
    unary = np.stack([np.zeros(5), s1], axis=1)
    gamma_ref = oracles.enumerate_selection_gamma(unary, params["sel.trans"].data)
    assert np.abs(sel.gamma.data[0] - gamma_ref).max() < 1e-9


def test_selection_context_is_gamma_weighted_sum():
    rng = np.random.default_rng(17)
    finals = rng.normal(size=(3, 6, 5))
    sel = selection_attention(ag.Tensor(finals), selection_weights(rng, 5, 4))
    recomputed = np.einsum("bn,bnd->bd", sel.gamma.data, finals)
    assert np.abs(sel.context.data - recomputed).max() < 1e-12
    assert sel.gamma.data.min() >= 0.0 and sel.gamma.data.max() <= 1.0


# ---------------------------------------------------------------------------
# potential construction
# ---------------------------------------------------------------------------


def potential_weights(rng, d, h, k, zero=False):
    init = (lambda shape: np.zeros(shape)) if zero else (lambda shape: rng.uniform(-0.3, 0.3, shape))
    return {
        "crf.act_emb": ag.Tensor(init((k, d))),
        "crf.emit_wu": ag.Tensor(init((d, h))),
        "crf.emit_wc": ag.Tensor(init((d, h))),
        "crf.emit_b": ag.Tensor(np.zeros(h)),
        "crf.emit_wout": ag.Tensor(init((h, k))),
        "crf.trans": ag.Tensor(np.zeros((k, k))),
    }


def test_zero_parameters_give_zero_potentials():
    rng = np.random.default_rng(18)
    finals = ag.Tensor(rng.normal(size=(1, 3, 4)))
    ctx = ag.Tensor(rng.normal(size=(1, 4)))
    unary, trans = compute_potentials(finals, ctx, potential_weights(rng, 4, 5, 3, zero=True), np.array([3]))
    assert np.array_equal(unary.data, np.zeros((1, 3, 3)))
    assert np.array_equal(trans.data, np.zeros((3, 3)))


def test_potential_shapes():
    rng = np.random.default_rng(19)
    finals = ag.Tensor(rng.normal(size=(1, 2, 4)))
    ctx = ag.Tensor(rng.normal(size=(1, 4)))
    unary, trans = compute_potentials(finals, ctx, potential_weights(rng, 4, 5, 3), np.array([2]))
    assert unary.shape == (1, 2, 3)
    assert trans.shape == (3, 3)


def test_act_embedding_perturbation_is_column_local():
    rng = np.random.default_rng(20)
    finals = ag.Tensor(rng.normal(size=(1, 4, 6)))
    ctx = ag.Tensor(rng.normal(size=(1, 6)))
    params = potential_weights(rng, 6, 5, 4)
    base, _ = compute_potentials(finals, ctx, params, np.array([4]))
    params["crf.act_emb"].data[2] += 0.37
    bumped, _ = compute_potentials(finals, ctx, params, np.array([4]))
    diff = bumped.data - base.data
    assert np.abs(diff[:, :, 2]).min() > 0.0
    untouched = np.delete(diff, 2, axis=2)
    assert np.abs(untouched).max() == 0.0


def test_boundary_vectors_fold_into_each_chains_first_and_last_rows():
    rng = np.random.default_rng(23)
    lengths = np.array([3, 1, 2])
    finals = ag.Tensor(rng.normal(size=(3, 3, 6)))
    ctx = ag.Tensor(rng.normal(size=(3, 6)))
    params = potential_weights(rng, 6, 5, 4)
    start, stop = rng.normal(size=4), rng.normal(size=4)
    plain, trans = compute_potentials(finals, ctx, params, lengths)
    bounded = {**params, "crf.start": ag.Tensor(start), "crf.stop": ag.Tensor(stop)}
    folded, folded_trans = compute_potentials(finals, ctx, bounded, lengths)
    expected = plain.data.copy()
    expected[:, 0] += start
    expected[np.arange(3), lengths - 1] += stop
    assert np.array_equal(folded.data, expected)
    assert folded_trans is trans


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_full_model_with_boundaries_passes_grad_check_on_mixed_lengths(seed):
    convs, _ = generate_synthetic(
        default_spec(num_acts=3, self_transition=0.6, num_conversations=3, min_len=3, max_len=3, seed=seed)
    )
    convs = [replace(conv, utterances=conv.utterances[:n]) for conv, n in zip(convs, (3, 1, 2))]
    cfg = TrainConfig(d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4,
                      emit_dim=4, dropout=0.0, boundary_potentials=True)
    rng = np.random.default_rng(seed)
    model = DialogueActModel(build_vocab(convs), cfg, rng=rng)
    for name in ("crf.start", "crf.stop"):  # off their zero init, so each boundary term is visible
        model.registry[name].data = rng.normal(size=model.registry[name].shape)
    report = ag.grad_check(
        lambda: model.loss(convs, train=False), model.registry, eps=1e-4, tol=1e-4, max_per_tensor=10, seed=seed
    )
    assert report.passed, report.summary()
    assert {"crf.start", "crf.stop"} <= {name for name, _, _ in report.entries}


def test_potential_tables_share_one_transition():
    convs, _ = generate_synthetic(
        default_spec(num_acts=3, num_conversations=12, min_len=3, max_len=3, seed=21)
    )
    cfg = TrainConfig(d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4,
                      emit_dim=4, boundary_potentials=True)
    model = DialogueActModel(build_vocab(convs), cfg, rng=np.random.default_rng(21))
    tables, _, _ = model.potential_tables(convs[:2])
    (unary, trans, lengths), _, _ = model.chain_scores(convs[:2])
    assert len(tables) == 2 and lengths.tolist() == [3, 3]
    assert np.array_equal(tables[1].unary, unary[1])
    assert tables[0].transition is tables[1].transition
    assert np.array_equal(tables[0].transition, model.registry["crf.trans"].data)
    # training rebinds weights rather than writing into them, so a later
    # step leaves the tables as they were without any copy
    before = tables[0].transition.copy()
    model.registry["crf.trans"].grad = np.ones_like(before)
    adagrad_step(model.registry, lr=0.1)
    assert not np.array_equal(model.registry["crf.trans"].data, before)
    assert np.array_equal(tables[0].transition, before)


def test_potential_tables_are_cropped_to_each_length():
    convs, _ = generate_synthetic(
        default_spec(num_acts=3, num_conversations=6, min_len=2, max_len=5, seed=22)
    )
    convs = same_char_width(convs)
    cfg = TrainConfig(d=8, d_u=4, d_c=4, d_p=3, d_n=3, word_dim=6, char_out=6, attn_dim=4,
                      emit_dim=4, boundary_potentials=True)
    model = DialogueActModel(build_vocab(convs), cfg, rng=np.random.default_rng(22))
    assert len({len(c) for c in convs}) > 1
    tables, selection, _ = model.potential_tables(convs)
    for b, (conv, table) in enumerate(zip(convs, tables)):
        (alone,), alone_sel, _ = model.potential_tables([conv])
        assert table.unary.shape[0] == len(conv)
        assert np.abs(table.unary - alone.unary).max() <= 1e-12
        assert np.abs(selection.gamma.data[b, : len(conv)] - alone_sel.gamma.data[0]).max() <= 1e-12
        assert not selection.gamma.data[b, len(conv) :].any()
