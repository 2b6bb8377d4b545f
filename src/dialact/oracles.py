"""Exhaustive-enumeration references for the chain inference code.

Everything here scores label sequences directly, one by one, with no
dynamic programming, no log-space recursion, and no shared helpers from
the production path. Slow on purpose: these are the ground truth the
fast implementations are checked against, both in the test suite and via
the ``oracle-check`` command.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import crf


# The most label sequences ``oracle-check`` enumerates for one chain
# (--max-labels ** --max-n): 4 ** 8, 16 times the default 4 ** 6. Each is a
# Python tuple, scored and summed one by one.
MAX_SEQUENCES = 4**8


def enumerate_chain(pot):
    """Score all |Y|^n sequences; return logZ, node/edge marginals, argmax.

    Returns (logZ, node (n,Y), edge (n-1,Y,Y), best_path, best_score).
    """
    n, k = pot.unary.shape
    seqs = list(itertools.product(range(k), repeat=n))
    scores = np.empty(len(seqs))
    for i, seq in enumerate(seqs):
        s = sum(pot.unary[t, y] for t, y in enumerate(seq))
        s += sum(pot.transition[seq[t], seq[t + 1]] for t in range(n - 1))
        scores[i] = s
    m = scores.max()
    logz = m + np.log(np.exp(scores - m).sum())
    probs = np.exp(scores - logz)
    node = np.zeros((n, k))
    edge = np.zeros((n - 1, k, k))
    for seq, p in zip(seqs, probs):
        for t, y in enumerate(seq):
            node[t, y] += p
        for t in range(n - 1):
            edge[t, seq[t], seq[t + 1]] += p
    best = int(np.argmax(scores))  # first maximum = lexicographically lowest sequence
    return float(logz), node, edge, list(seqs[best]), float(scores[best])


def random_potentials(rng, n, n_labels, scale=2.0):
    return crf.PotentialTable(
        unary=rng.normal(0.0, scale, size=(n, n_labels)),
        transition=rng.normal(0.0, scale, size=(n_labels, n_labels)),
    )


@dataclass
class SuiteResult:
    name: str
    trials: int
    passed: int
    max_err: float
    seconds: float
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.passed == self.trials

    def line(self):
        status = "ok" if self.ok else "FAIL"
        return (
            f"{status:4s} {self.name}: {self.passed}/{self.trials} passed, "
            f"max_err={self.max_err:.3e}, {self.seconds:.2f}s"
        )


def chain_oracle_suite(trials=200, max_n=6, max_labels=4, seed=0, tol=1e-9):
    """Random instances: DP logZ/marginals/Viterbi vs direct enumeration."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    passed = 0
    max_err = 0.0
    failures = []
    for trial in range(trials):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(2, max_labels + 1))
        pot = random_potentials(rng, n, k)
        logz_ref, node_ref, edge_ref, path_ref, score_ref = enumerate_chain(pot)

        chain = (pot.unary[None], pot.transition)
        marg = crf.forward_backward(*chain)
        err = abs(marg.logZ[0] - logz_ref)
        err = max(err, float(np.abs(marg.node[0] - node_ref).max()))
        if n > 1:
            err = max(err, float(np.abs(marg.edge[0] - edge_ref).max()))
        paths, scores = crf.viterbi_decode(*chain)
        path = paths[0].tolist()
        score_err = abs(scores[0] - score_ref)
        max_err = max(max_err, err, score_err)
        if err <= tol and path == path_ref and score_err <= 1e-9:
            passed += 1
        else:
            failures.append((trial, n, k, err, path, path_ref))
    return SuiteResult(
        name="chain-inference",
        trials=trials,
        passed=passed,
        max_err=max_err,
        seconds=time.perf_counter() - t0,
        failures=failures,
    )


def selection_oracle_suite(trials=100, max_n=10, seed=0, tol=1e-9):
    """Random binary chains: tape-computed gamma vs p(z_i = 1) by 2^n enumeration."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    passed = 0
    max_err = 0.0
    failures = []
    for trial in range(trials):
        n = int(rng.integers(1, max_n + 1))
        unary = rng.normal(0.0, 2.0, size=(n, 2))
        pairwise = rng.normal(0.0, 2.0, size=(2, 2))
        marg = crf.chain_marginals(ag.Tensor(unary[None, :, :]), ag.Tensor(pairwise))
        gamma = marg.data[0, :, 1]
        gamma_ref = enumerate_chain(crf.PotentialTable(unary, pairwise))[1][:, 1]
        err = float(np.abs(gamma - gamma_ref).max())
        max_err = max(max_err, err)
        if err <= tol:
            passed += 1
        else:
            failures.append((trial, n, err))
    return SuiteResult(
        name="selection-gamma",
        trials=trials,
        passed=passed,
        max_err=max_err,
        seconds=time.perf_counter() - t0,
        failures=failures,
    )
