"""Exact chain inference, checked against direct enumeration.

A random potential table (per-position label scores plus a transition
table) defines a distribution over label sequences. The dynamic programs
compute its log-partition, node/edge marginals, and argmax path in linear
time; enumeration over all |Y|^n sequences confirms every number.
"""

import itertools

import numpy as np

from dialact import autograd as ag
from dialact import crf, oracles

rng = np.random.default_rng(0)
n, k = 5, 3
pot = crf.PotentialTable(
    unary=rng.normal(0, 1.5, size=(n, k)),
    transition=rng.normal(0, 1.5, size=(k, k)),
)

# the engine runs on batches (B, n, Y); this is a batch of one
marg = crf.forward_backward(pot.unary[None], pot.transition)
paths, scores = crf.viterbi_decode(pot.unary[None], pot.transition)
logz, node, edge = marg.logZ[0], marg.node[0], marg.edge[0]
path, score = paths[0].tolist(), scores[0]

logz_ref, node_ref, edge_ref, path_ref, score_ref = oracles.enumerate_chain(pot)

print(f"chain with n={n} positions, {k} labels ({k ** n} sequences enumerated)")
print(f"\nlog partition   DP {logz:.10f}   enumeration {logz_ref:.10f}")
print(f"node marginal max abs diff: {np.abs(node - node_ref).max():.2e}")
print(f"edge marginal max abs diff: {np.abs(edge - edge_ref).max():.2e}")
print(f"\nViterbi path    DP {path} score {score:.6f}")
print(f"enumeration     {path_ref} score {score_ref:.6f}")

print("\nnode marginals (rows sum to 1):")
for t in range(n):
    row = "  ".join(f"{p:.3f}" for p in node[t])
    print(f"  t={t}: {row}   argmax={int(np.argmax(node[t]))} viterbi={path[t]}")

print("\ngold-sequence probabilities sum to one:")
seqs = np.array(list(itertools.product(range(k), repeat=n)))
nll = crf.chain_nll(ag.Tensor(np.repeat(pot.unary[None], len(seqs), axis=0)), ag.Tensor(pot.transition), seqs)
print(f"  sum over all sequences = {np.exp(-nll.data).sum():.12f}")

shift = 2.0
both = np.stack([pot.unary, pot.unary + shift])  # two chains in one batch
print(f"\nadding {shift} to every unary score:")
print(f"  path unchanged: {np.array_equal(*crf.viterbi_decode(both, pot.transition)[0])}")
print(f"  logZ shifts by n*c = {n * shift}: {np.diff(crf.forward_backward(both, pot.transition).logZ)[0]:.10f}")
