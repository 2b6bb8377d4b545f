"""The reverse-mode tape, and why the chain layer trains correctly.

Two demonstrations:

1. the recorded-operation tape differentiates arbitrary compositions of
   the primitive ops, validated by central finite differences;
2. the gradient of the chain's negative log-likelihood is the node and
   edge marginals minus the gold path's indicators, checked here against
   brute-force enumeration -- the identity that makes exact
   maximum-likelihood training of the chain layer work.
"""

import numpy as np

from dialact import autograd as ag
from dialact import crf, oracles

# --- a tiny tape ------------------------------------------------------------
w = ag.Tensor(np.array([[0.4, -0.3], [0.7, 0.1]]), requires_grad=True)
x = ag.Tensor(np.array([[1.0, 2.0]]))
with ag.Tape() as tape:
    hidden = ag.tanh(ag.matmul(x, w))
    loss = ag.reduce_sum(ag.mul(hidden, hidden))
tape.backward(loss)
print("loss:", float(loss.data))
print("analytic dloss/dw:\n", w.grad)

eps = 1e-6
numeric = np.zeros_like(w.data)
flat = w.data.reshape(-1)
for j in range(flat.size):
    orig = flat[j]
    flat[j] = orig + eps
    up = float(ag.reduce_sum(ag.mul(ag.tanh(ag.matmul(x, w)), ag.tanh(ag.matmul(x, w)))).data)
    flat[j] = orig - eps
    dn = float(ag.reduce_sum(ag.mul(ag.tanh(ag.matmul(x, w)), ag.tanh(ag.matmul(x, w)))).data)
    flat[j] = orig
    numeric.reshape(-1)[j] = (up - dn) / (2 * eps)
print("finite differences:\n", numeric)
print("max abs diff:", np.abs(w.grad - numeric).max())

# --- the partition-function identity ----------------------------------------
rng = np.random.default_rng(1)
unary = rng.normal(size=(1, 6, 3))
trans = rng.normal(size=(3, 3))
gold = np.array([[0, 0, 1, 2, 2, 1]])
ut = ag.Tensor(unary, requires_grad=True)
tt = ag.Tensor(trans, requires_grad=True)
with ag.Tape() as tape:
    nll = ag.reduce_sum(crf.chain_nll(ut, tt, gold))
tape.backward(nll)

_, node, edge, _, _ = oracles.enumerate_chain(crf.PotentialTable(unary=unary[0], transition=trans))
counts = np.zeros((3, 3))
np.add.at(counts, (gold[0, :-1], gold[0, 1:]), 1.0)
print("\nd NLL / d unary vs node marginals - one-hot(gold) by enumeration:")
print("  max abs diff:", np.abs(ut.grad[0] - (node - np.eye(3)[gold[0]])).max())
print("d NLL / d transition vs summed edge marginals - gold transition counts:")
print("  max abs diff:", np.abs(tt.grad - (edge.sum(axis=0) - counts)).max())
print("\nso the gradient of NLL = logZ - gold score is exactly")
print("(expected feature counts - observed feature counts): the classic")
print("exponential-family training signal. chain_nll is one tape record")
print("whose backward hands out the forward-backward marginals minus the gold path.")
