"""Structured attention: marginals of a latent chain instead of a softmax.

The memory layer scores every utterance against every contextual key and
normalizes each row independently. The selection layer goes further: it
treats "position i is selected" as a latent binary variable in a chain
with learned transitions, so the attention weights are true marginals
that respect sequential structure. Enumeration over all 2^n selection
patterns verifies the weights.
"""

import numpy as np

from dialact import autograd as ag
from dialact import crf, oracles

rng = np.random.default_rng(4)
n, d, a = 6, 8, 5
finals = ag.Tensor(rng.normal(size=(1, n, d)))

params = {
    "sel.w": ag.Tensor(rng.uniform(-0.4, 0.4, (d, a))),
    "sel.b": ag.Tensor(np.zeros(a)),
    "sel.v": ag.Tensor(rng.uniform(-0.8, 0.8, (a, 1))),
    # favor keeping runs of selected positions together
    "sel.trans": ag.Tensor(np.array([[0.5, -0.5], [-0.5, 1.0]])),
}

sel = crf.selection_attention(finals, params)
gamma = sel.gamma.data[0]
print(f"selection marginals over {n} positions (chain-coupled):")
print("  " + "  ".join(f"{g:.3f}" for g in gamma))

hidden = np.tanh(finals.data[0] @ params["sel.w"].data + params["sel.b"].data)
scores = (hidden @ params["sel.v"].data)[:, 0]
unary = np.stack([np.zeros(n), scores], axis=1)
gamma_ref = oracles.enumerate_chain(crf.PotentialTable(unary, params["sel.trans"].data))[1][:, 1]
print(f"  enumeration over {2 ** n} patterns agrees to {np.abs(gamma - gamma_ref).max():.2e}")

independent = 1.0 / (1.0 + np.exp(-scores))
print("\nper-position sigmoid (no chain coupling) for contrast:")
print("  " + "  ".join(f"{g:.3f}" for g in independent))
print("  the transition table pulls neighboring selections toward agreement")

context = sel.context.data[0]
recomputed = (gamma[:, None] * finals.data[0]).sum(axis=0)
print(f"\ncontext = gamma-weighted sum of utterance vectors "
      f"(recomputation diff {np.abs(context - recomputed).max():.1e})")

# the expectation is differentiable end to end
finals.requires_grad = True
with ag.Tape() as tape:
    sel = crf.selection_attention(finals, params)
    loss = ag.reduce_sum(ag.mul(sel.context, sel.context))
tape.backward(loss)
print(f"backprop through the marginals reaches the inputs: grad norm "
      f"{np.linalg.norm(finals.grad):.4f}")
