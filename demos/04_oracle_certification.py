"""Certify the closed-form weights against search on random instances.

Two maximizers that know nothing about the closed form climb the accuracy
objective directly, by pair transfers of weight with an exact line search
from uniform weights: one restricted to the simplex, one over signed weights.
On every instance the simplex search should land on the closed-form optimum
and the signed search should never beat it.
"""

import numpy as np

from rdwo import grid_solve, maximize_signed, maximize_simplex, query_weights
from rdwo.oracle import random_instance

print(f"{'inst':>4} {'n':>3} {'closed form':>14} {'simplex search':>14} "
      f"{'signed search':>14} {'|simplex dev|':>13} {'signed excess':>13}")

worst_dev = 0.0
worst_excess = -np.inf
for i in range(12):
    rng = np.random.default_rng([2024, i])
    x, phis, config = random_instance(rng, n_samples=2 + (i % 11))
    closed = float(grid_solve([x], phis, np.zeros(phis.size), config)[2][0])
    simplex = maximize_simplex(x, phis, config)
    signed = maximize_signed(x, phis, config)
    dev = abs(simplex.objective - closed)
    excess = signed.objective - closed
    worst_dev = max(worst_dev, dev)
    worst_excess = max(worst_excess, excess)
    print(
        f"{i:4d} {phis.size:3d} {closed:14.9f} {simplex.objective:14.9f} "
        f"{signed.objective:14.9f} {dev:13.2e} {excess:13.2e}"
    )

print()
print(f"worst simplex deviation: {worst_dev:.2e} (certification tolerance 1e-6)")
print(f"worst signed excess    : {worst_excess:.2e} (must stay <= 1e-6)")

# The searched weights agree with the closed form coordinate by coordinate.
rng = np.random.default_rng(5)
x, phis, config = random_instance(rng, n_samples=6)
closed_w = query_weights(x, phis, config)
searched_w = np.array(maximize_simplex(x, phis, config).weights)
print()
print("one instance, weight by weight:")
for k, (a, b) in enumerate(zip(closed_w, searched_w), start=1):
    print(f"  sample {k}: closed = {a:.9f}  searched = {b:.9f}")
print(f"max |difference| = {float(np.max(np.abs(closed_w - searched_w))):.2e}")
