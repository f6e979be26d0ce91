"""Walk through the closed-form weights on a three-sample toy problem.

The estimator answers a query by averaging the outputs of all samples whose
regressor falls strictly inside a window around the query point.  Each
in-window sample is weighted by its margin from the nearer window endpoint,
normalized to sum to one.  This script shows every intermediate quantity and
checks the weights against the accuracy objective they maximize.
"""

import numpy as np

from rdwo import (
    EstimatorConfig,
    grid_solve,
    query_weights,
    signed_objective,
    simplex_objective,
    window_margins,
)

config = EstimatorConfig(delta=1.0, l1=1.0)
phis = np.array([-0.5, 0.2, 2.0])
ys = np.array([1.0, 2.0, 100.0])
x = 0.0

print(f"query x = {x}, window = ({x - config.delta}, {x + config.delta})")
print()
print("per-sample distances:")
for k, phi in enumerate(phis.tolist(), start=1):
    distance = abs(x - phi)
    margin = config.delta - distance
    status = "inside" if margin > 0.0 else "outside"
    print(
        f"  sample {k}: phi = {phi:5.2f}  |x - phi| = {distance:4.2f}  "
        f"margin = {margin:5.2f}  ({status})"
    )

positions, margins = window_margins(x, phis, config.delta)
active = tuple(int(p) + 1 for p in positions)
print()
print(f"active set: {active} (size {len(active)})")

weights = query_weights(x, phis, config)
print()
print("closed-form weights (margin / sum of active margins):")
for k, w in enumerate(weights, start=1):
    print(f"  sample {k}: w = {w:.12f}")
print(f"  sum = {float(np.sum(weights)):.17f}")
print(f"  sample 3 sits outside, so its weight is exactly {weights[2]!r}")

print()
print(f"estimate = {float(np.dot(weights, ys)):.12f}")
print("(the far-away output 100 contributes nothing)")

print()
print("the weights maximize an accuracy objective over the simplex:")
simplex_form = simplex_objective(weights, x, phis, config)
print(f"  achieved objective  = {simplex_form:.12f}")
optimum = grid_solve([x], phis, ys, config)[2][0]
print(f"  theoretical optimum = {optimum:.12f}")
uniform = [1.0 / 3.0] * 3
print(f"  uniform weights get = {simplex_objective(uniform, x, phis, config):.12f}")

print()
print("the signed form of the objective agrees on simplex inputs:")
signed_form = signed_objective(weights, x, phis, config)
print(f"  simplex form = {simplex_form:.15f}")
print(f"  signed form  = {signed_form:.15f}")
