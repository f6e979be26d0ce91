"""Show that the one-pass streaming update reproduces the batch solution.

The estimate is a ratio of two window sums, so running sums of the margins
and of margin times output, updated as each sample arrives, are a complete
state.  This script streams a noisy sine dataset and compares against the
closed form at every checkpoint, then shuffles the stream to show order does
not matter.
"""

import numpy as np

from rdwo import EstimatorConfig, StreamingGrid, grid_solve, query_weights

rng = np.random.default_rng(11)
config = EstimatorConfig(delta=0.3, l1=1.0)
n = 5000
phis = rng.uniform(-3.0, 3.0, n)
ys = np.sin(phis) + rng.normal(0.0, 0.1, n)

# A grid of one query point, checked against the batch weights at a few prefixes.
x = 0.7
single = StreamingGrid([x], config)
print(f"streaming a single query point x = {x}:")
for k in (10, 100, 1000, n):
    single.extend(phis[single.n_seen : k], ys[single.n_seen : k])
    weights = query_weights(x, phis[:k], config)
    batch_est = float(np.dot(weights, ys[:k]))
    stream_est = float(single.estimates()[0])
    print(
        f"  after {k:5d} samples: stream = {stream_est:.12f}  "
        f"batch = {batch_est:.12f}  |diff| = {abs(stream_est - batch_est):.2e}"
    )
print(f"  active samples: stream = {single.active_counts()[0]}  "
      f"batch = {np.count_nonzero(weights)}")

# A whole grid of query points streamed at once.
xs = np.linspace(-2.5, 2.5, 11)
grid = StreamingGrid(xs, config)
grid.extend(phis, ys)
batch_est, batch_counts, _, _ = grid_solve(xs, phis, ys, config)
stream_est = grid.estimates()
print()
print("streaming the full grid:")
print(f"{'x':>6} {'stream':>16} {'batch':>16} {'actives':>8}")
for i, xq in enumerate(xs):
    print(f"{xq:6.2f} {stream_est[i]:16.10f} {batch_est[i]:16.10f} {batch_counts[i]:8d}")
rel = np.abs(stream_est - batch_est) / np.abs(batch_est)
print(f"max relative deviation: {float(np.max(rel)):.2e}")

# Order invariance: shuffle the stream, estimates stay put.
perm = rng.permutation(n)
shuffled = StreamingGrid(xs, config)
shuffled.extend(phis[perm], ys[perm])
drift = np.abs(shuffled.estimates() - stream_est) / np.abs(stream_est)
print(f"after shuffling the stream: max relative deviation = {float(np.max(drift)):.2e}")
