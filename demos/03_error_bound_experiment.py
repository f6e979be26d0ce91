"""Run a seeded synthetic experiment and check the computable error bound.

For every supported query the harness evaluates a bound built from the
weights, the assumed Lipschitz constant, and the realized noises; the true
squared error can never exceed the bound squared.  Without noise the bound
collapses to l1 * delta.
"""

import pathlib

import rdwo
from rdwo.simulate import QUERY_HEADER

spec_path = pathlib.Path(__file__).parent / "data" / "sine_experiment.json"
spec = rdwo.load_spec(spec_path)
print(f"experiment: {spec.function} on {spec.input_range}, "
      f"n = {spec.n_samples}, noise sigma = {spec.noise_sigma}, seed = {spec.seed}")
print(f"estimator: delta = {spec.config.delta}, l1 = {spec.config.l1}")
print()

# The report holds one array per query column, in QUERY_HEADER order; an
# active_count of 0 marks a query with no sample in its window.
report = rdwo.run_experiment(spec)
print(f"{'x':>6} {'truth':>9} {'estimate':>9} {'|error|':>9} {'bound z':>9}  ok")
for x, truth, est, err, bound, holds, count in zip(
    *(getattr(report, column).tolist() for column in QUERY_HEADER)
):
    if count == 0:
        print(f"{x:6.2f} {truth:9.4f} {'-':>9} {'-':>9} {'-':>9}  no support")
        continue
    print(f"{x:6.2f} {truth:9.4f} {est:9.4f} {err:9.4f} {bound:9.4f}  {holds}")
print()
print(f"supported queries : {report.supported_count}")
print(f"bound violations  : {report.violation_count}")
print(f"mean |error|      : {report.mean_abs_error:.5f}")
print(f"max  |error|      : {report.max_abs_error:.5f}")

# The same run streamed the same seeded data once, in sample order; its
# estimates, in report.stream_estimate, must reproduce the batch ones.
dev = rdwo.max_relative_deviation(report, report.stream_estimate)
print(f"batch vs streaming: max relative deviation = {dev:.2e}")

# Noiseless collapse: with sigma = 0 every error is below l1 * delta.
import dataclasses

quiet = dataclasses.replace(spec, noise_sigma=0.0)
quiet_report = rdwo.run_experiment(quiet)
cap = quiet.config.l1 * quiet.config.delta
print()
print(f"noiseless rerun: max |error| = {quiet_report.max_abs_error:.5f} "
      f"<= l1 * delta = {cap}")
