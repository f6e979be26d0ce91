"""Command line for the windowed direct-weight estimator.

Four subcommands: ``fit`` answers a query grid from a CSV dataset with the
closed-form weights, ``stream`` folds the same data through the one-pass
estimator, ``simulate`` runs a seeded synthetic experiment from a JSON spec,
and ``verify`` certifies the closed form against the search oracles on
random instances.  Output is JSON lines by default or CSV on request, with
floats printed to 17 significant digits so reruns are byte-identical.

Exit codes: 0 on success, 1 on a verification failure, 2 on bad input or
configuration, and 141 (128 + SIGPIPE) when the reader of stdout closes it
early, as ``head`` does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import (
    EstimatorConfig,
    batch_weights,
    objective_value,
    optimal_objective,
    sorted_windows,
)
from .dataio import (  # noqa: F401  (read_samples: perfbench/tracer.py wraps it by name)
    InputFormatError,
    csv_row,
    iter_samples,
    json_record,
    parse_grid,
    parse_grid_list,
    read_arrays,
    read_samples,
)
from .oracle import maximize_signed, maximize_simplex, random_instance
from .simulate import load_spec, max_relative_deviation, run_experiment
from .streaming import StreamingGrid

__all__ = ["RunConfig", "build_parser", "main"]

# Largest tolerated relative disagreement between execution modes, and the
# certification tolerance for oracle-vs-closed-form objectives.
MODE_AGREEMENT_RTOL = 1e-10
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of options for the estimation commands."""

    command: str
    input_path: str
    config: EstimatorConfig
    grid: tuple[float, ...]
    output_format: str
    diagnostics: bool
    emit_every: int = 0

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("query grid must be nonempty")
        if self.emit_every < 0:
            raise ValueError("--emit-every must be >= 0")


def _add_estimation_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="CSV dataset with header k,phi,y")
    sub.add_argument("--delta", type=float, required=True, help="window half-width")
    sub.add_argument(
        "--l1",
        type=float,
        default=1.0,
        help="assumed Lipschitz constant (does not affect the weights)",
    )
    grid = sub.add_mutually_exclusive_group(required=True)
    grid.add_argument("--grid", help="query grid as min:max:count")
    grid.add_argument("--grid-list", help="comma-separated query points")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument(
        "--diagnostics", action="store_true", help="add support_sum and n_seen fields"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdwo",
        description="Windowed direct-weight estimation for 1-D regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="closed-form estimates over a query grid")
    _add_estimation_args(fit)
    fit.set_defaults(func=cmd_fit)

    stream = sub.add_parser("stream", help="one-pass estimates over a query grid")
    _add_estimation_args(stream)
    stream.add_argument(
        "--emit-every",
        type=int,
        default=0,
        metavar="N",
        help="also emit the current grid after every N samples",
    )
    stream.set_defaults(func=cmd_stream)

    sim = sub.add_parser("simulate", help="run a seeded synthetic experiment")
    sim.add_argument("--spec", required=True, help="experiment spec (JSON file)")
    sim.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser(
        "verify", help="certify the closed form against the search oracles"
    )
    ver.add_argument("--instances", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb the closed-form weights to prove the check can fail",
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def _emit(out: TextIO, fmt: str, header: Sequence[str], rows, *, with_header: bool) -> None:
    if fmt == "json":
        for row in rows:
            print(json_record(list(zip(header, row))), file=out)
    else:
        if with_header:
            print(",".join(header), file=out)
        for row in rows:
            print(csv_row(row), file=out)


def _estimation_run_config(args: argparse.Namespace) -> RunConfig:
    grid = parse_grid(args.grid) if args.grid else parse_grid_list(args.grid_list)
    return RunConfig(
        command=args.command,
        input_path=args.input,
        config=EstimatorConfig(delta=args.delta, l1=args.l1),
        grid=grid,
        output_format=args.format,
        diagnostics=args.diagnostics,
        emit_every=getattr(args, "emit_every", 0),
    )


def cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    rc = _estimation_run_config(args)
    phis, ys = read_arrays(rc.input_path)
    n = phis.size

    header = ["x", "estimate", "active_count", "objective"]
    if rc.diagnostics:
        header += ["support_sum", "n_seen"]
    rows = []
    windows = sorted_windows(np.asarray(rc.grid), phis, rc.config.delta)
    for x, (positions, support) in zip(rc.grid, windows):
        count = positions.size
        if count == 0:
            row = [x, None, 0, None]
            if rc.diagnostics:
                row += [None, n]
        else:
            total = float(np.sum(support))
            est = float(np.dot(support / total, ys[positions]))
            obj = math.sqrt(float(np.dot(support, support)))
            row = [x, est, count, obj]
            if rc.diagnostics:
                row += [total, n]
        rows.append(row)
    _emit(out, rc.output_format, header, rows, with_header=True)
    return 0


def _stream_rows(engine: StreamingGrid, rc: RunConfig, n_seen: int | None):
    ests = engine.estimates()
    objs = engine.objectives()
    counts = engine.active_counts()
    sums = engine.support_sums()
    rows = []
    for i, x in enumerate(engine.xs):
        supported = counts[i] > 0
        row = [
            float(x),
            float(ests[i]) if supported else None,
            int(counts[i]),
            float(objs[i]) if supported else None,
        ]
        if rc.diagnostics:
            row.append(float(sums[i]) if supported else None)
        if n_seen is not None:
            row.append(n_seen)
        rows.append(row)
    return rows


def cmd_stream(args: argparse.Namespace, out: TextIO) -> int:
    rc = _estimation_run_config(args)
    engine = StreamingGrid(np.asarray(rc.grid), rc.config)

    track_n = rc.emit_every > 0 or rc.diagnostics
    header = ["x", "estimate", "active_count", "objective"]
    if rc.diagnostics:
        header.append("support_sum")
    if track_n:
        header.append("n_seen")

    first_block = True
    count = 0
    for sample in iter_samples(rc.input_path):
        engine.update(sample.phi, sample.y)
        count += 1
        if rc.emit_every and count % rc.emit_every == 0:
            rows = _stream_rows(engine, rc, count if track_n else None)
            _emit(out, rc.output_format, header, rows, with_header=first_block)
            first_block = False
    rows = _stream_rows(engine, rc, count if track_n else None)
    _emit(out, rc.output_format, header, rows, with_header=first_block)
    return 0


def cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    batch = run_experiment(spec, "batch")
    streaming = run_experiment(spec, "streaming")
    deviation = max_relative_deviation(batch, streaming)
    failures = []
    if deviation > MODE_AGREEMENT_RTOL:
        failures.append(
            f"batch and streaming estimates disagree (max relative deviation {deviation:g})"
        )
    if batch.violation_count > 0:
        failures.append(f"{batch.violation_count} error-bound violation(s)")

    header = ["x", "truth", "estimate", "abs_error", "bound_z", "bound_holds", "active_count"]
    rows = [
        [r.x, r.truth, r.estimate, r.abs_error, r.bound_z, r.bound_holds, r.active_count]
        for r in batch.records
    ]
    if args.format == "json":
        for row in rows:
            print(json_record([("type", "query")] + list(zip(header, row))), file=out)
        print(
            json_record(
                [
                    ("type", "summary"),
                    ("supported_count", batch.supported_count),
                    ("no_support_count", batch.no_support_count),
                    ("violation_count", batch.violation_count),
                    ("mean_abs_error", batch.mean_abs_error),
                    ("max_abs_error", batch.max_abs_error),
                    ("mode_max_rel_dev", deviation),
                ]
            ),
            file=out,
        )
    else:
        _emit(out, "csv", header, rows, with_header=True)
        print(
            f"summary: supported={batch.supported_count} "
            f"no_support={batch.no_support_count} violations={batch.violation_count} "
            f"mode_max_rel_dev={deviation:g}",
            file=sys.stderr,
        )
    if failures:
        for failure in failures:
            print(f"verification failure: {failure}", file=sys.stderr)
        return 1
    return 0


def _perturbed_objective(x, samples, config, solution):
    """Shift a little mass off the best coordinate; must trip the check."""
    w = solution.weights.copy()
    src = int(np.argmax(w))
    zeros = np.nonzero(w == 0.0)[0]
    if zeros.size:
        dst = int(zeros[0])
    else:
        positive = np.nonzero(w > 0.0)[0]
        dst = int(positive[np.argmin(w[positive])])
        if dst == src:
            dst = int(positive[-1]) if positive[-1] != src else int(positive[0])
    w[src] -= 1e-3
    w[dst] += 1e-3
    return objective_value(w, x, samples, config)


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    header = [
        "instance",
        "n",
        "claimed",
        "simplex",
        "signed",
        "simplex_abs_dev",
        "signed_excess",
        "ok",
    ]
    rows = []
    failures = 0
    max_simplex_dev = 0.0
    max_signed_excess = -math.inf
    for i in range(args.instances):
        n = 2 + (i % 11)
        rng = np.random.default_rng([args.seed, i])
        x, samples, config = random_instance(rng, n_samples=n)
        solution = batch_weights(x, samples, config)
        if args.inject_fault:
            claimed = _perturbed_objective(x, samples, config, solution)
        else:
            claimed = optimal_objective(x, samples, config)
        simplex = maximize_simplex(x, samples, config, seed=i)
        signed = maximize_signed(x, samples, config, seed=i)
        simplex_dev = abs(claimed - simplex.objective)
        signed_excess = signed.objective - claimed
        ok = simplex_dev <= ORACLE_TOL and signed_excess <= ORACLE_TOL
        if not ok:
            failures += 1
        max_simplex_dev = max(max_simplex_dev, simplex_dev)
        max_signed_excess = max(max_signed_excess, signed_excess)
        rows.append(
            [i, n, claimed, simplex.objective, signed.objective, simplex_dev, signed_excess, ok]
        )
    if args.format == "json":
        for row in rows:
            print(json_record([("type", "instance")] + list(zip(header, row))), file=out)
        print(
            json_record(
                [
                    ("type", "summary"),
                    ("instances", args.instances),
                    ("failures", failures),
                    ("max_simplex_abs_dev", max_simplex_dev),
                    ("max_signed_excess", max_signed_excess),
                    ("fault_injected", args.inject_fault),
                ]
            ),
            file=out,
        )
    else:
        _emit(out, "csv", header, rows, with_header=True)
        print(
            f"summary: instances={args.instances} failures={failures} "
            f"max_simplex_abs_dev={max_simplex_dev:g} "
            f"max_signed_excess={max_signed_excess:g}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early, as in ``rdwo fit ... | head -1``.  Point the
        # stdout descriptor at the null device so the flush at exit cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
