"""Command line for the windowed direct-weight estimator.

Four subcommands: ``fit`` answers a query grid from a CSV dataset with the
closed-form weights, ``stream`` folds the same data through the one-pass
estimator, ``simulate`` runs a seeded synthetic experiment from a JSON spec,
and ``verify`` certifies the closed form against the search oracles on
random instances.  Output is JSON lines by default or CSV on request, with
floats printed to 17 significant digits so reruns are byte-identical.

Exit codes: 0 on success, 1 on a verification failure only, 2 on bad input,
configuration or any other error, and 141 (128 + SIGPIPE) when the reader of
stdout closes it early, as ``head`` does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Sequence, TextIO

import numpy as np

from .core import (
    EstimatorConfig,
    batch_weights,
    grid_solve,
    objective_value,
    optimal_objective,
)
# iter_samples, read_samples and csv_row are unused here: fit and stream read
# through read_arrays and iter_blocks, and tables print through format_rows.
# perfbench/tracer.py still wraps the three by name in this module, so they
# stay bound until the tracer follows.
from .dataio import (  # noqa: F401
    InputFormatError,
    csv_row,
    format_float,
    format_heads,
    format_rows,
    iter_blocks,
    iter_samples,
    join_lines,
    json_record,
    line_tail,
    parse_grid,
    parse_grid_list,
    read_arrays,
    read_samples,
)
from .oracle import maximize_signed, maximize_simplex, random_instance
from .simulate import (
    load_spec,
    max_relative_deviation,
    run_experiment,
    stream_estimates,
)
from .streaming import StreamingGrid

__all__ = ["build_parser", "main"]

# Largest tolerated relative disagreement between execution modes, and the
# certification tolerance for oracle-vs-closed-form objectives.
MODE_AGREEMENT_RTOL = 1e-10
ORACLE_TOL = 1e-6

# Rows `stream` reads and folds at once when no --emit-every is given.
STREAM_BLOCK_ROWS = 1024


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


def _emit(out: TextIO, fmt: str, header, kinds: str, columns, *, with_header=True, **rows):
    """Write a table: the CSV header line if asked for, then the texts of
    :func:`~rdwo.dataio.format_rows`."""
    if fmt == "csv" and with_header:
        out.write(",".join(header) + "\n")
    for text in format_rows(fmt, header, kinds, columns, **rows):
        out.write(text)


def _query_grid(args: argparse.Namespace) -> np.ndarray:
    return np.asarray(parse_grid(args.grid) if args.grid else parse_grid_list(args.grid_list))


# The columns of a grid table, the last only with --diagnostics, and those a
# point with no sample in its window prints null.
_GRID_HEADER = ("x", "estimate", "active_count", "objective", "support_sum")
_GRID_NULLABLE = ("estimate", "objective", "support_sum")


class _GridTable:
    """The grid table of ``fit`` and ``stream``, printed once or per snapshot.

    A snapshot is a ``solution``: the per-point estimates, active counts,
    objectives and support sums.  ``support_sum`` is a column with
    ``--diagnostics``, and ``n_seen``, when given, is one literal tail
    joined onto every line.

    With ``keep``, each point's ``x`` text is formatted once, and the table
    keeps each point's line up to that tail (its head) between snapshots.
    A snapshot formats a head again only when the point's active count
    moved: a point that absorbed no sample has the same support sum,
    estimate and sum of squares, bit for bit.  Without ``keep``, as for
    ``fit``'s one table, lines are formatted a text at a time, ``x`` as a
    float cell, and none is kept.
    """

    def __init__(self, args: argparse.Namespace, xs: np.ndarray, keep: bool):
        self.fmt = args.format
        self.width = 5 if args.diagnostics else 4
        self.header = _GRID_HEADER[: self.width]
        self.heads = None
        if keep:
            self.x_cells = np.array(list(map(format_float, xs.tolist())), dtype=object)
            self.kinds = "sfdff"[: self.width]
            self.heads = np.empty(xs.size, dtype=object)
            self.counts = np.full(xs.size, -1)
        else:
            self.x_cells, self.kinds = xs, "ffdff"[: self.width]

    def write(self, out: TextIO, solution, n_seen: int | None, with_header: bool) -> None:
        suffix = [] if n_seen is None else [("n_seen", n_seen)]
        if self.fmt == "csv" and with_header:
            out.write(",".join([*self.header, *(key for key, _ in suffix)]) + "\n")
        counts = solution[1]
        cells = (self.x_cells, *solution)[: self.width]
        if self.heads is None:
            texts = format_rows(
                self.fmt, self.header, self.kinds, [column.tolist() for column in cells],
                supported=(counts > 0).tolist(), nullable=_GRID_NULLABLE, suffix=suffix,
            )
        else:
            changed = np.flatnonzero(counts != self.counts)
            self.counts = counts
            if changed.size:
                # Free the stale lines first, so that their memory takes the new ones.
                self.heads[changed] = None
                self.heads[changed] = format_heads(
                    self.fmt, self.header, self.kinds,
                    [column[changed].tolist() for column in cells],
                    supported=(counts[changed] > 0).tolist(), nullable=_GRID_NULLABLE,
                )
            texts = join_lines(self.heads.tolist(), line_tail(self.fmt, suffix))
        for text in texts:
            out.write(text)


def cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    grid = _query_grid(args)
    config = EstimatorConfig(delta=args.delta, l1=args.l1)
    phis, ys = read_arrays(args.input)
    solution = grid_solve(grid, phis, ys, config)
    n_seen = phis.size if args.diagnostics else None
    _GridTable(args, grid, keep=False).write(out, solution, n_seen, True)
    return 0


def cmd_stream(args: argparse.Namespace, out: TextIO) -> int:
    grid = _query_grid(args)
    config = EstimatorConfig(delta=args.delta, l1=args.l1)
    if args.emit_every < 0:
        raise ValueError("--emit-every must be >= 0")
    engine = StreamingGrid(grid, config)
    table = _GridTable(args, engine.xs, keep=args.emit_every > 0)
    track_n = args.emit_every > 0 or args.diagnostics

    def emit(n_seen: int | None, with_header: bool) -> None:
        solution = (
            engine.estimates(),
            engine.active_counts(),
            engine.objectives(),
            engine.support_sums(),
        )
        table.write(out, solution, n_seen, with_header)

    first_block = True
    for phis, ys in iter_blocks(args.input, args.emit_every or STREAM_BLOCK_ROWS):
        engine.extend(phis, ys)
        if phis.size == args.emit_every:
            emit(engine.n_seen, first_block)
            first_block = False
    emit(engine.n_seen if track_n else None, first_block)
    return 0


# The fields of a simulate query record, as QueryRecord.to_dict orders them,
# with their column kinds.
_QUERY_COLUMNS = (
    ("x", "f"),
    ("truth", "f"),
    ("estimate", "f"),
    ("abs_error", "f"),
    ("bound_z", "f"),
    ("bound_holds", "b"),
    ("active_count", "d"),
)


def cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    batch = run_experiment(spec)
    deviation = max_relative_deviation(batch, stream_estimates(spec))
    failures = []
    if deviation > MODE_AGREEMENT_RTOL:
        failures.append(
            f"batch and streaming estimates disagree (max relative deviation {deviation:g})"
        )
    if batch.violation_count > 0:
        worst = max(
            (r for r in batch.records if r.bound_holds is False),
            key=lambda r: r.abs_error - r.bound_z,
        )
        failures.append(
            f"{batch.violation_count} error-bound violation(s), worst at x={worst.x!r}: "
            f"abs_error={worst.abs_error!r} bound_z={worst.bound_z!r} "
            f"excess={worst.abs_error - worst.bound_z!r}"
        )

    records = batch.records
    _emit(
        out,
        args.format,
        [key for key, _ in _QUERY_COLUMNS],
        "".join(kind for _, kind in _QUERY_COLUMNS),
        [[getattr(record, key) for record in records] for key, _ in _QUERY_COLUMNS],
        supported=[record.estimate is not None for record in records],
        nullable=("estimate", "abs_error", "bound_z", "bound_holds"),
        prefix=[("type", "query")],
    )
    if args.format == "json":
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
    failures = []
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
        simplex = maximize_simplex(x, samples, config)
        signed = maximize_signed(x, samples, config)
        simplex_dev = abs(claimed - simplex.objective)
        signed_excess = signed.objective - claimed
        ok = simplex_dev <= ORACLE_TOL and signed_excess <= ORACLE_TOL
        if not ok:
            failures.append(
                f"instance {i} of seed {args.seed} (n={n}): "
                f"simplex_abs_dev={simplex_dev:.2g} signed_excess={signed_excess:.2g}"
            )
        max_simplex_dev = max(max_simplex_dev, simplex_dev)
        max_signed_excess = max(max_signed_excess, signed_excess)
        rows.append(
            [i, n, claimed, simplex.objective, signed.objective, simplex_dev, signed_excess, ok]
        )
    _emit(out, args.format, header, "ddfffffb", list(zip(*rows)), prefix=[("type", "instance")])
    if args.format == "json":
        print(
            json_record(
                [
                    ("type", "summary"),
                    ("instances", args.instances),
                    ("failures", len(failures)),
                    ("max_simplex_abs_dev", max_simplex_dev),
                    ("max_signed_excess", max_signed_excess),
                    ("fault_injected", args.inject_fault),
                ]
            ),
            file=out,
        )
    else:
        print(
            f"summary: instances={args.instances} failures={len(failures)} "
            f"max_simplex_abs_dev={max_simplex_dev:g} "
            f"max_signed_excess={max_signed_excess:g}",
            file=sys.stderr,
        )
    for failure in failures:
        print(f"verification failure: {failure}", file=sys.stderr)
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
    except Exception as exc:
        # Exit 1 is kept for a real verification failure, so a defect or an
        # input no check anticipated still exits 2, named by its type.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
