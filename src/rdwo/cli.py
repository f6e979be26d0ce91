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
import contextlib
import dataclasses
import itertools
import os
import sys
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import dataio
from .core import EstimatorConfig, _readout, grid_solve
from .core import query_weights, simplex_objective
# iter_samples, read_samples and csv_row are unused here: fit and stream read
# through read_arrays and iter_runs, and every table prints through
# write_table.  perfbench/tracer.py still wraps the three by name in this
# module, so they stay bound until the tracer follows.
from .dataio import (  # noqa: F401
    can_split,
    csv_row,
    format_float,
    iter_runs,
    iter_samples,
    json_record,
    parse_grid,
    parse_grid_list,
    read_arrays,
    read_samples,
    write_table,
)
from .streaming import StreamingGrid

__all__ = ["build_parser", "main"]

# simulate.py loads on first use, so ``fit`` and ``stream`` never compile it.
# perfbench/tracer.py wraps these three names by attribute on this module, so
# they stay resolvable here, and ``cmd_simulate`` binds them on entry and
# calls what is bound, not a local import.
_SIMULATE_NAMES = ("load_spec", "max_relative_deviation", "run_experiment")


def _bind_simulate() -> None:
    """Bind ``_SIMULATE_NAMES`` here, keeping any name bound already."""
    from . import simulate

    for name in _SIMULATE_NAMES:
        globals().setdefault(name, getattr(simulate, name))


def __getattr__(name: str):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_simulate()
    return globals()[name]


# Largest tolerated relative disagreement between execution modes, and the
# certification tolerance for oracle-vs-closed-form objectives.
MODE_AGREEMENT_RTOL = 1e-10
ORACLE_TOL = 1e-6


def _add_estimation_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="CSV dataset with header k,phi,y")
    sub.add_argument("--delta", type=float, required=True, help="window half-width")
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


@contextlib.contextmanager
def _overflow_names(delta: float):
    """Raise a float overflow in the window arithmetic as a one-line error
    naming its causes, a large ``delta`` (margins reach it) or large outputs
    (a window's sum of scaled margin times output), rather than printing inf
    or a wrong estimate."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"the window arithmetic overflows at delta={delta!r}: "
                         "delta or the outputs are too large") from None


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
    ``--diagnostics``, and ``n_seen``, when given, is one literal field
    ending every line.

    Each point's ``x`` text is formatted once; every snapshot formats every
    point's line again.
    """

    def __init__(self, args: argparse.Namespace, xs: np.ndarray):
        self.fmt = args.format
        self.width = 5 if args.diagnostics else 4
        self.header = _GRID_HEADER[: self.width]
        self.kinds = "sfdff"[: self.width]
        self.x_cells = list(map(format_float, xs.tolist()))

    def write(self, out: TextIO, solution, n_seen: int | None, with_header: bool) -> None:
        write_table(
            out, self.fmt, self.header, self.kinds,
            [self.x_cells, *(column.tolist() for column in solution[: self.width - 1])],
            supported=(solution[1] > 0).tolist(), nullable=_GRID_NULLABLE,
            suffix=[] if n_seen is None else [("n_seen", n_seen)], with_header=with_header,
        )


def cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    """Read the input with :func:`~rdwo.dataio.read_arrays`, answer the query
    grid in closed form with :func:`~rdwo.core.grid_solve`, as the library
    and ``verify`` do, and print it."""
    grid = _query_grid(args)
    config = EstimatorConfig(delta=args.delta)
    phis, ys = read_arrays(args.input)
    with _overflow_names(config.delta):
        solution = grid_solve(grid, phis, ys, config)
    n_seen = phis.size if args.diagnostics else None
    _GridTable(args, grid).write(out, solution, n_seen, True)
    return 0


def cmd_stream(args: argparse.Namespace, out: TextIO) -> int:
    """Fold the input through a :class:`StreamingGrid`, a run of the
    reader's at a time, and print a snapshot of the grid after every
    ``--emit-every`` samples and at the end; memory follows the run, not
    ``--emit-every``.

    A snapshot travels as one record, ``n_seen`` and the grid's window-sum
    table (see :func:`_records`), read out once through ``core._readout``
    and printed by :meth:`_GridTable.write`.  On a large input with enough
    snapshots (see :func:`_stream_forks`), a forked child reads and folds
    the file and sends each record down a pipe, while this process prints
    them.  If the child does not finish, this process streams the file
    again from the start and prints the snapshots after those it has
    printed, so the output, the error line and the exit code are those of
    one process.
    """
    grid = _query_grid(args)
    config = EstimatorConfig(delta=args.delta)
    if args.emit_every < 0:
        raise ValueError("--emit-every must be >= 0")
    # The grid cuts its segments here, outside _overflow_names, and before a
    # fork, so a child inherits the cut; that arithmetic cannot overflow, as
    # only points with |x| <= 2^40 delta <= 2^1000 keep cores.
    engine = StreamingGrid(grid, config)
    table = _GridTable(args, engine.xs)
    track_n = args.emit_every > 0 or args.diagnostics
    points = engine.xs.size
    printed = 0

    def show(n_seen: int, sums: np.ndarray) -> None:
        nonlocal printed
        table.write(out, _readout(config.delta, *sums), n_seen if track_n else None, printed == 0)
        printed += 1

    with _overflow_names(config.delta):
        if not (_stream_forks(args, points) and _fork_records(args, engine, show)):
            for n_seen, sums in itertools.islice(_records(args, engine), printed, None):
                show(n_seen, sums)
    return 0


# The least number of table lines, snapshots times grid points, worth
# streaming in two processes.  See _stream_forks.
_STREAM_FORK_MIN_LINES = 6_000


def _stream_forks(args: argparse.Namespace, points: int) -> bool:
    """Whether ``stream`` reads and folds in a forked child: with
    ``--emit-every``, on a file :func:`~rdwo.dataio.can_split` admits, with
    at least ``_STREAM_FORK_MIN_LINES`` lines of snapshots, counted from the
    file's newlines.  The fork costs about 8 ms, which only the overlap of
    printing with reading pays back (CHANGES.md).  The count stops at
    ``every * ceil(least / points)`` newlines, where ``lines // every *
    points`` first reaches the least."""
    if args.emit_every <= 0 or not can_split(args.input):
        return False
    need = args.emit_every * -(-_STREAM_FORK_MIN_LINES // points)
    try:
        with open(args.input, "rb") as fh:
            counts = (block.count(b"\n") for block in iter(lambda: fh.read(1 << 16), b""))
            return any(lines >= need for lines in itertools.accumulate(counts, initial=0))
    except OSError:
        return False  # the reader names the error


def _records(args: argparse.Namespace, engine: StreamingGrid) -> Iterator[tuple[int, np.ndarray]]:
    """Fold the input into ``engine`` a run of :func:`~rdwo.dataio.iter_runs`
    at a time, cut where a snapshot falls, and yield the record of each
    snapshot: ``n_seen`` and ``engine.sums``."""
    every = args.emit_every
    room = every  # samples until the next snapshot
    for phis, ys in iter_runs(args.input):
        while every and phis.size >= room:
            engine.extend(phis[:room], ys[:room])
            yield engine.n_seen, engine.sums
            phis, ys, room = phis[room:], ys[room:], every
        engine.extend(phis, ys)
        room -= phis.size
    yield engine.n_seen, engine.sums


def _fork_records(args: argparse.Namespace, engine: StreamingGrid, show) -> bool:
    """Run :func:`_records` in a child forked by :func:`rdwo.dataio.beside`
    that writes each record to a pipe, ``n_seen`` as a float and then the
    table, and ``show`` each whole record here as it comes; whether the
    child finished.  ``engine`` is left as it was."""
    record = np.empty(1 + 4 * engine.xs.size)
    sums = record[1:].reshape(4, engine.xs.size)
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as source, open(write_end, "wb") as sink:

        def child() -> bool:
            source.close()
            for n_seen, table in _records(args, engine):
                sink.write(np.float64(n_seen))
                sink.write(table)
                sink.flush()
            return True

        def parent() -> None:
            sink.close()  # so the read ends when the child's end closes
            while source.readinto(record) == record.nbytes:
                show(int(record[0]), sums)

        return dataio.beside(child, parent)[1]


def cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    from .simulate import QUERY_HEADER, QUERY_KINDS, QUERY_NULLABLE

    _bind_simulate()
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    with _overflow_names(spec.config.delta):
        batch = run_experiment(spec)
        deviation = max_relative_deviation(batch, batch.stream_estimate)
    failures = []
    if deviation > MODE_AGREEMENT_RTOL:
        failures.append(
            f"batch and streaming estimates disagree (max relative deviation {deviation:g})"
        )
    supported = batch.active_count > 0
    if batch.violation_count > 0:
        violated = np.flatnonzero(supported & ~batch.bound_holds)
        worst = violated[np.argmax((batch.abs_error - batch.bound_z)[violated])]
        x, err, bound = (getattr(batch, key)[worst].item() for key in ("x", "abs_error", "bound_z"))
        failures.append(
            f"{batch.violation_count} error-bound violation(s), worst at x={x!r}: "
            f"abs_error={err!r} bound_z={bound!r} excess={err - bound!r}"
        )

    write_table(
        out, args.format, QUERY_HEADER, QUERY_KINDS,
        [getattr(batch, key).tolist() for key in QUERY_HEADER],
        supported=supported.tolist(), nullable=QUERY_NULLABLE, prefix=[("type", "query")],
    )
    summary = [
        ("supported_count", batch.supported_count),
        ("no_support_count", batch.no_support_count),
        ("violation_count", batch.violation_count),
        ("mean_abs_error", batch.mean_abs_error),
        ("max_abs_error", batch.max_abs_error),
        ("mode_max_rel_dev", deviation),
    ]
    text = (f"supported={batch.supported_count} no_support={batch.no_support_count} "
            f"violations={batch.violation_count} mode_max_rel_dev={deviation:g}")
    return _conclude(args.format, out, summary, text, failures)


def _conclude(fmt: str, out: TextIO, summary, text: str, failures) -> int:
    """End ``simulate`` or ``verify``: print the fields ``summary`` as a JSON
    record on ``out``, or ``text`` as a ``summary:`` line on stderr with
    ``--format csv``, then each of ``failures`` as a ``verification
    failure:`` line on stderr; exit 1 if there was any failure, else 0."""
    if fmt == "json":
        print(json_record([("type", "summary"), *summary]), file=out)
    else:
        print(f"summary: {text}", file=sys.stderr)
    for failure in failures:
        print(f"verification failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _perturbed_objective(x, phis, config):
    """Shift a little mass from the largest closed-form weight to the least,
    or to the last where all are equal; must trip the check."""
    w = query_weights(x, phis, config)
    src, dst = int(np.argmax(w)), int(np.argmin(w))
    if dst == src:
        dst = w.size - 1
    w[src] -= 1e-3
    w[dst] += 1e-3
    return simplex_objective(w, x, phis, config)


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    from .oracle import maximize_signed, maximize_simplex, random_instance

    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    header = ("instance", "n", "claimed", "simplex", "signed", "simplex_abs_dev",
              "signed_excess", "ok")
    rows = []
    for i in range(args.instances):
        n = 2 + (i % 11)
        rng = np.random.default_rng([args.seed, i])
        x, phis, config = random_instance(rng, n_samples=n)
        if args.inject_fault:
            claimed = _perturbed_objective(x, phis, config)
        else:
            claimed = float(grid_solve([x], phis, np.zeros(n), config)[2][0])
        simplex = maximize_simplex(x, phis, config).objective
        signed = maximize_signed(x, phis, config).objective
        dev, excess = abs(claimed - simplex), signed - claimed
        ok = dev <= ORACLE_TOL and excess <= ORACLE_TOL
        rows.append((i, n, claimed, simplex, signed, dev, excess, ok))
    failures = [f"instance {i} of seed {args.seed} (n={n}): "
                f"simplex_abs_dev={dev:.2g} signed_excess={excess:.2g}"
                for i, n, *_, dev, excess, ok in rows if not ok]
    columns = list(zip(*rows))
    write_table(out, args.format, header, "ddfffffb", columns, prefix=[("type", "instance")])
    max_dev, max_excess = max(columns[5]), max(columns[6])
    summary = [
        ("instances", args.instances),
        ("failures", len(failures)),
        ("max_simplex_abs_dev", max_dev),
        ("max_signed_excess", max_excess),
        ("fault_injected", args.inject_fault),
    ]
    text = (f"instances={args.instances} failures={len(failures)} "
            f"max_simplex_abs_dev={max_dev:g} max_signed_excess={max_excess:g}")
    return _conclude(args.format, out, summary, text, failures)


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is kept for a real verification failure, so a defect or an
        # input no check anticipated still exits 2, named by its type.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
