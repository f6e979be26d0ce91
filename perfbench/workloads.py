"""Seeded inputs for the three workloads and independent checks of their outputs.

All data is ``sin(phi)`` plus N(0, 0.1) noise with ``phi`` uniform on
[-3, 3].  Every check recomputes a seeded subset of the output with a
brute-force numpy reference that shares no code with ``rdwo``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Mirrors rdwo.cli.MODE_AGREEMENT_RTOL; fixed here so that a change to the
# program cannot loosen the benchmark's own check.
RTOL = 1e-10
CHECKED_QUERIES = 64
NOISE_SIGMA = 0.1
RANGE = (-3.0, 3.0)

# Sizes.  Ingest and emit scale with N, the window solve and the streaming
# update with N * G, so scaling N alone keeps each workload's layer shares.
FIT_N, FIT_G, FIT_DELTA = 100_000, 2000, 0.05
STREAM_N, STREAM_G, STREAM_DELTA, STREAM_EVERY = 20_000, 1000, 0.05, 1000
SIM_N, SIM_G, SIM_DELTA, SIM_GRID = 30_000, 1000, 0.5, (-2.9, 2.9)


@dataclass
class Prepared:
    argv: list[str]
    check: Callable[[str], list[str]]
    corrupt_line: int  # a line the check verifies strictly
    corrupt_field: str
    window_fill: Callable[[str], tuple[int, float]]


def _sine(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    phi = rng.uniform(*RANGE, n)
    return phi, np.sin(phi) + rng.normal(0.0, NOISE_SIGMA, n)


def _write_csv(path: Path, phi: np.ndarray, y: np.ndarray) -> None:
    rows = (f"{k},{p!r},{v!r}" for k, (p, v) in enumerate(zip(phi.tolist(), y.tolist()), 1))
    path.write_text("k,phi,y\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _reference(x: float, phi: np.ndarray, y: np.ndarray, delta: float):
    """Brute-force window estimate: (count, estimate, |estimate| scale, objective)."""
    margin = delta - np.abs(x - phi)
    inside = margin > 0.0
    w = margin[inside]
    if w.size == 0:
        return 0, None, 0.0, None
    total = w.sum()
    est = float((w * y[inside]).sum() / total)
    scale = float((w * np.abs(y[inside])).sum() / total)
    return int(w.size), est, scale, float(np.sqrt((w * w).sum()))


def _parse(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _check_rows(rows, grid, subset, phi, y, delta, what, objective=True) -> list[str]:
    errors = []
    if len(rows) != len(grid):
        return [f"{what}: {len(rows)} rows, expected {len(grid)}"]
    for i, row in enumerate(rows):
        if row.get("x") != grid[i]:
            return [f"{what} row {i}: x={row.get('x')!r}, expected {grid[i]!r}"]
    for i in subset:
        row = rows[i]
        count, est, scale, obj = _reference(grid[i], phi, y, delta)
        if row["active_count"] != count:
            errors.append(f"{what} row {i}: active_count {row['active_count']} != {count}")
        if count == 0:
            if row["estimate"] is not None:
                errors.append(f"{what} row {i}: estimate without support")
            continue
        if row["estimate"] is None or abs(row["estimate"] - est) > RTOL * scale:
            errors.append(f"{what} row {i}: estimate {row['estimate']!r} != {est!r}")
        if objective and (row["objective"] is None or abs(row["objective"] - obj) > RTOL * obj):
            errors.append(f"{what} row {i}: objective {row['objective']!r} != {obj!r}")
    return errors


def _grid(lo: float, hi: float, count: int) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, count)]


def _subset(rng: np.random.Generator, count: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(count, size=CHECKED_QUERIES, replace=False))


def _fill(rows: list[dict], n: int) -> tuple[int, float]:
    pairs = sum(r["active_count"] for r in rows)
    return pairs, pairs / (len(rows) * n)


def fit_grid(rng: np.random.Generator, work: Path) -> Prepared:
    phi, y = _sine(rng, FIT_N)
    path = work / "fit.csv"
    _write_csv(path, phi, y)
    grid = _grid(RANGE[0], RANGE[1], FIT_G)
    subset = _subset(rng, FIT_G)

    def check(text: str) -> list[str]:
        return _check_rows(_parse(text), grid, subset, phi, y, FIT_DELTA, "fit")

    return Prepared(
        argv=["fit", "--input", str(path), f"--delta={FIT_DELTA}", f"--grid=-3:3:{FIT_G}"],
        check=check,
        corrupt_line=subset[0],
        corrupt_field="estimate",
        window_fill=lambda text: _fill(_parse(text), FIT_N),
    )


def stream_snapshots(rng: np.random.Generator, work: Path) -> Prepared:
    phi, y = _sine(rng, STREAM_N)
    path = work / "stream.csv"
    _write_csv(path, phi, y)
    grid = _grid(RANGE[0], RANGE[1], STREAM_G)
    subset = _subset(rng, STREAM_G)
    blocks = STREAM_N // STREAM_EVERY + 1
    final = (blocks - 1) * STREAM_G

    def check(text: str) -> list[str]:
        rows = _parse(text)
        if len(rows) != blocks * STREAM_G:
            return [f"stream: {len(rows)} records, expected {blocks * STREAM_G}"]
        for b in range(blocks):
            seen = min((b + 1) * STREAM_EVERY, STREAM_N)
            block = rows[b * STREAM_G : (b + 1) * STREAM_G]
            if any(r["n_seen"] != seen for r in block):
                return [f"stream block {b}: n_seen is not {seen}"]
        return _check_rows(rows[final:], grid, subset, phi, y, STREAM_DELTA, "stream final")

    return Prepared(
        argv=[
            "stream",
            "--input",
            str(path),
            f"--delta={STREAM_DELTA}",
            f"--grid=-3:3:{STREAM_G}",
            f"--emit-every={STREAM_EVERY}",
        ],
        check=check,
        corrupt_line=final + subset[0],
        corrupt_field="estimate",
        window_fill=lambda text: _fill(_parse(text)[final:], STREAM_N),
    )


def simulate_wide(rng: np.random.Generator, work: Path) -> Prepared:
    spec = {
        "function": {"kind": "sine", "amplitude": 1.0, "frequency": 1.0},
        "delta": SIM_DELTA,
        "l1": 1.0,
        "input_range": list(RANGE),
        "noise_sigma": NOISE_SIGMA,
        "n_samples": SIM_N,
        "seed": 0,
        "query_grid": {"min": SIM_GRID[0], "max": SIM_GRID[1], "count": SIM_G},
    }
    path = work / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    sim_seed = int(rng.integers(0, 2**31))
    # The spec's dataset, drawn the way the experiment documents it: phi
    # first, then the noise, from one generator seeded with the spec's seed.
    data_rng = np.random.default_rng(sim_seed)
    phi = data_rng.uniform(*RANGE, SIM_N)
    noise = data_rng.normal(0.0, NOISE_SIGMA, SIM_N)
    y = np.sin(phi) + noise
    grid = _grid(SIM_GRID[0], SIM_GRID[1], SIM_G)
    subset = _subset(rng, SIM_G)

    def check(text: str) -> list[str]:
        rows = _parse(text)
        if len(rows) != SIM_G + 1 or rows[-1].get("type") != "summary":
            return [f"simulate: {len(rows)} records, expected {SIM_G} queries and a summary"]
        queries, summary = rows[:-1], rows[-1]
        errors = _check_rows(queries, grid, subset, phi, y, SIM_DELTA, "simulate", False)
        for i in subset:
            row = queries[i]
            if row["estimate"] is not None and row["truth"] != float(np.sin(grid[i])):
                errors.append(f"simulate row {i}: truth {row['truth']!r}")
        if any(r["bound_holds"] is False for r in queries):
            errors.append("simulate: a query reports a violated error bound")
        if summary["violation_count"] != 0:
            errors.append(f"simulate: violation_count {summary['violation_count']}")
        if not summary["mode_max_rel_dev"] <= RTOL:
            errors.append(f"simulate: mode_max_rel_dev {summary['mode_max_rel_dev']!r}")
        supported = sum(r["estimate"] is not None for r in queries)
        if summary["supported_count"] != supported:
            errors.append("simulate: supported_count disagrees with the query records")
        return errors

    return Prepared(
        argv=["simulate", "--spec", str(path), f"--seed={sim_seed}"],
        check=check,
        corrupt_line=subset[0],
        corrupt_field="estimate",
        window_fill=lambda text: _fill(_parse(text)[:-1], SIM_N),
    )


WORKLOADS = {
    "fit-grid": fit_grid,
    "stream-snapshots": stream_snapshots,
    "simulate-wide": simulate_wide,
}


def corrupted(text: str, line: int, field: str) -> str:
    """The output with one field of one record nudged by a relative 1e-6."""
    lines = text.splitlines()
    record = json.loads(lines[line])
    record[field] = record[field] * (1.0 + 1e-6) + 1e-6
    lines[line] = json.dumps(record)
    return "\n".join(lines) + "\n"
