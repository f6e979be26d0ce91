"""Benchmark of the rdwo CLI commands, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-grid --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads (``fit``, ``stream`` and
``simulate``) in turn.  The seed fixes every input.  Each workload runs in a
fresh single-threaded process (``perfbench/worker.py``) that repeats
``rdwo.cli.main(argv)`` until the time is up.  Every output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import sampler as sampling
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
MIN_REPS = 5  # including the warm-up repetition

END_TO_END_UNITS = {"run_s": "s", "run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "dataio.ingest_s": "s",
    "dataio.rows_read": "count",
    "dataio.ingest_us_per_row": "us",
    "dataio.emit_s": "s",
    "dataio.records_written": "count",
    "dataio.bytes_written": "bytes",
    "core.window_s": "s",
    "core.pairs_in_window": "count",
    "core.window_fill": "ratio",
    "streaming.update_s": "s",
    "streaming.updates": "count",
    "streaming.update_us_p50": "us",
    "streaming.update_us_p99": "us",
    "streaming.absorb_fill": "ratio",
    "streaming.snapshot_s": "s",
    "streaming.snapshots": "count",
    "simulate.batch_s": "s",
    "simulate.streaming_s": "s",
    "simulate.compare_s": "s",
    "simulate.load_spec_s": "s",
    "simulate.queries_checked": "count",
    "trace.total_s": "s",
    "trace.layer_sum_s": "s",
    "trace.overhead_ratio": "ratio",
    "bench.host_ref_s": "s",
    "src.lines": "lines",
}

# Single-threaded numeric libraries, a fixed hash seed, and no stray path.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

def setup_probes(timeout: float) -> list[dict]:
    """Sampled ``import rdwo.cli`` timings, each in a fresh interpreter."""
    probes = []
    for probe in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py"), str(ROOT / "src")],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            check=True,
            timeout=timeout,
        )
        if probe:  # the first probe may still be writing bytecode caches
            probes.append(json.loads(out.stdout))
    return probes


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, counts and any failure messages."""
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rng = np.random.default_rng([seed & 0xFFFFFFFF, list(workloads.WORKLOADS).index(name)])
        prepared = workloads.WORKLOADS[name](rng, work)
        setup = [] if trace else setup_probes(timeout=60)
        job = {
            "root": str(ROOT),
            "argv": prepared.argv,
            "work": str(work),
            "seconds": seconds,
            "trace": trace,
            "min_reps": MIN_REPS + (MIN_REPS if trace else 0),
        }
        (work / "job.json").write_text(json.dumps(job))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json"), str(work / "result.json")],
            env=CHILD_ENV,
            check=True,
            timeout=seconds + 120,
        )
        result = json.loads((work / "result.json").read_text())
        return _evaluate(prepared, result, setup, trace)
    finally:
        spans = work / "spans.jsonl"
        if spans.exists():
            spans.replace(HERE / "work" / f"spans-{name}.jsonl")
        shutil.rmtree(work, ignore_errors=True)


def _check(prepared, text: str) -> list[str]:
    try:
        return prepared.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _evaluate(prepared, result, setup, trace) -> dict:
    errors = list(result["self_test"])
    texts = {d: Path(p).read_text(encoding="utf-8") for d, p in result["outputs"].items()}
    verdicts = {d: _check(prepared, t) for d, t in texts.items()}
    for d, problems in verdicts.items():
        errors += problems[:5]
    reps = result["reps"]
    first = reps[0]["sha256"]
    if len(texts) > 1:
        errors.append(f"{len(texts)} distinct outputs; repetitions are not byte-identical")
    if {r["sha256"] for r in reps if r["traced"]} - {r["sha256"] for r in reps if not r["traced"]}:
        errors.append("self-test: traced stdout differs from untraced stdout")
    failed = sum(1 for r in reps if r["rc"] != 0 or verdicts[r["sha256"]] or r["sha256"] != first)
    if any(r["rc"] != 0 for r in reps):
        errors.append(f"exit codes {sorted({r['rc'] for r in reps})}")

    # The check must catch a corrupted record; otherwise it proves nothing.
    text = texts[first]
    bad = workloads.corrupted(text, prepared.corrupt_line, prepared.corrupt_field)
    if not _check(prepared, bad):
        errors.append("self-test: a corrupted output record passed the check")

    # Timings are medians of sampled intervals (see sampler.py), counted in
    # reference chunks; the seconds are those counts times sampler.CHUNK_S.
    plain = [r for r in reps[1:] if not r["traced"]]
    metrics: dict[str, float] = {}
    if not trace:
        metrics["run_ref"] = statistics.median(sampling.reference_units(r) for r in plain)
        metrics["run_s"] = metrics["run_ref"] * sampling.CHUNK_S
        setup_ref = statistics.median(sampling.reference_units(p) for p in setup)
        metrics["setup_s"] = setup_ref * sampling.CHUNK_S
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["wall_s"] = statistics.median(r["seconds"] - r["handler_s"] for r in plain)
    else:
        layers = result["layers"]
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        for i, m in enumerate(layers):
            if abs(m["trace.layer_sum_s"] - m["trace.total_s"]) > 1e-9 * m["trace.total_s"]:
                errors.append(f"traced repetition {i}: layer self times do not add up")
        fill = (0, 0.0) if verdicts[first] else prepared.window_fill(text)
        metrics["core.pairs_in_window"], metrics["core.window_fill"] = fill
        untraced = statistics.median(r["seconds"] for r in plain)
        metrics["trace.overhead_ratio"] = metrics["trace.total_s"] / untraced
        metrics["src.lines"] = src_lines()
    metrics["bench.host_ref_s"] = statistics.median(c for r in reps for c in r["chunks"])
    return {
        "metrics": metrics,
        "attempted": len(reps),
        "failed": failed,
        "errors": errors,
        "correct": not errors and failed == 0,
    }


def _print_workload(name: str, seed: int, res: dict, trace: bool) -> None:
    print(f"{name} (seed {seed}): {res['attempted']} repetitions, {res['failed']} failed")
    units = LAYER_UNITS if trace else {**END_TO_END_UNITS, "wall_s": "s", "bench.host_ref_s": "s"}
    for key, unit in units.items():
        print(f"  {key:28s} {res['metrics'][key]:.6g} {unit}")
    if not trace:
        print(f"  {'error_rate':28s} {res['failed'] / res['attempted']:.6g} failed/attempted")
    for error in res["errors"]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rdwo" / "cli.py").is_file():
        print(f"error: no rdwo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, trace)
        _print_workload(name, args.seed, results[name], trace)

    units = LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": res["metrics"][key], "unit": unit}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
