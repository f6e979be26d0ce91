"""Run-to-run steadiness of the end-to-end metrics across seeds and host states.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py perfbench/STEADINESS.json

Runs every workload once for each of seeds 1 to 10, for ``run_seconds`` from
``BENCHMARK.json``, the way ``run.py --trace 0`` does, and appends the result
to the file as one more *set*.  A set records, for each end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
sample count and the spread ``(q3 - q1) / median``, next to each run's
``wall_s``, ``bench.host_ref_s`` and elapsed time.

Across all sets in the file it then records, per workload, how far each
metric's median moved between sets (``set_shift``) and how ``run_ref``
follows the host's speed (``host_sensitivity``): the slope of
``log(run_ref)`` against ``log(bench.host_ref_s)`` within each seed, so
seed-to-seed differences in work do not enter.  Slope 0 means the reference
chunk cancels a host slowdown exactly; a positive slope means the workload
slows down more than the chunk, a negative one less.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import run
import workloads

SEEDS = range(1, 11)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median,
    }


def host_sensitivity(runs: list[dict]) -> dict:
    """Within-seed slope of log(run_ref) on log(bench.host_ref_s)."""
    by_seed: dict[int, list[tuple[float, float]]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(
            (math.log(r["bench.host_ref_s"]), math.log(r["run_ref"]))
        )
    sxx = sxy = 0.0
    for points in by_seed.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    host = [r["bench.host_ref_s"] for r in runs]
    lo, hi = min(host), max(host)
    slope = sxy / sxx if sxx > 0 else None
    return {
        "runs": len(runs),
        "host_ref_us_min": lo * 1e6,
        "host_ref_us_max": hi * 1e6,
        "run_ref_slope": slope,
        # Predicted change of run_ref from the quietest to the slowest host seen.
        "run_ref_change_over_range": None if slope is None else (hi / lo) ** slope - 1.0,
    }


def measure_set(seconds: float) -> tuple[dict, bool]:
    result: dict = {"finished": None, "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            res = run.run_workload(name, seed, seconds, trace=False)
            elapsed = time.perf_counter() - t0
            ok = ok and res["correct"]
            runs.append({"seed": seed, "correct": res["correct"], **res["metrics"], "elapsed_s": elapsed})
            print(name, json.dumps(runs[-1]), flush=True)
        stats = {k: summarize([r[k] for r in runs]) for k in run.END_TO_END_UNITS}
        result["workloads"][name] = {"metrics": stats, "runs": runs}
        for key, s in stats.items():
            print(f"{name} {key}: median {s['median']:.6g} spread {s['spread']:.4f} (n={s['n']})")
    result["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return result, ok


def compare_sets(sets: list[dict]) -> tuple[dict, dict]:
    shifts: dict = {}
    sensitivity: dict = {}
    for name in workloads.WORKLOADS:
        present = [s["workloads"][name] for s in sets if name in s["workloads"]]
        shifts[name] = {}
        for key in run.END_TO_END_UNITS:
            medians = [w["metrics"][key]["median"] for w in present]
            shifts[name][key] = max(medians) / min(medians) - 1.0
        sensitivity[name] = host_sensitivity([r for w in present for r in w["runs"]])
    return shifts, sensitivity


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = json.loads(out.read_text()) if out.exists() else {"run_seconds": seconds, "seeds": list(SEEDS), "sets": []}
    if report["run_seconds"] != seconds:
        print(f"error: {out} holds sets of {report['run_seconds']} s runs, not {seconds} s", file=sys.stderr)
        return 2

    new_set, ok = measure_set(seconds)
    report["sets"].append(new_set)
    report["set_shift"], report["host_sensitivity"] = compare_sets(report["sets"])
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, sens in report["host_sensitivity"].items():
        print(f"{name}: run_ref slope on host_ref {sens['run_ref_slope']}, set shifts {report['set_shift'][name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
