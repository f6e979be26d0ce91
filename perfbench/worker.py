"""One workload process: repeats ``rdwo.cli.main(argv)`` in-process.

Run as ``python3 perfbench/worker.py JOB.json RESULT.json``.  The job names
the checkout root, the CLI argv, the time budget and whether to trace.  Each
repetition sends stdout to a fresh file and is timed with ``perf_counter``
while :mod:`sampler` samples the host's speed.  The first repetition warms
caches and is checked but not timed into the medians.

With tracing on, untraced and traced repetitions alternate without the
sampler, so the tracing overhead is measured under the same host conditions
as the traced numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import sampler as sampling
import tracer as tracing

# Reference chunks run before each repetition of a traced run, where the
# sampler would add its time to whichever span is open.
PRE_CHUNKS = 8


def peak_rss_mib() -> float:
    """High-water resident set size of this process, in MiB.

    Read from ``VmHWM`` rather than ``ru_maxrss``: Linux carries the
    spawning process's peak into ``ru_maxrss`` across ``exec``, so that
    figure would grow with the benchmark's own parent process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import rdwo.cli as cli
    from rdwo.streaming import StreamingGrid

    if Path(cli.__file__).resolve().parent != (root / "src" / "rdwo").resolve():
        print(f"rdwo was imported from {cli.__file__}, not from the checkout", file=sys.stderr)
        return 2

    argv = job["argv"]
    command = argv[0]
    work = Path(job["work"])
    deadline = time.perf_counter() + job["seconds"]
    traced_mode = job["trace"]

    reps = []
    outputs: dict[str, str] = {}
    layers = []
    last_tracer = None
    sampler = sampling.Sampler()
    i = 0
    while True:
        traced = traced_mode and i % 2 == 1
        pre = [sampling.reference_chunk() for _ in range(PRE_CHUNKS)] if traced_mode else []
        out_path = work / f"out-{i}.txt"
        tracer = tracing.Tracer() if traced else None
        uninstall = tracer.install(cli, StreamingGrid) if traced else None
        saved_stdout = sys.stdout
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                sys.stdout = fh
                if not traced_mode:
                    sampler.start()
                t0 = time.perf_counter()
                if traced:
                    rc = tracer.call("main", cli.main, argv)
                else:
                    rc = cli.main(argv)
                fh.flush()
                seconds = time.perf_counter() - t0
                if traced_mode:
                    record = {"seconds": seconds, "handler_s": 0.0, "chunks": pre}
                else:
                    record = sampler.stop(seconds)
        finally:
            sys.stdout = saved_stdout
            if uninstall is not None:
                uninstall()
        digest = _sha256(out_path)
        if digest not in outputs:
            outputs[digest] = str(out_path)
        else:
            out_path.unlink()
        reps.append({**record, "rc": rc, "sha256": digest, "traced": traced})
        if traced:
            metrics = tracing.layer_metrics(tracer, command)
            metrics["dataio.bytes_written"] = os.path.getsize(outputs[digest])
            layers.append(metrics)
            last_tracer = tracer
        i += 1
        enough = i >= job["min_reps"] and (not traced_mode or i % 2 == 0)
        if enough and time.perf_counter() >= deadline:
            break

    if last_tracer is not None:
        last_tracer.write(work / "spans.jsonl")
    result = {
        "reps": reps,
        "outputs": outputs,
        "layers": layers,
        "peak_rss_mb": peak_rss_mib(),
        "self_test": tracing.self_test() if traced_mode else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
