"""Outside-in span tracing of the names ``rdwo.cli`` calls into.

The tracer replaces names in the ``rdwo.cli`` namespace, and the methods of
``StreamingGrid`` on the class itself, with wrappers that record one span per
call.  Nothing under ``src/`` is edited.  Spans live in memory as plain lists
``[name, start, end, parent, info]`` and are written out once the run ends.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap and
their durations can simply be summed.
"""

from __future__ import annotations

import functools
import json
import time

# Names bound in ``rdwo.cli`` that the traced run wraps, with the function
# that extracts a count from a call's arguments and return value.  The names
# only ``verify`` calls (``batch_weights``, ``optimal_objective`` and the
# oracle) are left out: no workload runs ``verify`` (see README.md).  A call
# of an unwrapped name counts as self time of the span that makes it.
CLI_NAMES = {
    "read_samples": lambda a, k, r: len(r),
    "iter_samples": None,
    "json_record": None,
    "csv_row": None,
    "run_experiment": lambda a, k, r: r.supported_count,
    "max_relative_deviation": None,
    "load_spec": None,
}

# StreamingGrid methods that read the state; every other method writes it.
GRID_READS = {"estimates", "objectives", "active_counts", "support_sums"}


def _run_experiment_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "batch")
    return f"run_experiment:{mode}"


class Tracer:
    """Records nested spans; one instance per traced repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.grids: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn, count=None):
        """Wrap ``fn``; ``name`` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each ``next`` of the generator, not the consumer between them."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.spans[idx][4] = 1
                yield item

        return traced

    def install(self, cli, grid_cls):
        """Patch ``cli`` and ``grid_cls``; returns a function that undoes it."""
        saved = []
        for attr, count in CLI_NAMES.items():
            original = getattr(cli, attr)
            saved.append((cli, attr, original))
            if attr == "iter_samples":
                wrapped = self.wrap_generator(attr, original)
            elif attr == "run_experiment":
                wrapped = self.wrap(_run_experiment_name, original, count)
            else:
                wrapped = self.wrap(attr, original, count)
            setattr(cli, attr, wrapped)
        for attr, original in list(vars(grid_cls).items()):
            if not callable(original) or (attr.startswith("__") and attr != "__init__"):
                continue
            saved.append((grid_cls, attr, original))
            count = None
            if attr == "__init__":
                count = lambda a, k, r: self.grids.append(a[0])  # noqa: E731
            setattr(grid_cls, attr, self.wrap(f"StreamingGrid.{attr}", original, count))

        def uninstall():
            for owner, attr, original in saved:
                setattr(owner, attr, original)

        return uninstall

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, command: str) -> dict[str, float]:
    """Fold one traced repetition into the per-layer metrics.

    The root span is the whole ``main`` call.  For ``fit`` its self time is
    mostly the windowed solve, which ``cmd_fit`` does inline, so it is
    reported as ``core.window_s``; it also holds argument parsing, the
    conversion of the ``Sample`` list to arrays and the ``print`` of each
    row.  For the other commands it is ``cli.self_s``.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _, _), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)
    infos: dict[str, list] = {}
    for name, _, _, _, info in spans:
        if info is not None:
            infos.setdefault(name, []).append(info)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    root = self_s.get("main", 0.0)
    m: dict[str, float] = {}
    m["cli.self_s"] = 0.0 if command == "fit" else root
    m["core.window_s"] = root if command == "fit" else 0.0

    m["dataio.ingest_s"] = s("read_samples", "iter_samples")
    rows = sum(infos.get("read_samples", [])) + len(infos.get("iter_samples", []))
    m["dataio.rows_read"] = rows
    m["dataio.ingest_us_per_row"] = m["dataio.ingest_s"] / rows * 1e6 if rows else 0.0
    m["dataio.emit_s"] = s("json_record", "csv_row")
    m["dataio.records_written"] = c("json_record", "csv_row")

    grid_names = [n for n in self_s if n.startswith("StreamingGrid.")]
    reads = [f"StreamingGrid.{r}" for r in GRID_READS]
    m["streaming.update_s"] = s(*[n for n in grid_names if n not in reads])
    m["streaming.snapshot_s"] = s(*reads)
    m["streaming.updates"] = c("StreamingGrid.update")
    m["streaming.snapshots"] = c("StreamingGrid.estimates")
    updates = durations.get("StreamingGrid.update", [])
    m["streaming.update_us_p50"] = _percentile(updates, 0.50) * 1e6
    m["streaming.update_us_p99"] = _percentile(updates, 0.99) * 1e6
    absorbed = sum(int(g.n_active.sum()) for g in tracer.grids)
    offered = sum(int(g.n_seen) * g.xs.size for g in tracer.grids)
    m["streaming.absorb_fill"] = absorbed / offered if offered else 0.0

    m["simulate.batch_s"] = s("run_experiment:batch")
    m["simulate.streaming_s"] = s("run_experiment:streaming")
    m["simulate.compare_s"] = s("max_relative_deviation")
    m["simulate.load_spec_s"] = s("load_spec")
    m["simulate.queries_checked"] = sum(
        infos.get("run_experiment:batch", []) + infos.get("run_experiment:streaming", [])
    )

    m["trace.total_s"] = durations["main"][0]
    m["trace.layer_sum_s"] = (
        m["cli.self_s"]
        + m["core.window_s"]
        + m["dataio.ingest_s"]
        + m["dataio.emit_s"]
        + m["streaming.update_s"]
        + m["streaming.snapshot_s"]
        + m["simulate.batch_s"]
        + m["simulate.streaming_s"]
        + m["simulate.compare_s"]
        + m["simulate.load_spec_s"]
    )
    return m


def self_test() -> list[str]:
    """Check the self-time arithmetic on a synthetic nested call.

    A fake clock makes every span boundary an exact binary fraction:
    outer [0, 10] holds a [1, 4] and b [5, 7]; b holds c [5.5, 6.5].
    """
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 6.5, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    def b():
        tracer.call("c", leaf)

    def outer():
        tracer.call("a", leaf)
        tracer.call("b", b)

    tracer.call("outer", outer)
    got = dict(zip((sp[0] for sp in tracer.spans), self_times(tracer.spans)))
    want = {"outer": 5.0, "a": 3.0, "b": 1.0, "c": 1.0}
    return [] if got == want else [f"self-time arithmetic: got {got}, want {want}"]
