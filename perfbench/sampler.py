"""Host-speed sampling with a reference loop that runs inside the timed code.

The host this benchmark runs on slows down in bursts of tens of
milliseconds, by up to 2x, and by how much varies from minute to minute.  A
reference loop timed before or after a repetition samples other moments than
the repetition itself.  So the :class:`Sampler` runs a short reference chunk
from a SIGALRM handler every ``INTERVAL`` seconds of wall time *during* the
timed code.  The chunk durations then trace the host's speed over the same
interval, and the handler's own time is subtracted afterwards.

The chunk is pure Python: it needs no numpy, so the import probe can use it
before ``import rdwo.cli`` without importing numpy early.  It touches nothing
of rdwo, so the program cannot change it.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.005
REF_ROUNDS = 1000
# Fixed nominal chunk length that turns chunk counts into seconds-like
# figures.  It is a round number of the chunk's size: per-run median chunk
# durations were 132 to 249 us on the 2.1 GHz Xeon VM used for tuning.  It is
# not a measured undisturbed duration, so the product is not a wall time.
CHUNK_S = 1.25e-4


def reference_chunk() -> float:
    """Duration of one fixed slice of interpreter arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    x = 0.5
    for i in range(REF_ROUNDS):
        acc += (i * 7) ^ (acc & 0xFF)
        x = x * 1.0000001 + 0.25 / (i + 1.0)
    return time.perf_counter() - t0


class Sampler:
    """Collects reference-chunk durations while it is running."""

    def __init__(self):
        self.chunks: list[float] = []
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.chunks.append(reference_chunk())
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.chunks = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self, seconds: float) -> dict:
        """Stop sampling; returns the interval's wall seconds, handler seconds and chunks."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {"seconds": seconds, "handler_s": self.handler_s, "chunks": self.chunks}


def reference_units(record: dict) -> float:
    """Length of a sampled interval, counted in reference chunks.

    Each chunk's duration gives the host's speed at that moment, so the
    interval's own time, less the handler's, times the mean chunk rate is the
    number of chunks the host would have run in its place.  A host slowdown
    that stretches the timed code and the chunk alike cancels; one that hits
    them unequally does not (see README.md, Steadiness).
    """
    chunks = record["chunks"]
    if not chunks:
        raise ValueError("interval too short to be sampled")
    net = record["seconds"] - record["handler_s"]
    return net * sum(1.0 / c for c in chunks) / len(chunks)
