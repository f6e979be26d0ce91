"""One task on two CPUs: a forked child does one part beside the caller.

The child writes its results into an anonymous map made before the fork,
which it shares with the parent, or into a pipe the parent reads, and
reports by exit status.  If :func:`beside` says the child did not finish,
the caller does the work again itself (``dataio`` the child's half of the
file, ``stream`` the snapshots it has not printed), so every result is the
one a single process gives.

``dataio.read_arrays``, which ``fit`` calls, parses the second half of a
large CSV file in the child, and ``stream --emit-every`` reads and folds a
large CSV file in the child while the parent prints each snapshot the child
sends.  ``dataio`` and ``cli`` load this module only when they are about to
fork, and the gate :func:`rdwo.dataio.can_split` lives in ``dataio``, so
that ``import rdwo.cli`` and small or single-CPU runs never load it or
``mmap``.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import warnings
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def shared_floats(shape: tuple[int, ...]) -> np.ndarray:
    """A float array of ``shape``, at least one element, in an anonymous map
    that a child forked after this call writes to and the parent reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def beside(child: Callable[[], bool], parent: Callable[[], T]) -> tuple[T, bool]:
    """Run ``child()`` in a forked child while ``parent()`` runs here; the
    result of ``parent()``, and whether ``child()`` returned true.

    The child never returns into the caller's stack: every way out of it
    ends in ``os._exit``, which also skips the buffers and exit handlers it
    shares with the parent.  A warning raises in the child, so that only the
    parent writes to stderr.  If the fork fails, ``parent()`` runs alone and
    the child's part counts as not done.  If ``parent()`` raises, the child
    is killed and reaped first.
    """
    try:
        pid = os.fork()
    except OSError:
        return parent(), False
    if pid == 0:
        code = 1
        try:
            warnings.simplefilter("error")
            if child():
                code = 0
        finally:
            os._exit(code)
    try:
        result = parent()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return result, status == 0

