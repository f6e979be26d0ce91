"""Time ``import rdwo.cli`` in this fresh interpreter, with the host sampled.

Run as ``python3 perfbench/import_probe.py SRC_DIR``; prints one JSON record
(see :meth:`sampler.Sampler.stop`).
"""

import sys
import time

from sampler import Sampler

sys.path.insert(0, sys.argv[1])
sampler = Sampler()
sampler.start()
t0 = time.perf_counter()
import rdwo.cli  # noqa: E402,F401

record = sampler.stop(time.perf_counter() - t0)

import json  # noqa: E402  (after timing, so the import is not counted)

print(json.dumps(record))
