"""Shared test settings.

Every hypothesis test draws its examples from a fixed seed, so a local run
and CI test the same inputs and a failure repeats on the next run.  Each
test's own settings, such as ``max_examples``, still apply on top.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
