"""Seed-splitting discipline.

Every random decision in the library flows from a single 64-bit root seed.
Independent streams are derived with ``numpy.random.SeedSequence`` spawn
keys, so a stream's output depends only on (root seed, purpose tag, indices)
and never on call order.  Tags:

* ``TAG_ROUND``      one stream per repetition round of the main driver
* ``TAG_GENERATE``   the planted-instance generator
* ``TAG_EXPERIMENT`` per-instance seeds inside an experiment suite

The concentration harness (`coreset.sample_concentration_check`) draws every
trial from the generator its caller passes.
"""

from __future__ import annotations

import numpy as np

from .metric import _require_int

TAG_ROUND = 1
TAG_GENERATE = 3
TAG_EXPERIMENT = 4


def child_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by ``key`` under ``seed``."""
    _require_int(seed, "seed")
    if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in key):
        raise ValueError(f"spawn key must be nonnegative integers, got {key!r}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def generator_for(seed: int, *key: int) -> np.random.Generator:
    """Fresh PCG64 generator for the stream identified by ``key``."""
    return np.random.default_rng(child_sequence(seed, *key))


def derived_seed(seed: int, *key: int) -> int:
    """A 64-bit integer seed derived from ``seed`` and ``key`` (for sub-runs)."""
    state = child_sequence(seed, *key).generate_state(1, dtype=np.uint64)
    return int(state[0])
