"""Random-stream policy.

All randomness flows from a single integer seed through numpy's PCG64
generator. Sub-streams are derived with ``numpy.random.SeedSequence`` spawn
keys, so any component (a simulation run, a Monte Carlo trial block) gets an
independent, reproducible stream addressed by its integer key path. The
generator choice and the derivation scheme are part of the documented
interface: equal seeds and inputs give bit-identical traces.
numpy is imported when the first stream is derived, so a run that draws no
random numbers never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 0


def master_stream(seed: int | None) -> np.random.Generator:
    """Top-level stream for a run. ``None`` means the documented default seed."""
    return derive_stream(DEFAULT_SEED if seed is None else seed)


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 stream addressed by ``key`` under ``seed``."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
