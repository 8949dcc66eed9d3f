"""Counter-based random number streams.

All randomness flows through Philox generators keyed by explicit integer
seeds, so every experiment is reproducible and trials can be re-run in
isolation.  Substreams are derived from (seed, index, ...) tuples; a
generator fed vertex-major draws gives graphs of different sizes a shared
prefix of vertex positions.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, *indices).

    Identical arguments always produce the identical stream; distinct
    argument tuples produce statistically independent streams.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, indices)])))


def normal_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) standard normals via inverse CDF over vertex-major uniforms.

    Uses a fixed one-uniform-per-normal transform instead of the
    generator's rejection sampler so the prefix property survives: Philox
    is counter based, so the first n0 rows coincide for any two calls with
    the same stream and n >= n0.
    """
    from scipy.special import ndtri

    u = rng.random((n, k))
    # ndtri(0) = -inf; the generator's uniforms are in [0, 1) so only the
    # exact 0 endpoint needs a nudge.
    return ndtri(np.maximum(u, 1e-300))
