"""Seeded random-graph constructors.

Families:

* ``gen_rag1``     -- circle positions, edge iff wraparound distance in [r1, r2]
* ``gen_gbm1``     -- planted bipartition on the circle, radii r_s (same
                      cluster) and r_d (different clusters)
* ``gen_rag_t``    -- sphere positions, edge iff chord distance in [r1, r2]
* ``gen_gbm_t``    -- planted bipartition on S^t
* ``gen_interval_union_graph`` -- circle, edge iff distance in a union of bands

All generators are deterministic given (params, seed).  Vertex positions
come from a per-seed Philox stream in vertex-major order, so instances of
different sizes share position prefixes.  Radii may be given raw or in the
scaled form r = a log(n)/n (circle) / r = a (log(n)/n)^(1/t) (sphere) via
``radius_from_scale``.  Cluster convention: vertices 0..n/2-1 are cluster
0.  All interval comparisons are closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import sample_circle, sample_sphere, squared_chord
from .graph import Graph, from_edges
from .rng import substream


def radius_from_scale(a: float, n: int, t: int = 1) -> float:
    """Convert a scaled radius parameter to a raw radius."""
    x = math.log(n) / n
    return a * x if t == 1 else a * x ** (1.0 / t)


def _seeded(seed) -> np.random.Generator:
    """Seeds may be plain ints or (master, index, ...) substream tuples."""
    if isinstance(seed, tuple):
        return substream(*seed)
    return substream(seed)


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint closed sub-intervals of [0, 1/2], kept sorted."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple(sorted((float(lo), float(hi)) for lo, hi in self.intervals))
        for lo, hi in ivs:
            if not (0.0 <= lo <= hi <= 0.5):
                raise ValueError(f"interval [{lo}, {hi}] not within [0, 1/2]")
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            if lo2 < hi1:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


@dataclass(frozen=True)
class GbmInstance:
    graph: Graph
    truth: np.ndarray        # per-vertex cluster id in {0, 1}
    embeddings: np.ndarray   # (n,) circle coords or (n, t+1) sphere points
    params: dict


def _ragged_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row [start, stop) index ranges into (row, index) pairs."""
    lens = np.maximum(stops - starts, 0)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.repeat(np.arange(len(starts)), lens)
    offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    cols = np.repeat(starts, lens) + offsets
    return rows, cols


def _circle_band_pairs(pos: np.ndarray, lo: float, hi: float):
    """All unordered pairs with wraparound distance in the closed band [lo, hi].

    Returns (u, v, distance) arrays.  Works by sorting positions and
    windowing the raw gap delta = pos[j] - pos[i] (j after i in sorted
    order), which covers the band via delta in [lo, hi] or in
    [1-hi, 1-lo].
    """
    n = len(pos)
    order = np.argsort(pos, kind="stable")
    sp = pos[order]
    us, vs = [], []
    windows = [(lo, hi), (1.0 - hi, 1.0 - lo)]
    for wlo, whi in windows:
        if wlo > whi:
            continue
        if wlo > 0.0:
            left = np.searchsorted(sp, sp + wlo, side="left")
        else:
            # gap 0 only pairs a vertex with itself or a positional tie
            left = np.arange(1, n + 1)
        right = np.searchsorted(sp, sp + whi, side="right")
        i_idx, j_idx = _ragged_ranges(np.maximum(left, np.arange(1, n + 1)), right)
        us.append(order[i_idx])
        vs.append(order[j_idx])
    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    if hi >= 0.5:
        # the two windows can overlap at delta = 1/2; dedupe
        enc = np.minimum(u, v) * n + np.maximum(u, v)
        _, keep = np.unique(enc, return_index=True)
        u, v = u[keep], v[keep]
    d = np.abs(pos[u] - pos[v])
    d = np.minimum(d, 1.0 - d)
    return u, v, d


def gen_rag1(n: int, r1: float, r2: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Random annulus graph on the circle: edge iff distance in [r1, r2]."""
    pos, u, v = rag1_edges_only(n, r1, r2, seed)
    return from_edges(n, u, v), pos


def gen_interval_union_graph(n: int, intervals: IntervalSet, seed: int) -> tuple[Graph, np.ndarray]:
    """Circle graph with edge iff distance lies in a union of closed bands."""
    pos, u, v = interval_union_edges_only(n, intervals, seed)
    return from_edges(n, u, v), pos


def _planted_labels(n: int) -> np.ndarray:
    if n % 2:
        raise ValueError(f"n must be even for a planted bipartition, got {n}")
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2:] = 1
    return labels


def gen_gbm1(n: int, r_s: float, r_d: float, seed: int) -> GbmInstance:
    """Geometric block model on the circle.

    Edge (u, v) iff d(u, v) <= r_s for same-cluster pairs and
    d(u, v) <= r_d for cross-cluster pairs, with r_d <= r_s.
    """
    if not 0.0 <= r_d <= r_s <= 0.5:
        raise ValueError(f"need 0 <= r_d <= r_s <= 1/2, got r_s={r_s}, r_d={r_d}")
    labels = _planted_labels(n)
    rng = _seeded(seed)
    pos = sample_circle(rng, n)
    u, v, d = _circle_band_pairs(pos, 0.0, r_s)
    same = labels[u] == labels[v]
    keep = np.where(same, d <= r_s, d <= r_d)
    g = from_edges(n, u[keep], v[keep])
    return GbmInstance(graph=g, truth=labels, embeddings=pos,
                       params={"family": "gbm1", "n": n, "t": 1, "r_s": r_s, "r_d": r_d, "seed": seed})


def _sphere_pairs_within(x: np.ndarray, lo: float, hi: float):
    """All unordered pairs of sphere points with chord distance in the closed band [lo, hi].

    Returns (u, v, d2) arrays, d2 the squared chord distance.  Chord
    distance on S^t is Euclidean distance in R^(t+1), so a k-d tree over
    the points finds every candidate pair; it is queried with a 1e-9
    relative margin so that its own rounding never drops one.  Membership
    is then decided by d2 = ``squared_chord(x, u, v)`` against lo^2 and
    hi^2, the formula of ``recheck_instance`` and of the dense oracle.
    """
    pairs = cKDTree(x).query_pairs(hi * (1.0 + 1e-9), output_type="ndarray")
    u, v = pairs[:, 0], pairs[:, 1]
    d2 = squared_chord(x, u, v)
    keep = (d2 >= lo * lo) & (d2 <= hi * hi)
    return u[keep], v[keep], d2[keep]


def gen_rag_t(n: int, t: int, r1: float, r2: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Random annulus graph on S^t: edge iff chord distance in [r1, r2]."""
    x, u, v = rag_t_edges_only(n, t, r1, r2, seed)
    return from_edges(n, u, v), x


def gen_gbm_t(n: int, t: int, r_s: float, r_d: float, seed: int) -> GbmInstance:
    """Geometric block model on S^t with chord-distance rule."""
    if not 0.0 <= r_d <= r_s <= 2.0:
        raise ValueError(f"need 0 <= r_d <= r_s <= 2, got r_s={r_s}, r_d={r_d}")
    labels = _planted_labels(n)
    rng = _seeded(seed)
    x = sample_sphere(rng, n, t)
    u, v, d2 = _sphere_pairs_within(x, 0.0, r_s)
    keep = (labels[u] == labels[v]) | (d2 <= r_d * r_d)
    g = from_edges(n, u[keep], v[keep])
    return GbmInstance(graph=g, truth=labels, embeddings=x,
                       params={"family": "gbm_t", "n": n, "t": t, "r_s": r_s, "r_d": r_d, "seed": seed})


def recheck_instance(inst: GbmInstance, non_edge_sample: int = 0, seed: int = 0) -> bool:
    """Definitional audit: every stored edge satisfies the distance rule and
    (optionally) a random sample of non-edges violates it."""
    g, labels, emb = inst.graph, inst.truth, inst.embeddings
    r_s, r_d = inst.params["r_s"], inst.params["r_d"]
    circle = emb.ndim == 1

    def within_rule(u, v):
        thr = np.where(labels[u] == labels[v], r_s, r_d)
        if circle:
            d = np.abs(emb[u] - emb[v])
            return np.minimum(d, 1.0 - d) <= thr
        return squared_chord(emb, u, v) <= thr * thr

    if g.m and not np.all(within_rule(g.edges[:, 0], g.edges[:, 1])):
        return False
    if non_edge_sample:
        rng = substream(seed, 0xA0D17)
        u = rng.integers(0, g.n, non_edge_sample)
        v = rng.integers(0, g.n, non_edge_sample)
        ok = u != v
        u, v = u[ok], v[ok]
        is_edge = g.has_edges(u, v)
        if np.any(within_rule(u[~is_edge], v[~is_edge])):
            return False
    return True


def rag1_edges_only(n: int, r1: float, r2: float, seed: int):
    """Positions plus raw edge arrays of ``gen_rag1``, skipping Graph construction.

    Cheap path for Monte-Carlo sweeps that only need degrees/components.
    """
    if not 0.0 <= r1 <= r2 <= 0.5:
        raise ValueError(f"need 0 <= r1 <= r2 <= 1/2, got [{r1}, {r2}]")
    rng = _seeded(seed)
    pos = sample_circle(rng, n)
    u, v, _ = _circle_band_pairs(pos, r1, r2)
    return pos, u, v


def interval_union_edges_only(n: int, intervals: IntervalSet, seed: int):
    """Positions plus the deduplicated raw edge arrays of ``gen_interval_union_graph``."""
    rng = _seeded(seed)
    pos = sample_circle(rng, n)
    us, vs = [], []
    for lo, hi in intervals.intervals:
        u, v, _ = _circle_band_pairs(pos, lo, hi)
        us.append(u)
        vs.append(v)
    if not us:
        return pos, np.empty(0, np.int64), np.empty(0, np.int64)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    # bands are disjoint but closed endpoints can coincide; dedupe defensively
    enc = np.minimum(u, v) * n + np.maximum(u, v)
    _, keep = np.unique(enc, return_index=True)
    return pos, u[keep], v[keep]


def rag_t_edges_only(n: int, t: int, r1: float, r2: float, seed: int):
    """Positions plus raw edge arrays of ``gen_rag_t``, skipping Graph construction."""
    if not 0.0 <= r1 <= r2 <= 2.0:
        raise ValueError(f"need 0 <= r1 <= r2 <= 2, got [{r1}, {r2}]")
    rng = _seeded(seed)
    x = sample_sphere(rng, n, t)
    u, v, _ = _sphere_pairs_within(x, r1, r2)
    return x, u, v


__all__ = [
    "GbmInstance", "IntervalSet", "radius_from_scale",
    "gen_rag1", "gen_gbm1", "gen_rag_t", "gen_gbm_t", "gen_interval_union_graph",
    "recheck_instance", "rag1_edges_only", "interval_union_edges_only", "rag_t_edges_only",
]
