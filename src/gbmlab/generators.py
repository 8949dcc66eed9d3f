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

from .geometry import geodesic_distance, sample_circle, sample_sphere, squared_chord
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


def _circle_band_ranges(p: np.ndarray, lo: float, hi: float):
    """The two band windows of each rank over sorted positions p, as (start, length) pairs.

    Returns ((start1, len1), (start2, len2)), int64 arrays of length n:
    rank i's window k holds the ranks startk[i] to startk[i] + lenk[i] - 1,
    all above i; a start is at most n.  Window 1 takes the raw gaps
    delta = p[j] - p[i] in [lo, h] and window 2 those in [1 - h, 1 - lo],
    with h = min(hi, 1/2); the wraparound distance min(delta, 1 - delta)
    lies in the band iff delta is in one of them.  Window 2 starts no
    earlier than window 1 ends, so a rank at delta = 1/2, in both gap
    ranges, is in window 1 only.  A band with lo > hi has every length 0.
    """
    n = len(p)
    hi = min(hi, 0.5)
    if lo > hi:
        zero = np.zeros(n, dtype=np.int64)
        return (zero, zero), (zero, zero)
    after = np.arange(1, n + 1)
    # at lo = 0 the first window starts right after its rank, and the second
    # ends at n unless the positions span more than 1 (p[i] + 1 >= p[0] + 1)
    start1 = after if lo == 0.0 else np.maximum(np.searchsorted(p, p + lo, side="left"), after)
    stop1 = np.searchsorted(p, p + hi, side="right")
    start2 = np.maximum(np.searchsorted(p, p + (1.0 - hi), side="left"), stop1)
    if lo == 0.0 and n and p[-1] <= p[0] + 1.0:
        stop2 = np.full(n, n)
    else:
        stop2 = np.searchsorted(p, p + (1.0 - lo), side="right")
    return (start1, np.maximum(stop1 - start1, 0)), (start2, np.maximum(stop2 - start2, 0))


def _circle_band_rows(pos: np.ndarray, lo: float, hi: float):
    """All unordered pairs with wraparound distance in the closed band [lo, hi], as rank-order rows.

    Returns (order, indptr, cols).  ``order`` is numpy's default argsort
    of the positions, so rank i stands for vertex order[i]; the pairs of
    rank i are (i, j) for j in cols[indptr[i]:indptr[i + 1]], every j > i
    and ascending.  In these rows every pair appears once, rows come
    grouped, and neighbouring ranks are neighbours on the circle.  The
    sort is not stable, so tied positions may rank either way; the pair
    set does not depend on how they rank, and neither does any caller's
    result.

    Row i is the two windows of ``_circle_band_ranges`` on the sorted
    positions, expanded into their ranks; a pair at delta = 1/2 is kept
    once, in the first window.
    """
    n = len(pos)
    order = np.argsort(pos)
    if n == 0:
        return order, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    (start1, len1), (start2, len2) = _circle_band_ranges(pos[order], lo, hi)
    # the two ranges of each row, interleaved, expanded into their indices
    starts = np.stack([start1, start2], axis=1).ravel()
    lens = np.stack([len1, len2], axis=1).ravel()
    ends = np.cumsum(lens)
    cols = np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])
    return order, np.concatenate(([0], ends[1::2])), cols


def _circle_band_pairs(pos: np.ndarray, lo: float, hi: float):
    """All unordered pairs with wraparound distance in the closed band [lo, hi].

    Returns (u, v, distance) arrays: the vertex-id view of
    ``_circle_band_rows``, in its rank order, u the lower-ranked end.
    """
    order, indptr, cols = _circle_band_rows(pos, lo, hi)
    u = np.repeat(order, np.diff(indptr))
    v = order[cols]
    return u, v, geodesic_distance(pos[u], pos[v])


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
            return geodesic_distance(emb[u], emb[v]) <= thr
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
    pos = _rag1_positions(n, r1, r2, seed)
    u, v, _ = _circle_band_pairs(pos, r1, r2)
    return pos, u, v


def _rag1_positions(n: int, r1: float, r2: float, seed) -> np.ndarray:
    """The positions of a rag1 instance, after checking its band."""
    if not 0.0 <= r1 <= r2 <= 0.5:
        raise ValueError(f"need 0 <= r1 <= r2 <= 1/2, got [{r1}, {r2}]")
    return sample_circle(_seeded(seed), n)


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
