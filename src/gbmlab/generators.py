"""Seeded random-graph constructors.

Families:

* ``gen_interval_union_graph`` -- circle, edge iff distance in a union of bands
* ``gen_rag1``     -- the one-band union: edge iff wraparound distance in [r1, r2]
* ``gen_gbm1``     -- planted bipartition on the circle, radii r_s (same
                      cluster) and r_d (different clusters)
* ``gen_rag_t``    -- sphere positions, edge iff chord distance in [r1, r2]
* ``gen_gbm_t``    -- planted bipartition on S^t

All generators are deterministic given (params, seed).  Vertex positions
come from a per-seed Philox stream in vertex-major order, so instances of
different sizes share position prefixes.  Radii may be given raw or in the
scaled form r = a log(n)/n (circle) / r = a (log(n)/n)^(1/t) (sphere) via
``radius_from_scale``.  Cluster convention: vertices 0..n/2-1 are cluster
0.  All interval comparisons are closed.

Every circle graph, trial and pair list comes from one primitive,
``_circle_band_ranges``: for a list of bands it gives each rank of the
sorted positions its disjoint windows of higher ranks.  On the sphere a
k-d tree lists the pairs of one band, ``_sphere_pairs_within``.  One edge
rule, ``_gbm_edges``, serves both block models and the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import geodesic_distance, sample_circle, sample_sphere, squared_chord
from .graph import Graph, from_edges, trims_heap
from .rng import substream


def radius_from_scale(a: float, n: int, t: int = 1) -> float:
    """Convert a scaled radius parameter to a raw radius; n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
                raise ValueError(f"need 0 <= lo <= hi <= 1/2, got [{lo}, {hi}]")
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


def _circle_band_ranges(p: np.ndarray, bands):
    """The band windows of each rank over sorted positions p, disjoint and ascending.

    Returns a list of (start, length) pairs of int64 arrays of length n:
    rank i's window holds the ranks start[i] to start[i] + length[i] - 1,
    all above i; a start is at most n.  The windows of one rank are
    disjoint and listed in ascending rank order: together they hold once
    each higher rank whose distance lies in one of the closed bands (lo, hi).

    Each band's hi is cut to 1/2, bands with lo > hi are dropped, and the
    rest are sorted and joined where they overlap or touch (a closed union
    is unchanged by joining).  A band's window 1 takes the raw gaps
    delta = p[j] - p[i] in [lo, hi] and window 2 those in [1 - hi, 1 - lo];
    the wraparound distance min(delta, 1 - delta) lies in the band iff
    delta is in one of them.  The windows come in ascending gap order:
    window 1 of each band ascending, then window 2 of each band
    descending, so their starts ascend.  Each starts no earlier than
    ``reach``, the largest of i + 1 and every earlier window's stop, so a
    rank in two gap ranges (a pair at delta = 1/2, or two ends tied by
    rounding) is listed once, in the first, with no sort.  With no
    non-empty band there is one window, of length 0.
    """
    n = len(p)
    joined = []
    for lo, hi in sorted((lo, min(hi, 0.5)) for lo, hi in bands if lo <= min(hi, 0.5)):
        if joined and lo <= joined[-1][1]:
            joined[-1][1] = max(joined[-1][1], hi)
        else:
            joined.append([lo, hi])
    if not joined:
        zero = np.zeros(n, dtype=np.int64)
        return [(zero, zero)]
    gaps = [(lo, hi) for lo, hi in joined] + [(1.0 - hi, 1.0 - lo) for lo, hi in reversed(joined)]
    reach = np.arange(1, n + 1)
    windows = []
    for lo, hi in gaps:
        # a window from gap 0 starts right after its rank, and one to gap 1
        # ends at n unless the positions span more than 1 (p[i] + 1 >= p[0] + 1)
        start = reach if lo == 0.0 else np.maximum(np.searchsorted(p, p + lo, side="left"), reach)
        if hi == 1.0 and n and p[-1] <= p[0] + 1.0:
            stop = np.full(n, n)
        else:
            stop = np.searchsorted(p, p + hi, side="right")
        windows.append((start, np.maximum(stop - start, 0)))
        reach = np.maximum(reach, stop)
    return windows


def _circle_band_rows(pos: np.ndarray, bands):
    """All unordered pairs with wraparound distance in one of the closed bands (lo, hi),
    as rank-order rows.

    Returns (order, indptr, cols).  ``order`` is numpy's default argsort
    of the positions, so rank i stands for vertex order[i]; the pairs of
    rank i are (i, j) for j in cols[indptr[i]:indptr[i + 1]], every j > i
    and ascending.  In these rows every pair appears once, rows come
    grouped, and neighbouring ranks are neighbours on the circle.  The
    sort is not stable, so tied positions may rank either way; the pair
    set does not depend on how they rank, and neither does any caller's
    result.

    Row i is the windows of ``_circle_band_ranges`` on the sorted
    positions, expanded into their ranks.
    """
    n = len(pos)
    order = np.argsort(pos)
    if n == 0:
        return order, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    windows = _circle_band_ranges(pos[order], bands)
    # the ranges of each row, interleaved, expanded into their indices
    starts = np.stack([s for s, _ in windows], axis=1).ravel()
    lens = np.stack([k for _, k in windows], axis=1).ravel()
    ends = np.cumsum(lens)
    cols = np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])
    return order, np.concatenate(([0], ends[len(windows) - 1::len(windows)])), cols


def _circle_band_pairs(pos: np.ndarray, bands):
    """All unordered pairs with wraparound distance in one of the closed bands (lo, hi).

    Returns (u, v, distance) arrays: the vertex-id view of
    ``_circle_band_rows``, in its rank order, u the lower-ranked end.
    """
    order, indptr, cols = _circle_band_rows(pos, bands)
    u = np.repeat(order, np.diff(indptr))
    v = order[cols]
    return u, v, geodesic_distance(pos[u], pos[v])


def gen_rag1(n: int, r1: float, r2: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Random annulus graph on the circle: edge iff distance in [r1, r2], the one-band union."""
    return gen_interval_union_graph(n, IntervalSet(((r1, r2),)), seed)


@trims_heap
def gen_interval_union_graph(n: int, intervals: IntervalSet, seed: int) -> tuple[Graph, np.ndarray]:
    """Circle graph with edge iff distance lies in a union of closed bands."""
    pos = sample_circle(_seeded(seed), n)
    u, v, _ = _circle_band_pairs(pos, intervals.intervals)
    return from_edges(n, u, v), pos


def _planted_labels(n: int) -> np.ndarray:
    if n % 2:
        raise ValueError(f"n must be even for a planted bipartition, got {n}")
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2:] = 1
    return labels


def _check_circle_radii(r_s: float, r_d: float) -> None:
    """The circle model's one radius rule, 0 <= r_d <= r_s <= 1/2."""
    if not 0.0 <= r_d <= r_s <= 0.5:
        raise ValueError(f"need 0 <= r_d <= r_s <= 1/2, got r_s={r_s}, r_d={r_d}")


def _check_chord_radii(r_s: float, r_d: float) -> None:
    """The sphere model's one radius rule, 0 <= r_d <= r_s <= 2 (chord distances)."""
    if not 0.0 <= r_d <= r_s <= 2.0:
        raise ValueError(f"need 0 <= r_d <= r_s <= 2, got r_s={r_s}, r_d={r_d}")


def _gbm_edges(d: np.ndarray, same: np.ndarray, t_s: float, t_d: float) -> np.ndarray:
    """The block model's edge rule, (d <= t_d) | (same & (d <= t_s)), computed into `same`.

    d holds distances, or squared ones against t = r * r, and `same` (writable, d's
    shape) whether each pair's ends share a cluster.  With t_d <= t_s this is
    d <= (t_s if same else t_d) bit for bit."""
    near = d <= t_s
    same &= near
    same |= np.less_equal(d, t_d, out=near)
    return same


@trims_heap
def gen_gbm1(n: int, r_s: float, r_d: float, seed: int) -> GbmInstance:
    """Geometric block model on the circle.

    Edge (u, v) iff d(u, v) <= r_s for same-cluster pairs and
    d(u, v) <= r_d for cross-cluster pairs, with r_d <= r_s.
    """
    _check_circle_radii(r_s, r_d)
    labels = _planted_labels(n)
    rng = _seeded(seed)
    pos = sample_circle(rng, n)
    u, v, d = _circle_band_pairs(pos, [(0.0, r_s)])
    keep = _gbm_edges(d, labels[u] == labels[v], r_s, r_d)
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
    from scipy.spatial import cKDTree

    pairs = cKDTree(x).query_pairs(hi * (1.0 + 1e-9), output_type="ndarray")
    u, v = pairs[:, 0], pairs[:, 1]
    d2 = squared_chord(x, u, v)
    keep = (d2 >= lo * lo) & (d2 <= hi * hi)
    return u[keep], v[keep], d2[keep]


@trims_heap
def gen_rag_t(n: int, t: int, r1: float, r2: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Random annulus graph on S^t: edge iff chord distance in [r1, r2]."""
    x, u, v = rag_t_edges_only(n, t, r1, r2, seed)
    return from_edges(n, u, v), x


@trims_heap
def gen_gbm_t(n: int, t: int, r_s: float, r_d: float, seed: int) -> GbmInstance:
    """Geometric block model on S^t with chord-distance rule."""
    _check_chord_radii(r_s, r_d)
    labels = _planted_labels(n)
    rng = _seeded(seed)
    x = sample_sphere(rng, n, t)
    u, v, d2 = _sphere_pairs_within(x, 0.0, r_s)
    keep = _gbm_edges(d2, labels[u] == labels[v], r_s * r_s, r_d * r_d)
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
    "recheck_instance", "rag_t_edges_only",
]
