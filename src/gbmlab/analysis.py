"""Evaluation metrics, connectivity diagnostics and Monte-Carlo sweeps.

Metrics operate on predicted/true label arrays where -1 marks an
unassigned vertex (treated as its own singleton cluster and counted as an
error).  Both metrics, the pair f-score and the node error rate, are read
off one sparse contingency table, `_contingency`, whose size is the
number of occupied cells.  Connectivity diagnostics work on Graph objects
or raw edge arrays.  A phase sweep reports empirical frequencies over an
(a, b) grid; its one runner, `_grid_trials`, seeds each trial of each
grid point and deals the trials round-robin to `jobs` threads of this
process through `dense._map_chunks`, the helper that dense mode uses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import dense
from .generators import (IntervalSet, _circle_band_pairs, _circle_band_ranges, _seeded,
                         _sphere_pairs_within, rag_t_edges_only, radius_from_scale)
from .geometry import annulus_fraction, psi, sample_circle
from .graph import Graph
from .recovery import UNASSIGNED, _components, _pair_rows


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f_score: float
    node_error_rate: float

    def to_dict(self) -> dict:
        return asdict(self)


def _pair_count(sizes: np.ndarray) -> int:
    return int((sizes.astype(np.int64) * (sizes.astype(np.int64) - 1) // 2).sum())


def _contingency(pred, truth):
    """The sparse pred x truth contingency table of the assigned vertices.

    Returns (cells, starts, truth_sizes): the vertex count of each
    occupied (predicted, true) cell, grouped by predicted cluster; the
    index of each cluster's first cell; and the size of each truth label,
    which sum to n.  One `np.unique` of the cell keys counts the cells, so
    the table is linear in n however many clusters there are.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    assigned = pred != UNASSIGNED
    truth_ids, truth_inv = np.unique(truth, return_inverse=True)
    pred_ids, pred_inv = np.unique(pred[assigned], return_inverse=True)
    keys, cells = np.unique(pred_inv * len(truth_ids) + truth_inv[assigned], return_counts=True)
    return cells, np.searchsorted(keys, np.arange(len(pred_ids)) * len(truth_ids)), np.bincount(truth_inv)


def pair_f_score(pred, truth) -> Metrics:
    """Pair-level precision/recall/f-score plus the node error rate, from one `_contingency`.

    Precision is the fraction of pred-co-clustered pairs that are truly
    co-clustered; recall the fraction of truly co-clustered pairs that
    pred co-clusters.  Unassigned vertices act as singletons, so they
    contribute no predicted pairs.  Label-permutation invariant.
    """
    cells, starts, truth_sizes = _contingency(pred, truth)
    tp = _pair_count(cells)
    pred_pairs = _pair_count(np.add.reduceat(cells, starts))
    truth_pairs = _pair_count(truth_sizes)
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / truth_pairs if truth_pairs else 0.0
    f = 2 * precision * recall / (precision + recall) if precision > 0 and recall > 0 else 0.0
    # the vertices outside the largest cell of their cluster, and the unassigned ones
    n = int(truth_sizes.sum())
    errors = n - int(np.maximum.reduceat(cells, starts).sum())
    return Metrics(precision=precision, recall=recall, f_score=f,
                   node_error_rate=errors / n if n else 0.0)


def node_error_rate(pred, truth) -> float:
    """Fraction of vertices outside the majority truth label of their cluster.

    Each predicted cluster maps to its majority truth label (ties map to
    the smallest truth label); minority members and unassigned vertices
    count as misclassified.
    """
    return pair_f_score(pred, truth).node_error_rate


def component_count(graph: Graph) -> int:
    return _components(graph.n, graph.indptr, graph.indices)[0]


def is_connected(graph: Graph) -> bool:
    return component_count(graph) == 1


def _components_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Component count of raw edge arrays, for large Monte-Carlo sweeps."""
    return _components(n, *_pair_rows(n, u, v))[0]


def isolated_count(graph: Graph) -> int:
    return int((graph.degrees() == 0).sum())


def isolated_expectation_1d(n: int, a: float, b: float) -> float:
    """Expected isolated-vertex count n (1 - 2 (a-b) log n / n)^(n-1) on the circle."""
    if not 0 <= b <= a:
        raise ValueError("need 0 <= b <= a")
    p = 2.0 * (a - b) * math.log(n) / n
    if p > 1.0:
        raise ValueError("band measure exceeds 1; expectation formula invalid")
    return n * (1.0 - p) ** (n - 1)


def isolated_expectation_hd(n: int, t: int, a: float, b: float) -> float:
    """Expected isolated-vertex count on S^t with scaled radii (a, b).

    Uses the exact annulus fraction rather than the leading-order
    c_t r^t approximation.
    """
    r1 = radius_from_scale(b, n, t)
    r2 = radius_from_scale(a, n, t)
    p = annulus_fraction(t, r1, r2)
    return n * (1.0 - p) ** (n - 1)


def isolated_vertices_expected_hd(t: int, a: float, b: float) -> bool:
    """Zero-one law side: isolated vertices persist iff a^t - b^t < psi(t)."""
    return a ** t - b ** t < psi(t)


def left_deficiency_count(embeddings: np.ndarray, graph: Graph) -> int:
    """Vertices with no neighbor at counterclockwise offset in (0, 1/2]."""
    pos = np.asarray(embeddings, dtype=float)
    if pos.ndim != 1:
        raise ValueError("circle embeddings expected")
    has_ccw = np.zeros(graph.n, dtype=bool)
    if graph.m:
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        off_uv = (pos[v] - pos[u]) % 1.0
        hit_u = (off_uv > 0.0) & (off_uv <= 0.5)
        off_vu = (pos[u] - pos[v]) % 1.0
        hit_v = (off_vu > 0.0) & (off_vu <= 0.5)
        np.logical_or.at(has_ccw, u, hit_u)
        np.logical_or.at(has_ccw, v, hit_v)
    return int((~has_ccw).sum())


def find_pole(graph: Graph, embeddings: np.ndarray, r2: float):
    """Smallest vertex adjacent to every other vertex within distance r2, or None.

    A vertex is missing a neighbor when some pair within r2 that contains
    it is not an edge; a vertex with nothing within r2 qualifies.
    """
    x = np.asarray(embeddings, dtype=float)
    if x.ndim == 1:
        u, v, _ = _circle_band_pairs(x, [(0.0, r2)])
    else:
        u, v, _ = _sphere_pairs_within(x, 0.0, r2)
    absent = ~graph.has_edges(u, v)
    missing = np.zeros(graph.n, dtype=bool)
    missing[u[absent]] = True
    missing[v[absent]] = True
    poles = np.flatnonzero(~missing)
    return int(poles[0]) if len(poles) else None


@dataclass(frozen=True)
class PhasePoint:
    a: float
    b: float
    trials: int
    connected_frac: float
    isolated_frac: float
    mean_components: float


def _circle_bands_connectivity(p: np.ndarray, bands) -> tuple[bool, int, int]:
    """(connected, isolated count, component count) of the circle graph on sorted positions p
    with an edge iff the wraparound distance lies in one of the closed bands (lo, hi).

    No pair is listed: each rank's neighbours above it are the windows of
    ``_circle_band_ranges``, disjoint ranges of ranks.  Only the non-empty
    ranges are kept, as one list of (head, start, stop): a window is
    non-empty for few ranks.  A rank is isolated iff it heads no range and
    no range covers it; the coverage is a difference array.  Ranks j and
    j + 1 inside one range are both neighbours of its head, so each
    maximal run of such links is connected, and every rank of a range lies
    in the run of its first rank.  The graph's components are thus those
    of the run graph with one edge per range, run(head) - run(start).
    Within a window heads ascend and ``run`` does not decrease, so a
    repeated edge follows its first copy; self-loops and such repeats are
    dropped, and each run edge is passed once per window.
    """
    n = len(p)
    if n == 0:
        return False, 0, 0
    kept = [(np.flatnonzero(k), s, k) for s, k in _circle_band_ranges(p, bands)]
    head = np.concatenate([h for h, _, _ in kept])
    start = np.concatenate([s[h] for h, s, _ in kept])
    stop = start + np.concatenate([k[h] for h, _, k in kept])
    closed = np.bincount(stop, minlength=n + 1)
    cover = np.cumsum(np.bincount(start, minlength=n + 1) - closed)
    covered = cover[:n] > 0
    covered[head] = True
    isolated = n - int(np.count_nonzero(covered))
    # link j (ranks j and j + 1) lies in every range that covers j and does not
    # stop at j + 1; each range that stops there covers j, as it is non-empty
    linked = cover[:n - 1] > closed[1:n]
    run = np.concatenate(([0], np.cumsum(~linked)))
    u, v = run[head], run[start]
    edge = u != v
    edge[1:] &= (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    ncomp = _components_from_edges(int(run[-1]) + 1, u[edge], v[edge])
    return ncomp == 1, isolated, ncomp


def _phase_trial(family: str, n: int, c: float, t: int, a: float, b: float, seed) -> tuple[bool, bool, int]:
    """(connected, has an isolated vertex, component count) of one `family` graph at (a, b)."""
    ln = math.log(n)
    if family in ("rag1", "interval_union"):
        # rag1 is the one-band union; rank order stands in for vertex ids,
        # since the counts do not depend on the labelling
        bands = ((b * ln / n, a * ln / n),)
        if family == "interval_union":
            bands = ((0.0, c * ln / n),) + bands
        bands = IntervalSet(bands).intervals
        p = np.sort(sample_circle(_seeded(seed), n))
        _, iso, ncomp = _circle_bands_connectivity(p, bands)
    elif family == "rag_t":
        _, u, v = rag_t_edges_only(n, t, radius_from_scale(b, n, t),
                                   radius_from_scale(a, n, t), seed)
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        iso = int((deg == 0).sum())
        ncomp = _components_from_edges(n, u, v)
    else:
        raise ValueError(f"unknown family {family!r}")
    return ncomp == 1, iso > 0, ncomp


def _grid_trials(trial, points, trials: int, seed: int, jobs: int) -> list[list]:
    """Each grid point's [trial(a, b, (seed, gi, ti)) for ti in range(trials)], in grid order.

    The seeds fix each trial, so the results are the same for any `jobs`.
    Trial i of the flattened grid runs on thread i % jobs of `_map_chunks`;
    with jobs = 1 the trials run in order on the caller's thread.
    """
    tasks = [(float(a), float(b), (seed, gi, ti))
             for gi, (a, b) in enumerate(points) for ti in range(trials)]
    results = dense._map_chunks(lambda i, _: trial(*tasks[i]), [(i, i + 1) for i in range(len(tasks))], jobs)
    return [results[i:i + trials] for i in range(0, len(results), trials)]


def phase_sweep(n: int, points, trials: int, seed: int,
                family: str = "rag1", t: int = 1, c: float = 0.0,
                jobs: int = 1) -> list[PhasePoint]:
    """Empirical connectivity/isolation frequencies over an (a, b) grid, in grid order.

    Each point averages its `trials` results of `_phase_trial` from
    `_grid_trials`, which seeds trial ti of point gi with (seed, gi, ti).
    `points` may be any iterable of (a, b); it is read once.
    """
    points = list(points)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > dense.THREADS:
        # a thread past the cores gains nothing, and each holds one trial's arrays
        raise ValueError(f"jobs must be at most the {dense.THREADS} usable cores, got {jobs}")
    results = _grid_trials(partial(_phase_trial, family, n, c, t), points, trials, seed, jobs)
    return [PhasePoint(float(a), float(b), trials, *(sum(f) / trials for f in zip(*rs)))
            for (a, b), rs in zip(points, results)]
