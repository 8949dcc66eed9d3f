"""Triangle-count community recovery.

The pipeline scores every edge by its common-neighbor count, keeps edges
whose count falls outside the cross-cluster window (high keep: count/n >=
E_S; low keep: count/n <= E_D when enabled), and reads the two largest
connected components of the surviving graph as the recovered clusters.
A location-aware variant recovers the bipartition from vertex positions
by two-coloring distance-band constraints.

Label convention: 0/1 for the two recovered clusters, -1 for unassigned
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .graph import Graph
from .thresholds import (ThresholdSet1D, finite_size_exponent, thresholds_1d,
                         thresholds_hd)

UNASSIGNED = -1


def _components(n: int, u, v) -> tuple[int, np.ndarray]:
    """(count, smallest-member id per vertex) of the undirected graph on pairs u-v.

    The one components engine of the package: scipy's csgraph search plus
    a minimum over each component's members.  Repeated pairs are allowed.
    """
    u = np.asarray(u)
    if len(u) == 0:
        return n, np.arange(n, dtype=np.int64)
    adj = sp.coo_matrix((np.ones(len(u), dtype=np.int8), (u, np.asarray(v))), shape=(n, n))
    ncomp, raw = csgraph.connected_components(adj, directed=False)
    smallest = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(smallest, raw, np.arange(n, dtype=np.int64))
    return int(ncomp), smallest[raw]


def connected_components(n: int, edges) -> np.ndarray:
    """Component id per vertex (smallest member id) from an edge array."""
    edges = np.asarray(edges).reshape(-1, 2)
    return _components(n, edges[:, 0], edges[:, 1])[1]


def common_neighbor_count(graph: Graph, u: int, v: int) -> int:
    """Size of the neighbor-set intersection, by sorted merge."""
    if u == v:
        raise ValueError("u and v must differ")
    for x in (u, v):
        if not 0 <= x < graph.n:
            raise ValueError(f"vertex id {x} out of range")
    return int(np.intersect1d(graph.neighbors(u), graph.neighbors(v),
                              assume_unique=True).size)


def bulk_common_neighbor_counts(graph: Graph, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Common-neighbor counts for many pairs via bit-packed row intersection.

    Memory is O(n^2 / 8); intended for n up to ~2e4, which covers every
    desk-scale experiment here.
    """
    bits = graph.packed_rows()
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    order = np.argsort(us, kind="stable")
    counts = np.empty(len(us), dtype=np.int64)
    su, sv = us[order], vs[order]
    starts = np.searchsorted(su, np.arange(graph.n))
    ends = np.searchsorted(su, np.arange(graph.n), side="right")
    for u in range(graph.n):
        s, e = starts[u], ends[u]
        if s < e:
            counts[s:e] = np.bitwise_count(bits[u] & bits[sv[s:e]]).sum(axis=1, dtype=np.int64)
    out = np.empty_like(counts)
    out[order] = counts
    return out


def process_edge(count: int, n: int, thresholds: ThresholdSet1D) -> bool:
    """Keep decision for one edge in normalized (count/n) units."""
    rate = count / n
    if rate >= thresholds.E_S:
        return True
    return thresholds.E_D is not None and rate <= thresholds.E_D


def process_edge_hd(count: int, thresholds) -> bool:
    """Keep decision in absolute-count units (sphere / dense modes)."""
    return count >= thresholds.E_S or count <= thresholds.E_D


@dataclass
class RecoveryResult:
    labels: np.ndarray            # (n,) int8 in {0, 1, -1}
    components: np.ndarray        # (n,) component id, canonical smallest member
    stats: dict
    thresholds: object
    decisions: Optional[np.ndarray] = None   # (m, 4): u, v, count, kept


def _label_two_largest(n: int, comp: np.ndarray) -> tuple[np.ndarray, dict]:
    """Assign 0/1 to the two largest components (ties: smaller member id first)."""
    labels = np.full(n, UNASSIGNED, dtype=np.int8)
    ids, sizes = np.unique(comp, return_counts=True)
    order = np.lexsort((ids, -sizes))
    info = {"components_count": int(len(ids))}
    if len(ids) >= 1:
        labels[comp == ids[order[0]]] = 0
        info["largest_sizes"] = [int(sizes[order[0]])]
    if len(ids) >= 2:
        labels[comp == ids[order[1]]] = 1
        info["largest_sizes"].append(int(sizes[order[1]]))
    return labels, info


def _filter_and_label(graph: Graph, keep_counts, thresholds,
                      keep_decisions: bool) -> RecoveryResult:
    """keep_counts maps an int64 count array to a boolean keep mask."""
    n = graph.n
    edges = graph.edges
    if graph.m:
        counts = bulk_common_neighbor_counts(graph, edges[:, 0], edges[:, 1])
        kept_mask = keep_counts(counts)
    else:
        counts = np.empty(0, np.int64)
        kept_mask = np.empty(0, bool)
    comp = connected_components(n, edges[kept_mask])
    stats = {"edges_total": graph.m,
             "edges_removed": int(graph.m - kept_mask.sum())}
    labels, info = _label_two_largest(n, comp)
    stats.update(info)
    decisions = None
    if keep_decisions and graph.m:
        decisions = np.column_stack([edges[:, 0], edges[:, 1], counts,
                                     kept_mask.astype(np.int64)])
    return RecoveryResult(labels=labels, components=comp, stats=stats,
                          thresholds=thresholds, decisions=decisions)


def recover_gbm1(graph: Graph, a: float, b: float, *,
                 divergence_target: Optional[float] = None,
                 keep_decisions: bool = False) -> RecoveryResult:
    """Run the filter + components pipeline on a circle block-model graph.

    a, b are the scaled radii (r = x log n / n).  The default divergence
    target is the finite-size exponent 1 + 2 log log n / log n; pass 1.0
    for the asymptotic design value.
    """
    n = graph.n
    if divergence_target is None:
        divergence_target = finite_size_exponent(n)
    thr = thresholds_1d(n, a, b, divergence_target)
    n_es = thr.E_S * n
    n_ed = thr.E_D * n if thr.E_D is not None else None

    def keep_counts(counts):
        k = counts >= n_es
        if n_ed is not None:
            k |= counts <= n_ed
        return k

    return _filter_and_label(graph, keep_counts, thr, keep_decisions)


def recover_gbm_hd(graph: Graph, t: int, r_s: float, r_d: float, *,
                   c_s: float = 1.0, c_d: float = 1.0,
                     keep_decisions: bool = False) -> RecoveryResult:
    """Same pipeline with absolute-count thresholds for sphere instances."""
    thr = thresholds_hd(graph.n, t, r_s, r_d, c_s, c_d)

    def keep_counts(counts):
        return (counts >= thr.E_S) | (counts <= thr.E_D)

    return _filter_and_label(graph, keep_counts, thr, keep_decisions)


@dataclass
class LocationRecovery:
    labels: Optional[np.ndarray]   # None on conflict
    status: str                    # "ok" or "conflict"
    components_count: int          # constraint-graph components, singletons included
    constrained_pairs: int


def recover_with_locations(graph: Graph, embeddings: np.ndarray,
                           r_s: float, r_d: float) -> LocationRecovery:
    """Recover the bipartition from known circle positions.

    Every pair at distance within [r_d, r_s] is informative: an edge
    forces the pair into one cluster, a non-edge into different clusters.
    The constraints are solved as components of their signed double cover
    on 2n vertices, where vertex u + n stands for "u in the other cluster":
    a same pair links u-v and (u+n)-(v+n), a different pair u-(v+n) and
    (u+n)-v.  The constraints contradict each other iff some u shares a
    component with u + n; that means the input was not generated by a
    block model with these radii (status "conflict", no labels).
    Otherwise the largest constraint component (ties: the one with the
    smallest member) is labeled, its smallest vertex with 0; vertices in
    other components stay unassigned.  `components_count` counts the
    components of the constraint graph over all pairs, singletons included,
    on either status.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 1:
        raise ValueError("location-aware recovery expects circle embeddings")
    n = graph.n
    if len(embeddings) != n:
        raise ValueError(f"{len(embeddings)} embeddings for a graph on {n} vertices")
    from .generators import _circle_band_pairs
    us, vs, _ = _circle_band_pairs(embeddings, r_d, r_s)
    pairs = len(us)
    us = us.astype(np.int32)
    vs = vs.astype(np.int32)
    shift = np.where(graph.has_edges(us, vs), 0, n).astype(np.int32)   # 0: same pair, n: different pair
    src = np.concatenate([us, us + np.int32(n)])
    dst = np.concatenate([vs + shift, vs + (np.int32(n) - shift)])
    del us, vs, shift
    _, cid = _components(2 * n, src, dst)
    del src, dst
    # the smallest member of a constraint component is the smallest member of
    # one of its two cover components
    comp = np.minimum(cid[:n], cid[n:])
    components_count = int((comp == np.arange(n)).sum())
    if np.any(cid[:n] == cid[n:]):
        return LocationRecovery(labels=None, status="conflict",
                                components_count=components_count,
                                constrained_pairs=pairs)
    in_big = comp == np.argmax(np.bincount(comp, minlength=n))
    labels = np.full(n, UNASSIGNED, dtype=np.int8)
    labels[in_big] = (cid[:n][in_big] != comp[in_big]).astype(np.int8)
    return LocationRecovery(labels=labels, status="ok",
                            components_count=components_count,
                            constrained_pairs=pairs)
