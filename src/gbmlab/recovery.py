"""Triangle-count community recovery.

The pipeline scores every edge by its common-neighbor count, keeps edges
whose count falls outside the cross-cluster window by the one keep rule,
`_keep` (count >= e_s, or count <= e_d when the low branch is enabled;
e_s = E_S n on the circle, where E_S is a rate, and e_s = E_S on the
sphere and in dense phase 1), and reads the two largest connected
components of the surviving graph as the recovered clusters, chosen by
`_label_two_largest`, which dense phase 1 and the location-aware variant
use too.
A location-aware variant recovers the bipartition from vertex positions
by two-coloring distance-band constraints.

Label convention: 0/1 for the two recovered clusters, -1 for unassigned
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .graph import Graph, _key_rows, trims_heap
from .thresholds import finite_size_exponent, thresholds_1d, thresholds_hd

UNASSIGNED = -1


def _pair_rows(n: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u-v as CSR rows (indptr, cols) on n vertices, each pair in row u only.

    The entry to `_components` for callers that hold pairs: `graph._key_rows`
    groups their keys u * n + v, with no sort when they arrive sorted
    (`Graph.edges` and its kept subset), and each row's columns ascend.
    Raises ValueError on pair arrays of unequal length or an id out of
    range, which a key would hide: (u, n) has the key of (u + 1, 0).
    """
    u, v = np.asarray(u), np.asarray(v)
    if len(u) != len(v):
        raise ValueError("pair arrays differ in length")
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("vertex id out of range")
    keys = u.astype(np.int64) * n + v
    indptr = _key_rows(n, keys)
    return indptr, np.remainder(keys, n, out=keys)


def _components(n: int, indptr: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, smallest-member id per vertex) of the undirected graph with an edge i-j
    for each j in cols[indptr[i]:indptr[i + 1]].

    The one components engine of the package.  It takes CSR rows as
    scipy stores them: the graph's own rows (`component_count`), the
    double cover built straight from the band rows (`recover_with_locations`),
    or pairs that `_pair_rows` groups with at most one sort of int64 keys.  An
    edge need appear in one of its two rows only, and repeated edges and
    self-loops are allowed.  No COO matrix is built, so no row gets
    sorted, no duplicate summed and no symmetrized copy made; the float64
    data is csgraph's own dtype, so its validation copies nothing.  The
    weak components of this directed graph are the components of the
    undirected one.  Raises ValueError on a column out of range.
    """
    cols = np.asarray(cols)
    if len(cols) == 0:
        return n, np.arange(n, dtype=np.int64)
    if cols.min() < 0 or cols.max() >= n:
        raise ValueError("vertex id out of range")
    adj = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    ncomp, raw = csgraph.connected_components(adj, directed=True, connection="weak")
    smallest = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(smallest, raw, np.arange(n, dtype=np.int64))
    return int(ncomp), smallest[raw]


def connected_components(n: int, edges) -> np.ndarray:
    """Component id per vertex (smallest member id) from an edge array."""
    edges = np.asarray(edges).reshape(-1, 2)
    return _components(n, *_pair_rows(n, edges[:, 0], edges[:, 1]))[1]


def _window_counts(rows: np.ndarray, starts: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """popcount(row lo & row hi) for bit-packed rows held in windows of W words.

    The one common-neighbor kernel.  `rows` is (n, W): row i's window,
    words starts[i] to starts[i] + W - 1 of its full row.  starts must
    not decrease with i, and each pair must have lo <= hi.  With
    d = starts[hi] - starts[lo] (capped at W), words d to d + W - 1 of
    row lo, padded by W zero words in a copy made once per call, line up
    with the window of row hi, so each pair is one AND of two W-word rows,
    the first read from a sliding-window view.  With every start 0 (full
    rows, as in dense phase 1) both rows are gathered directly, with no
    view and no copy.  Pairs go in chunks of about 2^16 words.
    """
    w = rows.shape[1]
    shifted = sliding_window_view(np.pad(rows, ((0, 0), (0, w))), w, axis=1) if starts.any() else None
    # a count is an integer of at most 64 W, exact in float32 while
    # 64 W <= 2^24 (true for every n <= 2^24); a float32 matrix-vector
    # product sums the popcounts faster than an integer row sum
    ones = np.ones(w, dtype=np.float32)
    counts = np.empty(len(lo), dtype=np.int64)
    step = max(1, (1 << 16) // max(w, 1))
    for i0 in range(0, len(lo), step):
        a, b = lo[i0:i0 + step], hi[i0:i0 + step]
        left = rows[a] if shifted is None else shifted[a, np.minimum(starts[b] - starts[a], w)]
        counts[i0:i0 + step] = np.bitwise_count(left & rows[b]).astype(np.float32) @ ones
    return counts


def bulk_common_neighbor_counts(graph: Graph, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Common-neighbor counts of the pairs (us[i], vs[i]) by bit-packed row intersection.

    The rows are the graph's `layout`: reverse Cuthill-McKee order, each row
    in a window of W words (`Graph.packed_rows`), 11 on the n = 2e4 circle
    instances against 313 for full rows.  Counts do not depend on the order.
    Raises ValueError on a vertex id out of range or a pair u = v.
    """
    n = graph.n
    us = np.asarray(us)
    vs = np.asarray(vs)
    if len(us) != len(vs):
        raise ValueError("pair arrays differ in length")
    if not len(us):
        return np.empty(0, dtype=np.int64)
    if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n:
        raise ValueError("vertex id out of range")
    if np.any(us == vs):
        raise ValueError("a pair u = v has no common-neighbor count")
    pos, rows, starts = graph.layout
    pu, pv = pos[us], pos[vs]
    lo = np.minimum(pu, pv)
    hi = np.maximum(pu, pv, out=pu)
    del pv
    return _window_counts(rows, starts, lo, hi)


def _keep(counts: np.ndarray, e_s: float, e_d: Optional[float]) -> np.ndarray:
    """The filter's keep rule: count >= e_s, or count <= e_d when e_d is not None."""
    keep = counts >= e_s
    if e_d is not None:
        keep |= counts <= e_d
    return keep


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


def _filter_and_label(graph: Graph, e_s: float, e_d: Optional[float], thresholds,
                      keep_decisions: bool) -> RecoveryResult:
    """Count every edge, keep it by `_keep(counts, e_s, e_d)`, label the two largest components.

    e_s and e_d are absolute counts; `thresholds` is only carried into the
    result.
    """
    n = graph.n
    edges = graph.edges
    counts = bulk_common_neighbor_counts(graph, edges[:, 0], edges[:, 1])
    kept_mask = _keep(counts, e_s, e_d)
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


@trims_heap
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
    e_d = thr.E_D * n if thr.E_D is not None else None
    return _filter_and_label(graph, thr.E_S * n, e_d, thr, keep_decisions)


@trims_heap
def recover_gbm_hd(graph: Graph, t: int, r_s: float, r_d: float, *,
                   c_s: float = 1.0, c_d: float = 1.0) -> RecoveryResult:
    """Same pipeline with absolute-count thresholds for sphere instances."""
    thr = thresholds_hd(graph.n, t, r_s, r_d, c_s, c_d)
    return _filter_and_label(graph, thr.E_S, thr.E_D, thr, keep_decisions=False)


@dataclass
class LocationRecovery:
    labels: Optional[np.ndarray]   # None on conflict
    status: str                    # "ok" or "conflict"
    components_count: int          # constraint-graph components, singletons included
    constrained_pairs: int


@trims_heap
def recover_with_locations(graph: Graph, embeddings: np.ndarray,
                           r_s: float, r_d: float) -> LocationRecovery:
    """Recover the bipartition from known circle positions.

    Every pair at distance within [r_d, r_s] is informative: an edge
    forces the pair into one cluster, a non-edge into different clusters.
    The constraints are solved as components of their signed double cover
    on 2n vertices, where vertex u + n stands for "u in the other cluster":
    a same pair links u-v and (u+n)-(v+n), a different pair u-(v+n) and
    (u+n)-v.  The cover's CSR rows are built straight from the rank-order
    rows of the band primitive, and its components are mapped back to
    vertex ids.  The constraints contradict each other iff some u shares
    a component with u + n; that means the input was not generated by a
    block model with these radii (status "conflict", no labels).
    Otherwise the largest constraint component (ties: the one with the
    smallest member) is labeled, its smallest vertex with 0; vertices in
    other components stay unassigned.  `components_count` counts the
    components of the constraint graph over all pairs, singletons included,
    on either status.  Raises ValueError on a position that is not finite
    or lies outside [0, 1), and on radii outside the rule of `gen_gbm1`.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 1:
        raise ValueError("location-aware recovery expects circle embeddings")
    n = graph.n
    if len(embeddings) != n:
        raise ValueError(f"{len(embeddings)} embeddings for a graph on {n} vertices")
    bad = np.flatnonzero(~np.isfinite(embeddings))
    if len(bad):
        raise ValueError(f"embedding of vertex {bad[0]} is not finite: {embeddings[bad[0]]}")
    bad = np.flatnonzero((embeddings < 0.0) | (embeddings >= 1.0))
    if len(bad):
        raise ValueError(f"embedding of vertex {bad[0]} lies outside [0, 1): {embeddings[bad[0]]}")
    from .generators import _check_circle_radii, _circle_band_rows
    _check_circle_radii(r_s, r_d)
    # rank i stands for vertex order[i], and i + n for order[i] + n
    order, indptr, cols = _circle_band_rows(embeddings, [(r_d, r_s)])
    pairs = len(cols)
    cols = cols.astype(np.int32)
    same = graph.has_edges(np.repeat(order, np.diff(indptr)), order[cols])
    shift = np.where(same, 0, n).astype(np.int32)    # 0: same pair, n: different pair
    # row i of the cover holds cols + shift, and row i + n holds cols + n - shift
    cover_ptr = np.concatenate([indptr, indptr[-1] + indptr[1:]])
    cover_cols = np.concatenate([cols + shift, cols + (np.int32(n) - shift)])
    del cols, same, shift
    _, rank_cid = _components(2 * n, cover_ptr, cover_cols)
    del cover_cols
    # back to vertex ids, each component named by its smallest vertex-id member
    cover = np.concatenate([order, order + n])
    smallest = np.full(2 * n, 2 * n, dtype=np.int64)
    np.minimum.at(smallest, rank_cid, cover)
    cid = np.empty(2 * n, dtype=np.int64)
    cid[cover] = smallest[rank_cid]
    # the smallest member of a constraint component is the smallest member of
    # one of its two cover components
    comp = np.minimum(cid[:n], cid[n:])
    components_count = int((comp == np.arange(n)).sum())
    if np.any(cid[:n] == cid[n:]):
        return LocationRecovery(labels=None, status="conflict",
                                components_count=components_count,
                                constrained_pairs=pairs)
    in_big = _label_two_largest(n, comp)[0] == 0
    labels = np.full(n, UNASSIGNED, dtype=np.int8)
    labels[in_big] = (cid[:n][in_big] != comp[in_big]).astype(np.int8)
    return LocationRecovery(labels=labels, status="ok",
                            components_count=components_count,
                            constrained_pairs=pairs)
