"""Property tests of the graph core, the text writers, the sphere band primitive and dense
query accounting."""

import io
import os
import tempfile
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmlab import analysis as ana
from gbmlab import cli
from gbmlab import dense as dn
from gbmlab import generators as gen
from gbmlab import graph as gr
from gbmlab import recovery as rec
from gbmlab.geometry import sample_circle, sample_sphere
from gbmlab.graph import empty_graph, from_edges
from gbmlab.rng import substream
from gbmlab.thresholds import DensePlan
from test_recovery import bfs_components, common_neighbor_count

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def edge_lists(draw, max_n=30, allow_repeats=True):
    """(n, u, v): endpoint arrays in any orientation and order."""
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=3 * n))
    if not allow_repeats:
        seen, kept = set(), []
        for a, b in pairs:
            if a != b and (min(a, b), max(a, b)) not in seen:
                seen.add((min(a, b), max(a, b)))
                kept.append((a, b))
        pairs = kept
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, u, v


def reference_build(n, u, v):
    """The double-lexsort construction: (edges, indptr, indices)."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    edges = np.stack([lo[order], hi[order]], axis=1).astype(np.int32)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    indices = dst[np.lexsort((dst, src))].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return edges, indptr, indices


@st.composite
def component_inputs(draw):
    """(n, u, v): seeded pairs on up to 300 vertices as the engine may get them:
    grouped by u or in any order, either orientation, with repeated pairs,
    self-pairs and trailing vertices no pair touches."""
    used = draw(st.integers(1, 250))
    n = used + draw(st.integers(0, 50))
    rng = substream(draw(st.integers(0, 2 ** 32 - 1)))
    m = int(rng.integers(0, 3 * used + 1))
    u = rng.integers(0, used, m)
    v = rng.integers(0, used, m)
    if draw(st.booleans()):
        u = np.concatenate([u, u[:m // 3]])          # repeated pairs
        v = np.concatenate([v, v[:m // 3]])
    if draw(st.booleans()):
        loops = rng.integers(0, n, int(rng.integers(1, 10)))
        u, v = np.concatenate([u, loops]), np.concatenate([v, loops])
    orientation = draw(st.sampled_from(["as drawn", "lo-hi", "hi-lo", "mixed"]))
    if orientation != "as drawn":
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        flip = rng.random(len(u)) < 0.5 if orientation == "mixed" else orientation == "hi-lo"
        u, v = np.where(flip, hi, lo), np.where(flip, lo, hi)
    if draw(st.booleans()):
        order = np.argsort(u, kind="stable")          # rows arrive grouped
        u, v = u[order], v[order]
    return n, u, v


class TestConnectedComponents:
    @SETTINGS
    @given(edge_lists())
    def test_matches_bfs_with_repeats(self, case):
        n, u, v = case
        edges = np.stack([u, v], axis=1)
        got = rec.connected_components(n, edges)
        assert np.array_equal(got, bfs_components(n, edges.tolist()))

    @SETTINGS
    @given(component_inputs(), st.booleans())
    def test_engine_matches_bfs(self, case, as_rows):
        n, u, v = case
        if as_rows:
            # CSR rows as a caller holding rows passes them: row u holds v, the
            # columns of each row in descending order
            indptr = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=n))))
            rows = indptr, v[np.lexsort((-v, u))]
        else:
            rows = rec._pair_rows(n, u, v)
        count, comp = rec._components(n, *rows)
        want = bfs_components(n, zip(u.tolist(), v.tolist()))
        assert np.array_equal(comp, want)
        assert count == len(np.unique(want))

    @SETTINGS
    @given(component_inputs(), st.integers(0, 2 ** 32 - 1))
    def test_pair_rows_count_and_sort_each_row(self, case, seed):
        n, u, v = case
        want_ptr = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=n))))
        want_cols = [np.sort(v[u == i]) for i in range(n)]
        ascending = np.lexsort((v, u))                  # keys u * n + v ascend: no sort
        shuffled = substream(seed).permutation(len(u))  # the same pairs, sorted again
        assert np.all(np.diff(u[ascending] * n + v[ascending]) >= 0)
        for order in (ascending, shuffled):
            indptr, cols = rec._pair_rows(n, u[order], v[order])
            assert np.array_equal(indptr, want_ptr)
            for i in range(n):
                assert np.array_equal(cols[indptr[i]:indptr[i + 1]], want_cols[i])

    @pytest.mark.parametrize("group", [
        rec._pair_rows,
        lambda n, u, v: rec.connected_components(n, np.column_stack([u, v])),
        ana._components_from_edges,
    ], ids=["_pair_rows", "connected_components", "_components_from_edges"])
    @SETTINGS
    @given(component_inputs(), st.sampled_from(["u", "v"]), st.booleans(), st.data())
    def test_id_out_of_range_raises(self, group, case, end, grouped, data):
        # a key u * n + v hides v = n as the pair (u + 1, 0), so the ids are checked first
        n, u, v = case
        if not len(u):
            u, v = np.zeros(1, np.int64), np.zeros(1, np.int64)
        bad = data.draw(st.sampled_from([-1, -n, n, n + 1, 2 * n]))
        (u if end == "u" else v)[data.draw(st.integers(0, len(u) - 1))] = bad
        order = (np.argsort(u, kind="stable") if grouped
                 else substream(data.draw(st.integers(0, 2 ** 32 - 1))).permutation(len(u)))
        with pytest.raises(ValueError):
            group(n, u[order], v[order])


class TestFromEdges:
    @SETTINGS
    @given(edge_lists(allow_repeats=False))
    def test_matches_double_lexsort_build(self, case):
        n, u, v = case
        g = from_edges(n, u, v)
        edges, indptr, indices = reference_build(n, u, v)
        for got, want in ((g.edges, edges), (g.indptr, indptr), (g.indices, indices)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        g.validate()

    @SETTINGS
    @given(edge_lists(max_n=200, allow_repeats=False), st.data())
    def test_packed_rows_match_packbits(self, case, data):
        # the windows, put back at their starts, are the packbits rows of the
        # adjacency in the order pos
        n, u, v = case
        g = from_edges(n, u, v)
        pos = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        rows, starts = g.packed_rows(pos)
        nw = -(-n // 64)
        bw = int(np.abs(pos[u] - pos[v]).max(initial=0))
        w = min(nw, 2 * bw // 64 + 2)
        assert rows.shape == (n, w) and rows.dtype == np.uint64
        assert np.array_equal(starts, np.clip((np.arange(n) - bw) // 64, 0, nw - w))
        full = np.zeros((n, nw), dtype=np.uint64)
        for i in range(n):
            full[i, starts[i]:starts[i] + w] = rows[i]
        adj = np.zeros((n, n), dtype=bool)
        adj[np.ix_(pos, pos)] = g.adjacency_bool()
        bits = np.packbits(adj, axis=1)
        bits = np.concatenate([bits, np.zeros((n, 8 * nw - bits.shape[1]), np.uint8)], axis=1)
        assert np.array_equal(full, bits.view(np.uint64))
        # the layout stores the windows of its own order and nothing more: 8 n W bytes
        lpos, lrows, lstarts = g.layout
        lbw = int(np.abs(lpos[u] - lpos[v]).max(initial=0))
        lw = min(nw, 2 * lbw // 64 + 2)
        assert lrows.shape == (n, lw) and lrows.nbytes == 8 * n * lw
        assert all(np.array_equal(a, b) for a, b in zip((lrows, lstarts), g.packed_rows(lpos)))

    @SETTINGS
    @given(edge_lists(max_n=100, allow_repeats=False), st.data())
    def test_has_edges_matches_edge_set(self, case, data):
        n, u, v = case
        g = from_edges(n, u, v)
        edge_set = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        pairs += [(b, a) for a, b in zip(u.tolist(), v.tolist())]
        us = np.array([p[0] for p in pairs], dtype=np.int64)
        vs = np.array([p[1] for p in pairs], dtype=np.int64)
        want = [(min(a, b), max(a, b)) in edge_set for a, b in pairs]
        assert g.has_edges(us, vs).tolist() == want

    def test_has_edges_inside_and_outside_windows(self):
        # at n = 2 000 the circle graph's row windows are narrower than its
        # full rows, so pairs fall inside and on both sides of them; five
        # isolated vertices are appended
        n = 2000
        inst = gen.gen_gbm1(n, gen.radius_from_scale(6, n), gen.radius_from_scale(1, n), seed=7)
        g = from_edges(n + 5, inst.graph.edges[:, 0], inst.graph.edges[:, 1])
        pos, rows, starts = g.layout
        w = rows.shape[1]
        assert w < -(-g.n // 64)
        order = np.argsort(pos)
        rng = substream(31)
        near_u = rng.integers(0, g.n, 20000)
        near_v = order[np.clip(pos[near_u] + rng.integers(-64 * w - 64, 64 * w + 64, 20000), 0, g.n - 1)]
        far_u, far_v = rng.integers(0, g.n, (2, 5000))
        every = np.arange(g.n)
        # the columns just left and just right of each vertex's window
        left = order[np.maximum(64 * starts[pos] - 1, 0)]
        right = order[np.minimum(64 * (starts[pos] + w), g.n - 1)]
        isolated = np.arange(n, n + 5)
        us = np.concatenate([near_u, far_u, every, every, every, np.repeat(isolated, g.n),
                             g.edges[:, 1]])
        vs = np.concatenate([near_v, far_v, every, left, right, np.tile(every, 5), g.edges[:, 0]])
        off = pos[vs] - 64 * starts[pos[us]]
        assert (off < 0).any() and (off >= 64 * w).any()
        edge_set = set(map(tuple, g.edges.tolist()))
        want = [(min(a, b), max(a, b)) in edge_set for a, b in zip(us.tolist(), vs.tolist())]
        got = g.has_edges(us, vs)
        assert got.tolist() == want
        inside = (off >= 0) & (off < 64 * w)
        assert got[inside].any() and not got[inside].all()
        assert not got[~inside].any()
        e = empty_graph(g.n)
        assert not e.has_edges(us, vs).any()
        assert e.has_edges(us[:0], vs[:0]).shape == (0,)

    @pytest.mark.parametrize("k", [63, 64, 65, 128])
    def test_has_edges_every_pair_of_band_graphs(self, k):
        # u ~ v iff 0 < |u - v| <= k: the bandwidth is k, so where i - k or
        # i + k is a window's first or last column, that edge bit lies next
        # to the columns outside the window
        n = 700
        gap = np.subtract.outer(np.arange(n), np.arange(n))
        g = from_edges(n, *np.nonzero((gap > 0) & (gap <= k)))
        pos, rows, starts = g.layout
        assert rows.shape[1] < -(-n // 64) and starts.any()
        every = np.arange(n)
        assert np.array_equal(g.has_edges(every[:, None], every[None, :]), g.adjacency_bool())

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_has_edges_rejects_out_of_range(self, u, v):
        g = from_edges(5, [0, 1, 3], [1, 2, 4])
        with pytest.raises(ValueError, match="out of range"):
            g.has_edges(np.array([u, 0]), np.array([v, 1]))

    @SETTINGS
    @given(edge_lists(allow_repeats=False), st.integers(0, 10 ** 6))
    def test_repeated_pair_rejected(self, case, pick):
        n, u, v = case
        if len(u) == 0:
            return
        i = pick % len(u)
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(n, np.append(u, v[i]), np.append(v, u[i]))


def brute_force_two_colouring(n, pairs):
    """BFS over the signed constraint graph: (colourable, colour, component lists)."""
    adj = [[] for _ in range(n)]
    for a, b, same in pairs:
        adj[a].append((b, 0 if same else 1))
        adj[b].append((a, 0 if same else 1))
    colour = [-1] * n
    comps, ok = [], True
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        members, queue = [s], deque([s])
        while queue:
            x = queue.popleft()
            for y, flip in adj[x]:
                if colour[y] == -1:
                    colour[y] = colour[x] ^ flip
                    members.append(y)
                    queue.append(y)
                elif colour[y] != colour[x] ^ flip:
                    ok = False
        comps.append(sorted(members))
    return ok, np.array(colour), comps


@st.composite
def located_instances(draw):
    """Circle positions and radii on one grid (exact in binary), and a perturbed GBM graph:
    up to 24 positions on the 1/64 grid, or up to 200 on the 1/4096 grid."""
    grid, max_n = draw(st.sampled_from([(64, 24), (4096, 200)]))
    n = draw(st.integers(3, max_n))
    x = substream(draw(st.integers(0, 2 ** 32 - 1))).choice(grid, n, replace=False) / grid
    i_d = draw(st.integers(0, 24 * grid // 64))
    r_d, r_s = i_d / grid, draw(st.integers(i_d + 2, 32 * grid // 64)) / grid
    truth = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    uu, vv = np.triu_indices(n, 1)
    d = np.abs(x[uu] - x[vv])
    d = np.minimum(d, 1 - d)
    edge = np.where(truth[uu] == truth[vv], d <= r_s, d <= r_d)
    flips = draw(st.sets(st.integers(0, len(uu) - 1), max_size=3))
    edge[list(flips)] ^= True
    return x, r_s, r_d, from_edges(n, uu[edge], vv[edge]), (uu, vv, d, edge)


class TestRecoverWithLocations:
    @SETTINGS
    @given(located_instances())
    def test_agrees_with_bfs_two_colouring(self, inst):
        x, r_s, r_d, g, (uu, vv, d, edge) = inst
        n = len(x)
        band = (d >= r_d) & (d <= r_s)
        pairs = list(zip(uu[band].tolist(), vv[band].tolist(), edge[band].tolist()))
        colourable, colour, comps = brute_force_two_colouring(n, pairs)
        res = rec.recover_with_locations(g, x, r_s, r_d)
        assert res.constrained_pairs == len(pairs)
        assert res.components_count == len(comps)
        assert res.status == ("ok" if colourable else "conflict")
        if not colourable:
            assert res.labels is None
            return
        big = max(comps, key=lambda c: (len(c), -c[0]))
        assigned = np.flatnonzero(res.labels != rec.UNASSIGNED)
        assert assigned.tolist() == big
        # the smallest vertex of the labelled component gets 0
        assert np.array_equal(res.labels[big], colour[big])
        for a, b, same in pairs:
            if a in big:
                assert (res.labels[a] == res.labels[b]) == same


@st.composite
def component_ids(draw):
    """(n, comp): a partition of n vertices, each vertex named by its part's smallest member."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["drawn", "equal sizes", "one", "singletons"]))
    if shape == "drawn":
        part = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    elif shape == "equal sizes":
        k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        part = np.array(draw(st.permutations(list(range(k)) * (n // k))))
    elif shape == "one":
        part = np.zeros(n, dtype=np.int64)
    else:
        part = np.arange(n)
    first = {}
    comp = np.array([first.setdefault(p, i) for i, p in enumerate(part.tolist())], dtype=np.int64)
    return n, comp


class TestLabelTwoLargest:
    @SETTINGS
    @given(component_ids())
    def test_matches_brute_force_order(self, inst):
        n, comp = inst
        parts = {}
        for i, c in enumerate(comp.tolist()):
            parts.setdefault(c, []).append(i)
        ranked = sorted(parts.values(), key=lambda members: (-len(members), min(members)))
        expect = np.full(n, rec.UNASSIGNED, dtype=np.int8)
        for label, members in enumerate(ranked[:2]):
            expect[members] = label
        labels, info = rec._label_two_largest(n, comp)
        assert labels.dtype == np.int8
        assert np.array_equal(labels, expect)
        assert info == {"components_count": len(parts),
                        "largest_sizes": [len(m) for m in ranked[:2]]}


def brute_force_band(x, lo, hi):
    """All pairs i < j with lo^2 <= |x_i - x_j|^2 <= hi^2, sorted, with d2."""
    uu, vv = np.triu_indices(len(x), 1)
    d2 = np.sum((x[uu] - x[vv]) ** 2, axis=-1)
    keep = (d2 >= lo * lo) & (d2 <= hi * hi)
    return uu[keep], vv[keep], d2[keep]


@st.composite
def sphere_bands(draw):
    """(x, lo, hi): seeded points on S^t, some repeated, and a closed chord band."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    x = sample_sphere(substream(draw(st.integers(0, 2 ** 32 - 1))), max(n, 1), t)[:n]
    if n >= 2 and draw(st.booleans()):
        # coincident points: pairs at distance exactly 0
        reps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
        for i, j in reps:
            x[i] = x[j]
    uu, vv = np.triu_indices(n, 1)
    dists = np.sqrt(np.sum((x[uu] - x[vv]) ** 2, axis=-1)).tolist()
    # radii set exactly to pair distances, to the ends of [0, 2], or anywhere
    radius = st.sampled_from([0.0, 2.0] + dists[:20]) | st.floats(0.0, 2.0)
    lo, hi = sorted((draw(radius), draw(radius)))
    if draw(st.booleans()):
        lo = draw(st.sampled_from([0.0, hi]))
    return x, lo, hi


def pair_keys(n, u, v):
    return np.minimum(u, v).astype(np.int64) * max(n, 1) + np.maximum(u, v)


@st.composite
def circle_bands(draw):
    """(pos, lo, hi): circle positions on a 1/64 grid (exact in binary, with
    ties) or seeded floats, and a closed band with radii on the same grid."""
    n = draw(st.integers(0, 70))
    if draw(st.booleans()):
        pos = np.array(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)), float) / 64
    else:
        pos = sample_circle(substream(draw(st.integers(0, 2 ** 32 - 1))), max(n, 1))[:n]
    radius = st.integers(0, 48).map(lambda k: k / 64)
    lo, hi = draw(radius), draw(radius)
    shape = draw(st.sampled_from(["as drawn", "lo = 0", "lo = hi", "hi = 1/2", "hi > 1/2"]))
    if shape == "lo = 0":
        lo = 0.0
    elif shape == "lo = hi":
        lo = hi
    elif shape == "hi = 1/2":
        hi = 0.5
    elif shape == "hi > 1/2":
        hi = draw(st.integers(33, 64)) / 64
    return pos, lo, hi


@st.composite
def circle_band_lists(draw):
    """(pos, bands): positions on a 1/64 grid with ties, and one to four
    closed bands on the same grid, in any order: overlapping, nested,
    touching, lo > hi and hi > 1/2 all arise."""
    n = draw(st.integers(0, 120))
    pos = substream(draw(st.integers(0, 2 ** 32 - 1))).integers(0, 64, n) / 64
    radius = st.integers(0, 48).map(lambda k: k / 64)
    return pos, draw(st.lists(st.tuples(radius, radius), min_size=1, max_size=4))


class TestCircleBandPairs:
    @SETTINGS
    @given(circle_bands())
    def test_matches_brute_force(self, case):
        pos, lo, hi = case
        n = len(pos)
        order, indptr, cols = gen._circle_band_rows(pos, [(lo, hi)])
        # well-formed rank-order rows: ranks sort the positions, and each
        # row's columns lie after it, in range and ascending
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.all(np.diff(pos[order]) >= 0)
        assert len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == len(cols)
        assert np.all(np.diff(indptr) >= 0)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.all((cols > rows) & (cols < n))
        assert np.all(np.diff(rows * max(n, 1) + cols) > 0)
        # the vertex-id view holds every pair at distance in [lo, hi] once
        u, v, d = gen._circle_band_pairs(pos, [(lo, hi)])
        uu, vv = np.triu_indices(n, 1)
        dist = np.abs(pos[uu] - pos[vv])
        dist = np.minimum(dist, 1 - dist)
        band = (dist >= lo) & (dist <= hi)
        keys = pair_keys(n, u, v)
        assert np.all(u != v)
        assert len(np.unique(keys)) == len(keys)
        order = np.argsort(keys)
        assert np.array_equal(keys[order], pair_keys(n, uu[band], vv[band]))
        assert np.array_equal(d[order], dist[band])

    @pytest.mark.parametrize("lo, hi", [(0.0, 3 / 64), (5 / 64, 20 / 64), (16 / 64, 0.5)])
    def test_tied_positions_match_brute_force(self, lo, hi):
        # 2000 positions on a 1/64 grid: about 31 vertices share each position
        n = 2000
        pos = substream(37).integers(0, 64, n) / 64
        u, v, _ = gen._circle_band_pairs(pos, [(lo, hi)])
        uu, vv = np.triu_indices(n, 1)
        dist = np.abs(pos[uu] - pos[vv])
        dist = np.minimum(dist, 1 - dist)
        band = (dist >= lo) & (dist <= hi)
        assert np.array_equal(np.sort(pair_keys(n, u, v)), pair_keys(n, uu[band], vv[band]))

    @SETTINGS
    @given(circle_band_lists())
    def test_band_list_matches_brute_force(self, case):
        # unsorted, overlapping, nested, touching and empty bands: the rows
        # hold the union, each pair once and each row ascending
        pos, bands = case
        n = len(pos)
        order, indptr, cols = gen._circle_band_rows(pos, bands)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.all((cols > rows) & (cols < n))
        assert np.all(np.diff(rows * max(n, 1) + cols) > 0)
        u, v, _ = gen._circle_band_pairs(pos, bands)
        uu, vv = np.triu_indices(n, 1)
        dist = np.abs(pos[uu] - pos[vv])
        dist = np.minimum(dist, 1 - dist)
        union = np.zeros(len(dist), dtype=bool)
        for lo, hi in bands:
            union |= (dist >= lo) & (dist <= hi)
        keys = np.sort(pair_keys(n, u, v))
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(keys, pair_keys(n, uu[union], vv[union]))

    @SETTINGS
    @given(circle_band_lists(), st.data())
    def test_split_band_gives_same_pairs(self, case, data):
        # a band cut at a point c, on the grid or anywhere in it, lists the
        # pairs of the whole band in the same order
        pos, bands = case
        lo, hi = bands[0]
        lo, hi = min(lo, hi), max(lo, hi)
        c = data.draw(st.sampled_from([lo, hi, (lo + hi) / 2]) | st.floats(lo, hi))
        whole = gen._circle_band_pairs(pos, [(lo, hi)])
        split = gen._circle_band_pairs(pos, [(c, hi), (lo, c)])
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)


@st.composite
def circle_band_unions(draw):
    """(p, bands): sorted positions with ties and one to three closed bands, lo > hi (an
    empty band) included.  Positions and radii lie on one grid, exact in binary: 1/64 with
    up to 300 positions and radii up to 40/64, or 1/4096 with up to 2 000 positions and
    radii up to 40/4096, where runs span several ranges, run edges repeat and a few ranks
    have non-empty wrap windows.  A band near 1/2 keeps the pairs few at any n."""
    grid, max_n = draw(st.sampled_from([(64, 300), (4096, 2000)]))
    n = draw(st.integers(1, max_n))
    p = np.sort(substream(draw(st.integers(0, 2 ** 32 - 1))).integers(0, grid, n) / grid)
    radius = st.integers(0, 40).map(lambda k: k / grid)
    bands = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(radius), draw(radius)
        shape = draw(st.sampled_from(["as drawn", "lo = 0", "hi >= 1/2", "near 1/2"]))
        if shape == "lo = 0":
            lo = 0.0
        elif shape == "hi >= 1/2":
            hi = draw(st.integers(grid // 2, grid)) / grid
        elif shape == "near 1/2":
            lo, hi = max(0.5 - lo, 0.0), 0.5 + hi
        bands.append((lo, hi))
    return p, bands


def band_union_reference(p, bands):
    """(connected, isolated, ncomp) from the expanded pairs of every band."""
    n = len(p)
    us, vs = [], []
    for lo, hi in bands:
        order, indptr, cols = gen._circle_band_rows(p, [(lo, hi)])
        us.append(order[np.repeat(np.arange(n), np.diff(indptr))])
        vs.append(order[cols])
    u, v = np.concatenate(us), np.concatenate(vs)
    isolated = int((np.bincount(u, minlength=n) + np.bincount(v, minlength=n) == 0).sum())
    ncomp = rec._components(n, *rec._pair_rows(n, u, v))[0]
    return ncomp == 1, isolated, ncomp


class TestCircleBandsConnectivity:
    @SETTINGS
    @given(circle_band_unions())
    def test_matches_pair_reference(self, case):
        p, bands = case
        assert ana._circle_bands_connectivity(p, bands) == band_union_reference(p, bands)

    @pytest.mark.parametrize("family", ["rag1", "interval_union"])
    @pytest.mark.parametrize("a, b", [(1.6, 1.0), (1.6, 1.3), (0.9, 0.0)])
    def test_phase_trial_matches_pair_path(self, family, a, b):
        # the criterion-4 points at n = 5e4: the trial's tuple is that of the
        # graphs of the generators; at b = 0 the short band [0, 0] shares
        # its pairs with the long one, and at c = b the two bands touch
        n = 50_000
        c = min(b, 0.5)
        ln = np.log(n)
        for seed in range(3):
            if family == "rag1":
                g, _ = gen.gen_rag1(n, b * ln / n, a * ln / n, (seed, 0, 0))
            else:
                ivs = gen.IntervalSet(((0.0, c * ln / n), (b * ln / n, a * ln / n)))
                g, _ = gen.gen_interval_union_graph(n, ivs, (seed, 0, 0))
            ncomp = rec._components(n, g.indptr, g.indices)[0]
            iso = int((g.degrees() == 0).sum())
            got = ana._phase_trial(family, n, c, 1, a, b, (seed, 0, 0))
            assert got == (ncomp == 1, iso > 0, ncomp)


class TestSpherePairsWithin:
    @SETTINGS
    @given(sphere_bands())
    def test_matches_brute_force(self, case):
        x, lo, hi = case
        n = len(x)
        u, v, d2 = gen._sphere_pairs_within(x, lo, hi)
        ru, rv, rd2 = brute_force_band(x, lo, hi)
        assert np.all(u < v)
        order = np.argsort(pair_keys(n, u, v))
        assert np.array_equal(pair_keys(n, u, v)[order], pair_keys(n, ru, rv))
        assert np.array_equal(d2[order], rd2)


@st.composite
def pole_instances(draw):
    """(x, r2, graph): circle points on a 1/64 grid or sphere points, and a graph
    holding most pairs within r2 plus a few pairs beyond it."""
    n = draw(st.integers(1, 30))
    uu, vv = np.triu_indices(n, 1)
    if draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)), float) / 64
        r2 = draw(st.integers(0, 32)) / 64
        d = np.abs(x[uu] - x[vv])
        within = np.minimum(d, 1 - d) <= r2
    else:
        x = sample_sphere(substream(draw(st.integers(0, 2 ** 32 - 1))), n, draw(st.integers(1, 3)))
        r2 = draw(st.floats(0.0, 2.0))
        within = np.sum((x[uu] - x[vv]) ** 2, axis=-1) <= r2 * r2
    flips = draw(st.sets(st.integers(0, max(len(uu) - 1, 0)), max_size=4)) if len(uu) else set()
    edge = within.copy()
    edge[list(flips)] ^= True
    return x, r2, within, from_edges(n, uu[edge], vv[edge])


class TestFindPole:
    @SETTINGS
    @given(pole_instances())
    def test_matches_brute_force(self, inst):
        x, r2, within, g = inst
        n = len(x)
        uu, vv = np.triu_indices(n, 1)
        missing = within & ~g.adjacency_bool()[uu, vv]
        bad = np.zeros(n, bool)
        bad[uu[missing]] = True
        bad[vv[missing]] = True
        want = int(np.argmin(bad)) if not bad.all() else None
        assert ana.find_pole(g, x, r2) == want


def gram_scan_edges(x, hit_fn):
    """The former blocked Gram scan: pairs i < j where hit_fn(d2, i0, i1) holds
    for the (block, n) matrix d2 = clip(2 - 2 x_i.x_j, 0) of rows i0..i1."""
    n = len(x)
    us, vs = [], []
    for i0 in range(0, n, 2048):
        i1 = min(i0 + 2048, n)
        d2 = np.clip(2.0 - 2.0 * (x[i0:i1] @ x.T), 0.0, None)
        hit = hit_fn(d2, i0, i1)
        hit &= np.arange(n)[None, :] > np.arange(i0, i1)[:, None]
        bi, bj = np.nonzero(hit)
        us.append(bi + i0)
        vs.append(bj)
    return from_edges(n, np.concatenate(us), np.concatenate(vs)).edges


class TestGramScanRegression:
    """The k-d tree generators reproduce the edge sets of the former Gram scan."""

    @pytest.mark.parametrize("t, r_s, r_d, seed", [
        (2, 0.25, 0.1, 1), (2, 0.6, 0.45, 2), (3, 0.5, 0.2, 3), (3, 1.3, 0.9, 4),
    ])
    def test_gbm_t(self, t, r_s, r_d, seed):
        inst = gen.gen_gbm_t(1500, t, r_s, r_d, seed)
        labels = inst.truth

        def hit_fn(d2, i0, i1):
            same = labels[i0:i1, None] == labels[None, :]
            return d2 <= np.where(same, r_s * r_s, r_d * r_d)

        assert np.array_equal(inst.graph.edges, gram_scan_edges(inst.embeddings, hit_fn))

    @pytest.mark.parametrize("t, r1, r2, seed", [
        (2, 0.05, 0.25, 5), (2, 0.0, 0.7, 6), (3, 0.3, 0.5, 7), (1, 0.1, 0.4, 8),
    ])
    def test_rag_t(self, t, r1, r2, seed):
        g, x = gen.gen_rag_t(1500, t, r1, r2, seed)

        def hit_fn(d2, i0, i1):
            return (d2 >= r1 * r1) & (d2 <= r2 * r2)

        assert np.array_equal(g.edges, gram_scan_edges(x, hit_fn))


@st.composite
def dense_runs(draw):
    """(oracle, n, plan, seed) over a small planted instance and an arbitrary plan."""
    n = 2 * draw(st.integers(3, 60))
    x = sample_sphere(substream(draw(st.integers(0, 2 ** 32 - 1))), n, 2)
    labels = np.zeros(n, np.int8)
    labels[n // 2:] = 1
    r_d = draw(st.floats(0.05, 1.5))
    r_s = draw(st.floats(r_d + 0.05, 2.0))
    h = draw(st.integers(2, n))
    g = draw(st.integers(1, max(1, h // 3)))
    e_s = draw(st.floats(0.0, float(h)))
    e_d = draw(st.floats(-1.0, float(h)))
    plan = DensePlan(n=n, t=2, r_s=r_s, r_d=r_d, g=g, h=h, g_formula=g,
                     E_S=e_s, E_D=e_d, theta_S=1.0, theta_D=1.0)
    if draw(st.booleans()):
        oracle = dn.GbmEdgeOracle(x, labels, r_s, r_d)
    else:
        same = labels[:, None] == labels[None, :]
        d2 = np.sum((x[:, None] - x[None, :]) ** 2, axis=-1)
        adj = np.triu(d2 <= np.where(same, r_s * r_s, r_d * r_d), 1)
        oracle = dn.GraphEdgeOracle(from_edges(n, *np.nonzero(adj)))
    return oracle, n, plan, draw(st.integers(0, 2 ** 32 - 1))


class TestDenseQueryAccounting:
    @SETTINGS
    @given(dense_runs())
    def test_queries_used_is_exact(self, run):
        oracle, n, plan, seed = run
        res = dn.dense_recover(oracle, n, 2, plan.r_s, plan.r_d, plan, seed)
        h, g = plan.h, plan.g
        assert res.queries_used == oracle.queries
        if res.status == "ok":
            assert res.queries_used == h * (h - 1) // 2 + (n - h) * 2 * g
            assert res.queries_used == plan.query_budget
        else:
            assert res.status == "phase1_degenerate"
            assert res.queries_used == h * (h - 1) // 2
            assert np.all(res.labels == rec.UNASSIGNED)


class TestProbeRecord:
    """`EdgeOracle.queries` against a brute-force set of the pairs probed so far."""

    @SETTINGS
    @given(st.data())
    def test_queries_and_answers_over_interleaved_probes(self, data):
        n = data.draw(st.integers(2, 24))
        if data.draw(st.booleans()):
            x = sample_sphere(substream(data.draw(st.integers(0, 2 ** 32 - 1))), n, 2)
            labels = np.arange(n) % 2
            r_d, r_s = sorted((data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(0.1, 2.0))))
            oracle = dn.GbmEdgeOracle(x, labels, r_s, r_d)
            d2 = ((x[:, None] - x[None, :]) ** 2).sum(axis=-1)
            rule = d2 <= np.where(labels[:, None] == labels[None, :], r_s * r_s, r_d * r_d)
        else:
            upper = np.triu(substream(data.draw(st.integers(0, 2 ** 32 - 1))).random((n, n)) < 0.5, 1)
            oracle = dn.GraphEdgeOracle(from_edges(n, *np.nonzero(upper)))
            rule = upper | upper.T
        probed = set()
        vertex = st.integers(0, n - 1)
        cols = None
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["pairs", "block", "cross"]))
            if kind == "pairs":
                pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                                           max_size=30))
                us = np.array([p[0] for p in pairs], dtype=np.int64)
                vs = np.array([p[1] for p in pairs], dtype=np.int64)
                got, want = oracle.query_pairs(us, vs), rule[us, vs]
                probed |= {(min(p), max(p)) for p in pairs}
            elif kind == "block":
                sample = np.array(data.draw(st.lists(vertex, unique=True)), dtype=np.int64)
                got = oracle.query_block(sample)
                want = rule[np.ix_(sample, sample)] & ~np.eye(len(sample), dtype=bool)
                probed |= {(min(a, b), max(a, b)) for a in sample for b in sample if a != b}
            else:
                if cols is not None and data.draw(st.booleans()):
                    # phase 2's pattern: other rows against the last cross call's cols,
                    # as they were (the record then shares its array) or permuted
                    if data.draw(st.booleans()):
                        cols = np.array(data.draw(st.permutations(cols.tolist())), np.int64)
                    rest = sorted(set(range(n)) - set(cols.tolist()))
                    rows = np.array(data.draw(st.lists(st.sampled_from(rest), unique=True))
                                    if rest else [], np.int64)
                else:
                    both = data.draw(st.lists(vertex, unique=True, min_size=1))
                    k = data.draw(st.integers(0, len(both)))
                    rows, cols = np.array(both[:k], np.int64), np.array(both[k:], np.int64)
                got = oracle.query_cross(rows, cols)
                want = rule[np.ix_(rows, cols)]
                probed |= {(min(a, b), max(a, b)) for a in rows for b in cols}
            assert np.array_equal(got, want)
            assert oracle.queries == len(probed)

    def test_fresh_rows_against_fixed_cols_look_nothing_up(self, monkeypatch):
        # `dense_recover`'s pattern: a sample block, then blocks of fresh rows
        # against probes from the sample.  No pair of a cross block has two
        # touched ends, so the bookkeeping makes no `np.isin` call and stays
        # linear in the rows, however many blocks came before
        n = 2000
        oracle = dn.GbmEdgeOracle(sample_sphere(substream(6), n, 2), np.arange(n) % 2, 0.6, 0.4)
        sample = np.arange(0, n, 7)
        oracle.query_block_bits(sample)
        calls = []
        isin = np.isin
        monkeypatch.setattr(np, "isin", lambda *a, **k: calls.append(1) or isin(*a, **k))
        probes = sample[::5]
        rest = np.setdiff1d(np.arange(n), sample)
        for i0 in range(0, len(rest), 100):
            oracle.query_cross(rest[i0:i0 + 100], probes)
        assert calls == []
        h = len(sample)
        assert oracle.queries == h * (h - 1) // 2 + len(rest) * len(probes)
        oracle.query_cross(rest[:3], probes)      # a re-probe does look up
        assert calls and oracle.queries == h * (h - 1) // 2 + len(rest) * len(probes)


class TestSymmetricBlock:
    """`query_block` answers each unordered pair once, by row chunks, and mirrors it."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_block_equals_rule_and_is_symmetric(self, data):
        # past h = 724 a row chunk (2^19 // h rows) is shorter than the block,
        # so the larger samples span several chunks and the smaller ones one
        n = data.draw(st.integers(1100, 1400))
        rng = substream(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = sample_sphere(rng, n, 2)
        labels = rng.integers(0, 2, n)
        r_d, r_s = sorted((data.draw(st.floats(0.3, 1.5)), data.draw(st.floats(0.3, 1.5))))
        # the rule on every ordered pair, summed coordinate by coordinate
        d2 = sum((x[:, k, None] - x[None, :, k]) ** 2 for k in range(x.shape[1]))
        rule = d2 <= np.where(labels[:, None] == labels[None, :], r_s * r_s, r_d * r_d)
        del d2
        if data.draw(st.booleans()):
            oracle = dn.GbmEdgeOracle(x, labels, r_s, r_d)
        else:
            oracle = dn.GraphEdgeOracle(from_edges(n, *np.nonzero(np.triu(rule, 1))))
        h = data.draw(st.one_of(st.integers(0, 60), st.integers(700, n)))
        sample = rng.choice(n, h, replace=False)
        got = oracle.query_block(sample)
        want = rule[np.ix_(sample, sample)] & ~np.eye(h, dtype=bool)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T)
        assert oracle.queries == h * (h - 1) // 2

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_bits_equal_rule_with_zero_padding(self, data):
        # h % 8 != 0 leaves padding bits in the last byte of a row; past
        # h = 724 the answer chunks (a multiple of 8 rows) split the block
        n = data.draw(st.integers(900, 1200))
        rng = substream(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = sample_sphere(rng, n, 2)
        labels = rng.integers(0, 2, n)
        r_d, r_s = sorted((data.draw(st.floats(0.3, 1.5)), data.draw(st.floats(0.3, 1.5))))
        d2 = sum((x[:, k, None] - x[None, :, k]) ** 2 for k in range(x.shape[1]))
        rule = d2 <= np.where(labels[:, None] == labels[None, :], r_s * r_s, r_d * r_d)
        del d2
        graph = from_edges(n, *np.nonzero(np.triu(rule, 1)))
        make = (lambda: dn.GbmEdgeOracle(x, labels, r_s, r_d)) if data.draw(st.booleans()) \
            else (lambda: dn.GraphEdgeOracle(graph))
        h = data.draw(st.one_of(st.integers(0, 70), st.integers(725, n)))
        sample = rng.choice(n, h, replace=False)      # unsorted
        oracle, twin = make(), make()
        words = oracle.query_block_bits(sample)
        nw = -(-h // 64)
        assert words.dtype == np.uint64 and words.shape == (h, nw) and words.nbytes == 8 * h * nw
        bits = np.unpackbits(words.view(np.uint8), axis=1).view(bool)
        got = bits[:, :h]
        want = rule[np.ix_(sample, sample)] & ~np.eye(h, dtype=bool)
        assert np.array_equal(got, want)
        assert not bits[:, h:].any()
        assert np.array_equal(got, got.T)
        twin.query_block(sample)
        assert oracle.queries == twin.queries == h * (h - 1) // 2


@st.composite
def count_graphs(draw):
    """(graph, us, vs): up to three parts (random of any density, ring lattice
    or path band) plus isolated vertices, under a random labelling, and the
    pairs to count: every edge and some random pairs u != v."""
    rng = substream(draw(st.integers(0, 2 ** 32 - 1)))
    us, vs, n = [], [], 0
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["random", "ring", "band"]))
        size = draw(st.integers(3, 150))
        if kind == "random":
            u, v = np.nonzero(np.triu(rng.random((size, size)) < draw(st.floats(0.0, 1.0)), 1))
        else:
            k = draw(st.integers(1, (size - 1) // 2))
            u = np.repeat(np.arange(size), k)
            v = u + np.tile(np.arange(1, k + 1), size)
            keep = v < size if kind == "band" else slice(None)
            u, v = u[keep], v[keep] % size
        us.append(u + n)
        vs.append(v + n)
        n += size
    n += draw(st.integers(0, 70))
    label = rng.permutation(n)
    u = label[np.concatenate(us)] if us else np.empty(0, np.int64)
    v = label[np.concatenate(vs)] if vs else np.empty(0, np.int64)
    g = from_edges(n, u, v)
    pu, pv = (rng.integers(0, n, 50), rng.integers(0, n, 50)) if n else (u, v)
    keep = pu != pv
    return g, np.concatenate([g.edges[:, 0], pu[keep]]), np.concatenate([g.edges[:, 1], pv[keep]])


class TestCommonNeighborCounts:
    """Windowed bit-packed counts against a per-pair sorted-merge oracle."""

    @settings(max_examples=150, deadline=None)
    @given(count_graphs())
    def test_matches_intersect1d(self, case):
        g, us, vs = case
        got = rec.bulk_common_neighbor_counts(g, us, vs)
        want = [common_neighbor_count(g, a, b) for a, b in zip(us.tolist(), vs.tolist())]
        assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("k", [5, 40, 90])
    def test_far_pairs_in_band(self, k):
        # windows of pairs more than W words apart do not overlap, while the
        # edge words of every window hold bits
        n = 1500
        u = np.repeat(np.arange(n), k)
        v = u + np.tile(np.arange(1, k + 1), n)
        keep = v < n
        label = substream(k).permutation(n)
        g = from_edges(n, label[u[keep]], label[v[keep]])
        pairs = substream(k + 1).integers(0, n, (2, 3000))
        us, vs = pairs[:, pairs[0] != pairs[1]]
        got = rec.bulk_common_neighbor_counts(g, us, vs)
        assert got.tolist() == [common_neighbor_count(g, a, b) for a, b in zip(us.tolist(), vs.tolist())]

    def test_packed_rows_memory_is_chunk_bounded(self):
        # a path band with about 1e6 adjacency entries: the bits are set
        # row chunk by row chunk, so the call holds its packing plus a few
        # chunk-sized index arrays, not 2m-sized ones (16 MB at int64)
        n, k = 50_000, 10
        u = np.repeat(np.arange(n), k)
        v = u + np.tile(np.arange(1, k + 1), n)
        keep = v < n
        g = from_edges(n, u[keep], v[keep])
        pos = np.arange(n, dtype=np.int64)
        tracemalloc.start()
        try:
            rows, starts = g.packed_rows(pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 8 << 18        # one int64 array of a chunk's 2^18 entries
        assert len(g.indices) > 990_000
        assert peak < rows.nbytes + starts.nbytes + 5 * chunk
        assert rows.shape == (n, 2 * k // 64 + 2)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 200])
    def test_complete_graph_full_width(self, n):
        # every order of K_n has bandwidth n - 1, so each window is the full row
        u, v = np.triu_indices(n, 1)
        g = from_edges(n, u, v)
        rows, starts = g.packed_rows(np.arange(n))
        assert rows.shape[1] == -(-n // 64) and not starts.any()
        counts = rec.bulk_common_neighbor_counts(g, g.edges[:, 0], g.edges[:, 1])
        assert np.all(counts == n - 2)


#: coordinates that print in full only with 17 significant digits, or by sign
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1 - 2 ** -53, 0.5]),
                   st.floats(allow_nan=False, allow_infinity=False))
#: CSV cells of every type the CLI writes, and more
CELLS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(),
                  st.text(alphabet="abz019 .-_:;", max_size=6))


class TestTextWriters:
    """Each writer prints what the per-row formatter it replaced printed, in
    chunks of 1 to 4 rows here (2^16 in use), and reads back equal."""

    @staticmethod
    def written(write, read, chunk):
        """(text, read(path) or None) of the file that write(path) leaves, `chunk` rows a string."""
        with tempfile.TemporaryDirectory() as d, mock.patch.object(gr, "_WRITE_CHUNK", chunk):
            path = os.path.join(d, "f.txt")
            write(path)
            with open(path, newline="") as fh:
                return fh.read(), read(path) if read else None

    @SETTINGS
    @given(edge_lists(allow_repeats=False), st.integers(1, 3), st.integers(1, 4))
    def test_graph(self, case, t, chunk):
        g = from_edges(*case)
        text, (back, t_back) = self.written(lambda p: gr.write_graph(p, g, t), gr.read_graph, chunk)
        assert text == f"{g.n} {g.m} {t}\n" + "".join(f"{u} {v}\n" for u, v in g.edges.tolist())
        assert t_back == t and back.n == g.n
        assert np.array_equal(back.indptr, g.indptr) and np.array_equal(back.indices, g.indices)

    @SETTINGS
    @given(st.integers(0, 30), st.sampled_from([(), (1,), (3,)]), st.data(), st.integers(1, 4))
    def test_embeddings(self, n, cols, data, chunk):
        size = n * (cols[0] if cols else 1)
        pts = np.array(data.draw(st.lists(COORDS, min_size=size, max_size=size)), dtype=float)
        pts = pts.reshape((n,) + cols)
        text, back = self.written(lambda p: gr.write_embeddings(p, pts),
                                  gr.read_embeddings if n else None, chunk)
        assert text == "".join(",".join(f"{x:.17g}" for x in np.atleast_1d(row)) + "\n"
                               for row in np.atleast_2d(pts.T).T)
        if n:
            want = pts if cols == (3,) else pts.reshape(n)
            assert back.shape == want.shape and np.array_equal(back, want)
            assert np.array_equal(np.signbit(back), np.signbit(want))

    @SETTINGS
    @given(st.lists(st.one_of(st.just(-1), st.integers(-1, 2 ** 62))),
           st.sampled_from([np.int64, np.int32, object]), st.integers(1, 4))
    def test_labels(self, values, dtype, chunk):
        if dtype is np.int32:
            values = [min(x, 2 ** 31 - 1) for x in values]
        labels = np.array(values, dtype=dtype)
        text, back = self.written(lambda p: gr.write_labels(p, labels),
                                  gr.read_labels if values else None, chunk)
        assert text == "".join(f"{int(x)}\n" for x in labels)
        if values:
            assert back.dtype == np.int64 and back.tolist() == values

    @SETTINGS
    @given(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]),
           st.integers(0, 12), st.sampled_from(["%d\n", "%d %d\n", "%d,%d\t"]), st.data(),
           st.integers(1, 4))
    def test_integer_rows(self, dtype, k, row_format, data, chunk):
        # the digit path prints what `%` formatting prints, each dtype's extremes
        # (-2^63 and 2^64 - 1 among them) and empty arrays included, on two threads
        info = np.iinfo(dtype)
        ints = st.one_of(st.sampled_from([info.min, info.max, 0, 9, 10]),
                         st.integers(info.min, info.max))
        c = row_format.count("%")
        rows = np.array(data.draw(st.lists(ints, min_size=k * c, max_size=k * c)),
                        dtype=dtype).reshape(k, c)
        stream = io.StringIO()
        with mock.patch.object(gr, "_WRITE_CHUNK", chunk), mock.patch.object(dn, "THREADS", 2):
            gr._write_rows(stream, row_format, rows)
        assert stream.getvalue() == (row_format * k) % tuple(rows.ravel().tolist())

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4])
    def test_int8_labels(self, chunk):
        labels = np.array([-1, 0, 1, -1, 127, -128, 5], dtype=np.int8)
        text, back = self.written(lambda p: gr.write_labels(p, labels), gr.read_labels, chunk)
        assert text == "".join(f"{x}\n" for x in labels.tolist())
        assert back.tolist() == labels.tolist()

    @staticmethod
    def read_body(body, m, halves):
        """read_graph of a file with header `30 m 1` and `body`, its edge lines read in two
        parts when `halves`, else in one."""
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(gr, "_READ_HALVES", 0 if halves else 1 << 62), \
                mock.patch.object(dn, "THREADS", 2):
            path = os.path.join(d, "g.txt")
            with open(path, "w", newline="") as fh:
                fh.write(f"30 {m} 1\n" + body)
            return gr.read_graph(path)[0]

    @SETTINGS
    @given(edge_lists(allow_repeats=False), st.sampled_from(["\n", "\r\n", "\n\n", " \t\n", "\t\r\n \n"]),
           st.sampled_from(["", "\n", " \n\t\n\n\n\n\n\n\n\n\n\n\n\n"]), st.booleans())
    def test_graph_read_in_halves(self, case, end, tail, last_end):
        # blank lines, CRLF, tabs, no line end after the last edge and a blank
        # second half all read as one np.fromstring of the whole body reads
        n, u, v = case
        lines = [f"{a}\t{b}" if i % 3 else f"{a} {b}" for i, (a, b) in enumerate(zip(u, v))]
        body = end.join(lines) + (end if last_end else "") + tail
        ends = np.fromstring(body, dtype=np.int64, sep=" ") if body.strip() else np.empty(0, np.int64)
        want = from_edges(30, ends[0::2], ends[1::2])
        for halves in (True, False):
            g = self.read_body(body, len(u), halves)
            assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)

    @pytest.mark.parametrize("bad", [0, 5, 9])
    @pytest.mark.parametrize("token", ["x", "2.5", "1e3", "0x1"])
    def test_bad_token_in_either_half(self, bad, token):
        # ten lines: the cut falls after line 5, so line 0 is in the first half
        # and line 9 in the second
        lines = [f"{i} {i + 1}" for i in range(10)]
        lines[bad] = f"{bad} {token}"
        for halves in (True, False):
            with pytest.raises(ValueError, match=r"g.txt: edge lines hold a token that is not an integer$"):
                self.read_body("\n".join(lines) + "\n", 10, halves)

    @SETTINGS
    @given(st.integers(1, 4), st.data(), st.integers(1, 4))
    def test_csv(self, ncols, data, chunk):
        header = ",".join(f"c{j}" for j in range(ncols))
        if data.draw(st.booleans()):
            table = data.draw(st.lists(st.tuples(*[CELLS] * ncols), min_size=1, max_size=20))
            rows = np.array(table, dtype=object)
        else:
            # an integer array, as recover's decisions are
            ints = st.integers(-2 ** 63, 2 ** 63 - 1)
            rows = np.array(data.draw(st.lists(st.tuples(*[ints] * ncols), min_size=1,
                                               max_size=20)), dtype=np.int64)
            table = rows.tolist()
        assert rows.shape == (len(table), ncols)
        text, _ = self.written(lambda p: cli._emit_csv(p, header, rows, {"cmd": "test"}),
                               None, chunk)
        comment, head, body = text.split("\n", 2)
        assert comment.startswith("# schema=gbm-lab/1 ")
        assert comment.endswith('params={"cmd": "test"}')
        assert head == header
        assert body == "".join(",".join(str(x) for x in row) + "\n" for row in table)
