"""Property tests of the graph core: construction, components and parity recovery."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmlab import recovery as rec
from gbmlab.graph import from_edges
from test_recovery import bfs_components

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


class TestConnectedComponents:
    @SETTINGS
    @given(edge_lists())
    def test_matches_bfs_with_repeats(self, case):
        n, u, v = case
        edges = np.stack([u, v], axis=1)
        got = rec.connected_components(n, edges)
        assert np.array_equal(got, bfs_components(n, edges.tolist()))


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
    @given(edge_lists(allow_repeats=False))
    def test_packed_rows_match_packbits(self, case):
        n, u, v = case
        g = from_edges(n, u, v)
        bits = np.packbits(g.adjacency_bool(), axis=1)
        pad = (-bits.shape[1]) % 8
        bits = np.concatenate([bits, np.zeros((n, pad), np.uint8)], axis=1)
        assert np.array_equal(g.packed_rows(), bits.view(np.uint64))

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
    """Circle positions on a 1/64 grid (exact in binary), radii and a perturbed GBM graph."""
    slots = draw(st.lists(st.integers(0, 63), min_size=3, max_size=24, unique=True))
    n = len(slots)
    x = np.array(slots, dtype=float) / 64
    i_d = draw(st.integers(0, 24))
    r_d, r_s = i_d / 64, draw(st.integers(i_d + 2, 32)) / 64
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
