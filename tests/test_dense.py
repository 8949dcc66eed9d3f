import concurrent.futures.thread
import functools
import importlib.util
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gbmlab import analysis as ana
from gbmlab import dense as dn
from gbmlab import generators as gen
from gbmlab import recovery as rec
from gbmlab import thresholds as th
from gbmlab.geometry import sample_sphere, squared_chord
from gbmlab.graph import from_edges
from gbmlab.rng import substream


def make_instance(n, t, r_s, r_d, seed):
    emb = sample_sphere(substream(seed), n, t)
    labels = np.zeros(n, np.int8)
    labels[n // 2:] = 1
    return emb, labels


class Parity(dn.EdgeOracle):
    """An oracle whose edges join vertices of equal parity."""

    def _rule(self):
        return lambda us, vs: (us + vs) % 2 == 0


class TestEdgeOracle:
    def test_purity_and_counting(self):
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        a1 = orc.query_pairs([0, 1, 2], [5, 6, 7])
        q1 = orc.queries
        assert q1 == 3
        a2 = orc.query_pairs([5, 1], [0, 6])   # same pairs, reversed/mixed
        assert orc.queries == q1
        assert a2[0] == a1[0] and a2[1] == a1[1]

    def test_duplicates_within_one_call(self):
        inst = gen.gen_gbm_t(20, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        orc.query_pairs([0, 0, 1], [1, 1, 0])
        assert orc.queries == 1

    def test_block_counting(self):
        inst = gen.gen_gbm_t(40, 2, 0.6, 0.3, seed=3)
        orc = dn.GraphEdgeOracle(inst.graph)
        sample = np.arange(0, 30)
        adj = orc.query_block(sample)
        assert orc.queries == 30 * 29 // 2
        orc.query_block(sample)    # re-probing is free
        assert orc.queries == 30 * 29 // 2
        want = inst.graph.adjacency_bool()[np.ix_(sample, sample)]
        assert np.array_equal(adj, want)

    def test_rule_backed_matches_graph_backed(self):
        n, t, r_s, r_d = 300, 2, 0.7, 0.3
        inst = gen.gen_gbm_t(n, t, r_s, r_d, seed=11)
        g_orc = dn.GraphEdgeOracle(inst.graph)
        r_orc = dn.GbmEdgeOracle(inst.embeddings, inst.truth, r_s, r_d)
        rng = substream(5)
        us = rng.integers(0, n, 4000)
        vs = rng.integers(0, n, 4000)
        ok = us != vs
        assert np.array_equal(g_orc.query_pairs(us[ok], vs[ok]),
                              r_orc.query_pairs(us[ok], vs[ok]))
        assert g_orc.queries == r_orc.queries

    def test_graph_backed_trial_matches_rule_backed(self):
        # the graph's row windows (W = 21 words) are narrower than its full rows (32)
        n, t, r_s, r_d = 2000, 2, 0.6, 0.4
        inst = gen.gen_gbm_t(n, t, r_s, r_d, seed=11)
        assert inst.graph.layout[1].shape[1] < -(-n // 64)
        plan = th.dense_plan(n, t, r_s, r_d)
        got = dn.dense_recover(dn.GraphEdgeOracle(inst.graph), n, t, r_s, r_d, plan, seed=5)
        want = dn.dense_recover(dn.GbmEdgeOracle(inst.embeddings, inst.truth, r_s, r_d),
                                n, t, r_s, r_d, plan, seed=5)
        assert np.array_equal(got.labels, want.labels)
        assert (got.queries_used, got.ties, got.phase1_sizes, got.status) == \
            (want.queries_used, want.ties, want.phase1_sizes, want.status)
        # phase 1 is degenerate at this size, so phase 2's cross blocks are compared apart
        rows, cols = np.arange(0, n, 3), np.arange(1, n, 3)
        assert np.array_equal(
            dn.GraphEdgeOracle(inst.graph).query_cross(rows, cols),
            dn.GbmEdgeOracle(inst.embeddings, inst.truth, r_s, r_d).query_cross(rows, cols))

    @pytest.mark.parametrize("t", [2, 7])
    def test_block_agrees_with_pairs_at_tie_radii(self, t):
        # radii set to the distances of sampled pairs put those pairs (and
        # any pair within rounding of them) on the boundary of the rule
        n = 300
        emb = sample_sphere(substream(5), n, t)
        labels = (np.arange(n) % 2).astype(np.int8)
        iu, jv = np.triu_indices(n, 1)
        rng = substream(5, t)
        for _ in range(100):
            a, b = rng.choice(len(iu), 2, replace=False)
            # the oracle takes r_d <= r_s, so the larger distance is r_s
            r_d, r_s = sorted(float(np.linalg.norm(emb[iu[k]] - emb[jv[k]])) for k in (a, b))
            block = dn.GbmEdgeOracle(emb, labels, r_s, r_d).query_block(np.arange(n))
            pairs = dn.GbmEdgeOracle(emb, labels, r_s, r_d).query_pairs(iu, jv)
            assert np.array_equal(block[iu, jv], pairs)
            assert np.array_equal(block, block.T)

    def test_block_rejects_duplicates(self):
        inst = gen.gen_gbm_t(20, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        with pytest.raises(ValueError):
            orc.query_block(np.array([4, 1, 4]))
        assert orc.queries == 0

    def test_no_quadratic_state(self):
        # n = 1e6 would need 1 TB as an n x n bitmap; the record is O(n + probes)
        n = 10 ** 6
        tracemalloc.start()
        try:
            orc = Parity(n)
            ans = orc.query_cross(np.arange(10), np.arange(n - 20, n))
            orc.query_block(np.array([3, n - 1, 500_000]))
            orc.query_pairs([0, 7], [n - 20, n - 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        assert np.array_equal(ans, (np.arange(10)[:, None] + np.arange(n - 20, n)) % 2 == 0)
        # (3, n - 1) came with the cross block; (0, n - 20) and (7, n - 2) too
        assert orc.queries == 10 * 20 + 2

    def test_blocks_against_the_same_cols_share_one_array(self):
        # phase 2's pattern: fresh rows against one array of probes, whose
        # 160 KB would otherwise be stored again by each of the 200 blocks
        n = 10 ** 6
        cols = np.arange(n - 20_000, n)
        orc = Parity(n)
        tracemalloc.start()
        try:
            orc.query_cross(np.arange(8), cols)
            before = tracemalloc.get_traced_memory()[0]
            for k in range(1, 200):
                orc.query_cross(np.arange(8 * k, 8 * k + 8), cols)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20
        assert orc.queries == 200 * 8 * 20_000

    @pytest.mark.parametrize("bad", [-1, "n"])
    @pytest.mark.parametrize("call", ["query_pairs", "query_cross", "query_block_bits"])
    @pytest.mark.parametrize("make", ["graph", "rule"])
    def test_rejects_vertex_ids_out_of_range(self, bad, call, make):
        inst = gen.gen_gbm_t(20, 2, 0.6, 0.3, seed=2)
        orc = (dn.GraphEdgeOracle(inst.graph) if make == "graph"
               else dn.GbmEdgeOracle(inst.embeddings, inst.truth, 0.6, 0.3))
        orc.query_pairs([1], [2])
        bad = orc.n if bad == "n" else bad
        args = {"query_pairs": ([bad], [5]), "query_cross": ([bad], [5]),
                "query_block_bits": ([5, bad],)}[call]
        touched = orc._touched.copy()
        with pytest.raises(ValueError, match="vertex id out of range"):
            getattr(orc, call)(*args)
        assert orc.queries == 1
        assert np.array_equal(orc._touched, touched)

    def test_points_read_in_place(self):
        # one pair of n = 2e5 points on S^2: the answer allocates a few index
        # and label temporaries, not a copy of the points' 8 n (t + 1) bytes
        n, t = 200_000, 2
        orc = dn.GbmEdgeOracle(sample_sphere(substream(4), n, t), np.arange(n) % 2, 0.6, 0.4)
        us, vs = np.array([0]), np.array([n - 1])
        orc._answer(us, vs)
        tracemalloc.start()
        try:
            orc._answer(us, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 8 * n * (t + 1)

    def test_rejects_self_pairs(self):
        inst = gen.gen_gbm_t(20, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        with pytest.raises(ValueError):
            orc.query_pairs([3], [3])


class TestQueryCross:
    def test_fresh_block_counts_all_pairs(self):
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        rows, cols = [9, 3, 40, 12], [0, 55, 21]
        ans = orc.query_cross(rows, cols)
        assert orc.queries == 4 * 3
        want = inst.graph.adjacency_bool()[np.ix_(rows, cols)]
        assert np.array_equal(ans, want)

    def test_reprobe_is_free(self):
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        a1 = orc.query_cross([9, 3, 40], [0, 55])
        a2 = orc.query_cross([9, 3, 40], [0, 55])
        assert orc.queries == 6
        orc.query_cross([0, 55], [9, 3, 40])     # transposed block: same pairs
        assert orc.queries == 6
        assert np.array_equal(a1, a2)

    def test_blocks_sharing_cols_all_stay_recorded(self):
        # phase 2's chunks all probe against the same columns
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        orc.query_cross([1, 2], [10, 11])
        orc.query_cross([3, 4], [11, 10])
        orc.query_cross([5], [10, 11])
        assert orc.queries == 10
        orc.query_cross([5, 4, 3, 2, 1], [11, 10])
        orc.query_pairs([1, 10, 5], [11, 4, 11])
        assert orc.queries == 10

    def test_earlier_probes_not_recounted(self):
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        orc.query_pairs([7, 30], [1, 8])         # pairs (1, 7) and (8, 30)
        orc.query_block(np.array([2, 8, 31]))   # pairs among {2, 8, 31}
        q = orc.queries
        assert q == 2 + 3
        # 4 x 3 block holding (1, 7), (8, 30), (2, 8) and (8, 31) already
        orc.query_cross([1, 30, 2, 31], [7, 8, 50])
        assert orc.queries == q + 12 - 4
        # and the cross probes are seen by the other two entry points
        orc.query_pairs([50, 7], [1, 2])
        orc.query_block(np.array([1, 7]))
        assert orc.queries == q + 8

    def test_matches_query_pairs_on_rule_oracle(self):
        n, t, r_s, r_d = 300, 2, 0.7, 0.3
        emb = sample_sphere(substream(8), n, t)
        labels = np.zeros(n, np.int8)
        labels[n // 2:] = 1
        rows = np.arange(0, 300, 7)
        cols = np.arange(1, 300, 11)
        cols = cols[~np.isin(cols, rows)]
        a_orc = dn.GbmEdgeOracle(emb, labels, r_s, r_d)
        b_orc = dn.GbmEdgeOracle(emb, labels, r_s, r_d)
        got = a_orc.query_cross(rows, cols)
        want = b_orc.query_pairs(np.repeat(rows, len(cols)), np.tile(cols, len(rows)))
        assert np.array_equal(got, want.reshape(len(rows), len(cols)))
        assert a_orc.queries == b_orc.queries == len(rows) * len(cols)

    def test_several_row_chunks_match_one_broadcast(self):
        # 300 rows x 4096 cols are answered in chunks of 2^19 // (THREADS 4096) rows
        n = 4400
        emb = sample_sphere(substream(12), n, 2)
        labels = (np.arange(n) % 2).astype(np.int8)
        rng = substream(12, 1)
        perm = rng.permutation(n)
        rows, cols = perm[:300], perm[300:300 + 4096]
        orc = dn.GbmEdgeOracle(emb, labels, 0.7, 0.4)
        got = orc.query_cross(rows, cols)
        assert np.array_equal(got, orc._answer(rows[:, None], cols[None, :]))
        assert orc.queries == 300 * 4096
        assert got.dtype == bool and got.shape == (300, 4096)

    def test_the_record_owns_its_arrays(self):
        # the caller's arrays may change after the call; the record may not
        inst = gen.gen_gbm_t(60, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        rows, cols = np.array([9, 3]), np.array([0, 55, 21])
        orc.query_cross(rows, cols)
        orc.query_cross(np.array([40]), cols)
        rows[:], cols[:] = [1, 2], [4, 5, 6]
        orc.query_cross([9, 3, 40], [0, 55, 21])
        assert orc.queries == 9

    @pytest.mark.parametrize("rows, cols", [
        ([1, 2, 1], [5, 6]),        # duplicate row
        ([1, 2], [5, 6, 5]),        # duplicate column
        ([1, 2, 3], [3, 6]),        # overlap
    ])
    def test_rejects_duplicates_and_overlap(self, rows, cols):
        inst = gen.gen_gbm_t(20, 2, 0.6, 0.3, seed=2)
        orc = dn.GraphEdgeOracle(inst.graph)
        with pytest.raises(ValueError):
            orc.query_cross(rows, cols)
        assert orc.queries == 0


def at_squared_distance(d2):
    """A point (a, b) of the plane whose `squared_chord` to the origin is exactly d2."""
    a = math.sqrt(d2)
    while a * a > d2:
        a = math.nextafter(a, 0.0)
    # d2 - a * a is exact and below a few ulps of d2, so b * b lands it on d2
    return a, math.sqrt(d2 - a * a)


def rule_instance(x, labels, r_s, r_d, oracle):
    """The instance whose edges are the oracle's answers on every pair of x."""
    iu, jv = np.triu_indices(len(x), 1)
    edges = oracle.query_pairs(iu, jv)
    return gen.GbmInstance(graph=from_edges(len(x), iu[edges], jv[edges]), truth=labels,
                           embeddings=x, params={"r_s": r_s, "r_d": r_d})


class TestRule:
    """The oracle decides a pair as `gen_gbm_t` does, at distance exactly r too."""

    def test_pair_at_exactly_r_d(self):
        # r_d ** 2 (pow) is one ulp above r_d * r_d, and this pair's d2 lies between
        # them: the generator, its audit and its pair scan leave it out
        r_s, r_d = 0.9, 0.4885890606031673
        assert r_d ** 2 == 0.23871927014108552 and r_d * r_d == 0.2387192701410855
        x = np.array([[0.0, 0.0], [r_d, 3.727361915182192e-09]])
        labels = np.array([0, 1])
        assert len(gen._sphere_pairs_within(x, 0.0, r_d)[0]) == 0
        assert not dn.GbmEdgeOracle(x, labels, r_s, r_d).query_pairs([0], [1]).any()
        assert not dn.GbmEdgeOracle(x, labels, r_s, r_d).query_block([0, 1]).any()
        assert not dn.GbmEdgeOracle(x, labels, r_s, r_d).query_cross([0], [1]).any()
        edgeless = gen.GbmInstance(graph=from_edges(2, [], []), truth=labels, embeddings=x,
                                   params={"r_s": r_s, "r_d": r_d})
        assert gen.recheck_instance(edgeless, non_edge_sample=20)
        edge = gen.GbmInstance(graph=from_edges(2, [0], [1]), truth=labels, embeddings=x,
                               params={"r_s": r_s, "r_d": r_d})
        assert not gen.recheck_instance(edge)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 2.0), st.floats(0.0, 1.0), st.integers(1, 6))
    @example(0.4885890606031673, 0.9, 3)
    @example(0.4885890606031673, 1.0, 3)
    def test_pairs_at_r_and_its_neighbours(self, r_d, u, k):
        # from the origin (label 0): points at d2 just below, at and just above
        # r_s * r_s (label 0), then r_d * r_d (label 1)
        r_s = r_d + u * (2.0 - r_d)
        rows = [(0.0, 0.0)]
        for r in (r_s, r_d):
            d2 = r * r
            rows += [at_squared_distance(v) for v in (math.nextafter(d2, 0.0), d2,
                                                      math.nextafter(d2, 5.0))]
        x = np.array(rows)
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        d2 = squared_chord(x, np.zeros(6, np.int64), np.arange(1, 7))
        for r, got in ((r_s, d2[:3]), (r_d, d2[3:])):
            assert list(got) == [math.nextafter(r * r, 0.0), r * r, math.nextafter(r * r, 5.0)]
        make = lambda: dn.GbmEdgeOracle(x, labels, r_s, r_d)
        inst = rule_instance(x, labels, r_s, r_d, make())
        assert gen.recheck_instance(inst, non_edge_sample=2000, seed=1)
        adj = inst.graph.adjacency_bool()
        assert list(adj[0, 1:]) == [True, True, False] * 2
        bits = make().query_block_bits(np.arange(7))
        assert np.array_equal(np.unpackbits(bits.view(np.uint8), axis=1, count=7).view(bool), adj)
        assert np.array_equal(make().query_cross(np.arange(k), np.arange(k, 7)), adj[:k, k:])


def threshold_rule(x, labels, r_s, r_d, us, vs):
    """The block-model rule as a comparison of d2 with a per-pair threshold array."""
    return squared_chord(x, us, vs) <= np.where(labels[us] == labels[vs], r_s * r_s, r_d * r_d)


class TestRuleForm:
    """The block-model rule, `generators._gbm_edges`, gives the threshold array's answers bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0.0), st.just(2.0), st.floats(0.0, 2.0)),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), max_size=10),
           st.data())
    def test_matches_the_threshold_array(self, r_d, u, extra, data):
        # u = 0 gives r_d == r_s; from the origin, points at d2 just below, at
        # and just above r_s * r_s and r_d * r_d, one point of NaN d2, and
        # drawn points, each with a drawn label; then plain distances (the
        # circle's form, radii as given) just below, at and just above r_s
        # and r_d, a NaN and the drawn points' norms, each with a drawn `same`
        r_s = r_d + u * (2.0 - r_d)
        rows = [(0.0, 0.0), (math.nan, 0.0)] + extra
        for r in (r_s, r_d):
            d2 = r * r
            rows += [at_squared_distance(v) for v in (math.nextafter(d2, 0.0), d2,
                                                      math.nextafter(d2, 5.0))]
        x = np.asfortranarray(rows)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(x),
                                             max_size=len(x))), dtype=np.int8)
        idx = np.arange(len(x))
        iu, jv = np.triu_indices(len(x), 1)
        rule = dn.GbmEdgeOracle(x, labels, r_s, r_d)._rule()
        for us, vs in ((idx[:, None], idx[None, :]), (iu, jv)):
            got = rule(us, vs)
            assert got.dtype == bool
            assert np.array_equal(got, threshold_rule(x, labels, r_s, r_d, us, vs))
        d = np.array([math.nan] + [v for r in (r_s, r_d) for v in
                                   (math.nextafter(r, 0.0), r, math.nextafter(r, 5.0))]
                     + [math.hypot(a, b) for a, b in extra])
        same = np.array(data.draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d))))
        want = np.where(same, d <= r_s, d <= r_d)
        got = gen._gbm_edges(d, same.copy(), r_s, r_d)
        assert got.dtype == bool and np.array_equal(got, want)


class TestGbmOracleInputs:
    """`GbmEdgeOracle` takes one label per point and the radii `gen_gbm_t` takes."""

    emb = sample_sphere(substream(3), 10, 2)

    @pytest.mark.parametrize("labels", [np.zeros(20, np.int8), np.zeros(5, np.int8),
                                        np.zeros((10, 2), np.int8), np.int8(0)])
    def test_labels_one_per_point(self, labels):
        with pytest.raises(ValueError, match=r"labels of shape \(10,\) expected"):
            dn.GbmEdgeOracle(self.emb, labels, 0.6, 0.4)

    @pytest.mark.parametrize("r_s, r_d", [(0.4, 0.6), (0.6, -0.1), (2.1, 0.4), (float("nan"), 0.4)])
    def test_radii_as_the_generator_takes_them(self, r_s, r_d):
        with pytest.raises(ValueError, match="need 0 <= r_d <= r_s <= 2"):
            dn.GbmEdgeOracle(self.emb, np.zeros(10, np.int8), r_s, r_d)
        with pytest.raises(ValueError, match="need 0 <= r_d <= r_s <= 2"):
            gen.gen_gbm_t(10, 2, r_s, r_d, seed=0)

    @pytest.mark.parametrize("r_s, r_d", [(0.0, 0.0), (0.5, 0.5), (2.0, 0.0), (2.0, 2.0)])
    def test_radii_at_the_bounds(self, r_s, r_d):
        orc = dn.GbmEdgeOracle(self.emb, np.zeros(10, np.int8), r_s, r_d)
        assert orc.query_block(np.arange(10)).shape == (10, 10)


def packed(adj):
    """The `query_block_bits` words of a boolean block: its packed full rows."""
    h = len(adj)
    words = np.zeros((h, -(-h // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, :-(-h // 8)] = np.packbits(adj, axis=1)
    return words


def kept_partition(adj, e_s, e_d):
    """Reference for `_subsample_counts`: `_components` of the pairs above the
    diagonal that `_keep` keeps, every pair counted by the matrix square."""
    u, v = np.nonzero(np.triu(adj, 1))
    a = adj.astype(np.float64)     # counts below 2^53 are exact in float64
    keep = rec._keep((a @ a)[u, v].astype(np.int64), e_s, e_d)
    return rec._components(len(adj), *rec._pair_rows(len(adj), u[keep], v[keep]))[1]


@st.composite
def symmetric_blocks(draw, sizes, densities=st.floats(0, 1)):
    """A symmetric block of a drawn size and density with a zero diagonal and
    some empty rows, and thresholds e_s, e_d (None or a number) across its counts."""
    h = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(densities)
    upper = np.triu(rng.random((h, h)) < density, 1)
    adj = upper | upper.T
    adj[rng.random(h) < draw(st.floats(0, 0.5))] = False
    adj &= adj.T
    # whole numbers, and reals up to twice the mean count h density^2
    threshold = st.one_of(st.integers(-1, h + 1).map(float),
                          st.floats(0, 2).map(lambda f: f * h * density ** 2))
    return adj, draw(threshold), draw(st.one_of(st.none(), threshold))


class TestSubsampleCounts:
    @pytest.mark.parametrize("h", [1, 2, 7, 63, 64, 65, 130, 200])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_matches_matrix_square(self, h, density):
        # the full-row counts of every pair above the diagonal; e_s = 0 keeps them all
        rng = substream(19, h, int(100 * density))
        upper = np.triu(rng.random((h, h)) < density, 1)
        adj = upper | upper.T
        adj[rng.random(h) < 0.2] = False        # some empty rows
        adj &= adj.T
        uu, vv = np.nonzero(np.triu(adj, 1))
        counts = rec._window_counts(packed(adj), np.zeros(h, np.int64), uu, vv)
        a = adj.astype(np.int64)
        assert np.array_equal(counts, (a @ a)[uu, vv])
        comp = dn._subsample_counts(packed(adj), 0, None)
        assert comp.shape == (h,)
        assert np.array_equal(comp, rec._components(h, *rec._pair_rows(h, uu, vv))[1])

    def test_several_row_chunks(self):
        # h = 1500 is read in row chunks of 2^20 // 1500 = 699 rows
        h = 1500
        rng = substream(23)
        upper = np.triu(rng.random((h, h)) < 0.3, 1)
        adj = upper | upper.T
        uu, vv = np.nonzero(upper)
        counts = rec._window_counts(packed(adj), np.zeros(h, np.int64), uu, vv)
        a = adj.astype(np.float64)     # counts below 2^53 are exact in float64
        assert np.array_equal(counts, (a @ a)[uu, vv])
        assert np.array_equal(dn._subsample_counts(packed(adj), 0, None), kept_partition(adj, 0, None))

    def test_full_rows_are_counted_without_a_copy(self):
        # with every start 0 the kernel reads the block in place: 200 pairs of
        # 64-word rows hold about 100 kB of temporaries, not a padded 4 MB copy
        h = 4096
        rng = substream(37)
        upper = np.triu(rng.random((h, h)) < 0.1, 1)
        adj = upper | upper.T
        words = packed(adj)
        uu, vv = np.sort(rng.integers(0, h, (2, 200)), axis=0)
        tracemalloc.start()
        try:
            counts = rec._window_counts(words, np.zeros(h, np.int64), uu, vv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < words.nbytes // 4
        a = adj.astype(np.float64)
        assert np.array_equal(counts, (a @ a)[uu, vv])

    @pytest.mark.parametrize("e_s, e_d", [(60.0, None), (70.0, 50.0), (45.5, 44.5), (1e9, -1.0),
                                          (80.0, 40.0), (85.0, None)])
    def test_keeps_what_the_keep_rule_keeps(self, e_s, e_d):
        # counts on this block run from 30 to 98 (mean 60), across the thresholds
        h = 1500
        rng = substream(29)
        upper = np.triu(rng.random((h, h)) < 0.2, 1)
        adj = upper | upper.T
        comp = dn._subsample_counts(packed(adj), e_s, e_d)
        assert np.array_equal(comp, kept_partition(adj, e_s, e_d))
        # e_s >= 80 splits the block: into 228, 1323 and 1500 components
        assert (len(np.unique(comp)) > 1) == (e_s >= 80)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_blocks(st.one_of(st.sampled_from([63, 64, 65]), st.integers(0, 200))))
    def test_drawn_blocks_match_the_reference(self, drawn):
        adj, e_s, e_d = drawn
        assert np.array_equal(dn._subsample_counts(packed(adj), e_s, e_d),
                              kept_partition(adj, e_s, e_d))

    @settings(max_examples=15, deadline=None)
    @given(symmetric_blocks(st.integers(1100, 1300), st.floats(0, 0.01)))
    def test_drawn_blocks_of_two_row_chunks(self, drawn):
        # h from 1100 to 1300 is read in two row chunks; on these sparse
        # blocks the second chunk still joins components of the first
        adj, e_s, e_d = drawn
        assert np.array_equal(dn._subsample_counts(packed(adj), e_s, e_d),
                              kept_partition(adj, e_s, e_d))

    @pytest.mark.parametrize("cells", [[(0, 1)], [(0, 1), (0, 2)], [(1, 0), (2, 0)],
                                       [(0, 1), (2, 1)]])
    def test_rejects_block_not_symmetric(self, cells):
        # the upper triangle does not hold half the set bits, or (the last
        # block) a column holds other than its row's count
        adj = np.zeros((5, 5), dtype=bool)
        for r, c in cells:
            adj[r, c] = True
        with pytest.raises(ValueError):
            dn._subsample_counts(packed(adj), 0, None)


def gbmlab_threads():
    return [t for t in threading.enumerate() if t.name.startswith("gbmlab")]


def counted_pools(monkeypatch):
    """A list that each thread pool made from here on is appended to."""
    made = []

    class Pool(concurrent.futures.thread.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures.thread, "ThreadPoolExecutor", Pool)
    return made


def at_threads(k, fn, *args):
    """fn(*args) with `dense.THREADS` set to k."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dn, "THREADS", k)
        return fn(*args)


class TestThreads:
    """The same block, partition and trial at any `dense.THREADS`."""

    @pytest.fixture(scope="class")
    def instance(self):
        return gen.gen_gbm_t(2500, 2, 0.8, 0.4, seed=61)

    @pytest.mark.parametrize("h", [1, 7, 9, 63, 65, 200, 2000])
    @pytest.mark.parametrize("cells", [dn._CHUNK_CELLS, 1 << 10])
    def test_block_bits(self, monkeypatch, instance, h, cells):
        # two threads answer several chunks at 2^10 cells from h = 63 on (rows
        # of 8), and at 2^19 cells for h = 2000 (16 chunks of 128 rows)
        monkeypatch.setattr(dn, "_CHUNK_CELLS", cells)
        several = h == 2000 or (cells == 1 << 10 and h >= 63)
        maps = []
        map_chunks = dn._map_chunks
        monkeypatch.setattr(dn, "_map_chunks", lambda fn, chunks, *a: maps.append(len(chunks))
                            or map_chunks(fn, chunks, *a))
        sample = np.sort(substream(h).choice(instance.graph.n, h, replace=False))
        for make in (lambda: dn.GbmEdgeOracle(instance.embeddings, instance.truth, 0.8, 0.4),
                     lambda: dn.GraphEdgeOracle(instance.graph)):
            one = at_threads(1, make().query_block_bits, sample)
            del maps[:]
            assert np.array_equal(at_threads(2, make().query_block_bits, sample), one)
            assert len(maps) == 1 and (maps[0] > 1) == several

    def test_block_bits_under_forced_switching(self, monkeypatch, instance):
        # six threads on fewer cores, switching every microsecond: a lost or
        # overlapping `_mirror_bits` write would show as a differing word
        monkeypatch.setattr(dn, "_CHUNK_CELLS", 1 << 13)
        sample = np.arange(0, instance.graph.n, 2)
        orc = dn.GbmEdgeOracle(instance.embeddings, instance.truth, 0.8, 0.4)
        want = at_threads(1, orc._block_answer, sample)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = at_threads(6, orc._block_answer, sample)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_blocks(st.integers(0, 200)), st.sampled_from([2, 3]))
    def test_partition(self, drawn, threads):
        # at 2^11 cells a block of h rows goes in chunks of 2^11 / (threads h)
        # rows: a share filters two chunks or more from h = 46 on, and every
        # share does from h = 57 on
        adj, e_s, e_d = drawn
        words = packed(adj)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dn, "_COUNT_CELLS", 1 << 11)
            one = at_threads(1, dn._subsample_counts, words, e_s, e_d)
            assert np.array_equal(at_threads(threads, dn._subsample_counts, words, e_s, e_d), one)
        assert np.array_equal(one, kept_partition(adj, e_s, e_d))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_map_per_block(self, monkeypatch, threads):
        # at 2^11 cells the 200-row block goes in 40 chunks of 5 rows at two
        # threads and 67 of 3 at three; the kernel's maps inside each share,
        # made while a map runs, are not counted
        monkeypatch.setattr(dn, "_COUNT_CELLS", 1 << 11)
        maps = []
        map_chunks = dn._map_chunks

        def counted(fn, chunks, *a):
            if not getattr(dn._MAPPING, "nested", False):
                maps.append((len(chunks), *a))
            return map_chunks(fn, chunks, *a)

        monkeypatch.setattr(dn, "_map_chunks", counted)
        upper = np.triu(substream(47).random((200, 200)) < 0.1, 1)
        adj = upper | upper.T
        comp = at_threads(threads, dn._subsample_counts, packed(adj), 2.0, None)
        assert maps == [(threads,)]
        assert np.array_equal(comp, kept_partition(adj, 2.0, None))

    def test_no_thread_outlives_a_call(self, monkeypatch):
        # each call makes its own pool and returns only once its workers are gone:
        # at h = 1061 one for the block answer, one for phase 1 and one per
        # 1 024-row phase-2 block
        made = counted_pools(monkeypatch)
        monkeypatch.setattr(dn, "THREADS", 2)
        n, t, r_s, r_d = 1500, 2, 0.8, 0.4
        emb, labels = make_instance(n, t, r_s, r_d, seed=43)
        plan = th.dense_plan(n, t, r_s, r_d)
        res = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d), n, t, r_s, r_d, plan, 19)
        assert res.status == "ok"
        assert len(made) == 2 + -(-(n - plan.h) // 1024)
        assert not gbmlab_threads()
        pools = len(made)
        ana.phase_sweep(1200, [(1.5, 0.9)], trials=4, seed=2, jobs=2)
        assert len(made) == pools + 1
        assert not gbmlab_threads()

    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_raising_share_propagates_and_leaves_no_thread(self, monkeypatch, bad):
        # chunk 0 is the caller's share and chunk 1 the worker's; the other
        # share is still running when the exception comes, and finishes
        monkeypatch.setattr(dn, "THREADS", 2)
        done = []

        def fn(i0, i1):
            if i0 == bad:
                raise RuntimeError(f"chunk {i0}")
            time.sleep(0.05)
            done.append(i0)

        with pytest.raises(RuntimeError, match=f"chunk {bad}"):
            dn._map_chunks(fn, [(0, 1), (1, 2)])
        assert done == [1 - bad]
        assert not gbmlab_threads()

    @pytest.mark.parametrize("threads", [2, 6])
    def test_a_nested_map_runs_in_order_on_its_thread(self, monkeypatch, threads):
        # outer chunk 0 runs on the caller's share and the others on workers; each
        # runs its inner chunks in order on its own thread, with no pool of its
        # own.  Six threads on fewer cores switch every microsecond
        made = counted_pools(monkeypatch)
        monkeypatch.setattr(dn, "THREADS", threads)
        ran = []

        def inner(j0, j1):
            ran.append((j0, threading.current_thread()))
            return j1 - j0

        def outer(i0, i1):
            return threading.current_thread(), dn._map_chunks(inner, [(10 * i0 + j, 10 * i0 + j + 1)
                                                                     for j in range(3)])

        outers = [(i, i + 1) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = dn._map_chunks(outer, outers)
        finally:
            sys.setswitchinterval(interval)
        assert [counts for _, counts in got] == [[1, 1, 1]] * threads
        assert got[0][0] is threading.current_thread()
        assert all(t.name.startswith("gbmlab") for t, _ in got[1:])
        for i, (t, _) in enumerate(got):
            mine = [(j, u) for j, u in ran if j // 10 == i]
            assert [j for j, _ in mine] == [10 * i, 10 * i + 1, 10 * i + 2]
            assert all(u is t for _, u in mine)
        assert len(ran) == 3 * threads and len(made) == 1
        assert not gbmlab_threads()
        # the flag is cleared once the chunks are done: the next map starts a pool again
        assert dn._map_chunks(outer, outers)[1][0].name.startswith("gbmlab")
        assert len(made) == 2

    @staticmethod
    def cross_probes(make, threads):
        """Answers and queries of a run of overlapping `query_cross` blocks at `threads`."""
        orc, out = make(), []
        perm = substream(7).permutation(orc.n)
        blocks = [(perm[:400], perm[400:700]), (perm[700:1500], perm[400:700]),
                  (perm[350:450], perm[600:1000]), (perm[600:1000], perm[350:450])]
        for rows, cols in blocks:
            out.append((at_threads(threads, orc.query_cross, rows, cols), orc.queries))
        return out

    @pytest.mark.parametrize("threads", [2, 6])
    def test_cross_answers_and_queries(self, monkeypatch, instance, threads):
        # at 2^12 cells a 300-column block goes in chunks of 2^12 / (threads 300)
        # rows: 67 chunks of 6 rows at two threads; the last run switches threads
        # every microsecond, so a lost or misplaced row write would show
        monkeypatch.setattr(dn, "_CHUNK_CELLS", 1 << 12)
        for make in (lambda: dn.GbmEdgeOracle(instance.embeddings, instance.truth, 0.8, 0.4),
                     lambda: dn.GraphEdgeOracle(instance.graph)):
            want = self.cross_probes(make, 1)
            # the third block holds 50 x 100 pairs of the first and 50 x 300 of
            # the second; the fourth is the third transposed
            fresh = 400 * 300 + 800 * 300 + 100 * 400 - 50 * 100 - 50 * 300
            assert [q for _, q in want] == [400 * 300, 400 * 300 + 800 * 300, fresh, fresh]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runs = [self.cross_probes(make, threads), self.cross_probes(make, threads)]
            finally:
                sys.setswitchinterval(interval)
            for got in [self.cross_probes(make, threads)] + runs:
                assert len(got) == len(want)
                for (a, qa), (b, qb) in zip(got, want):
                    assert qa == qb and np.array_equal(a, b)

    def test_span_targets_run_on_the_callers_thread(self, monkeypatch):
        # the benchmark's span recorder keeps one stack of open spans, so a
        # `gbmlab.dense` function it wraps must never run on a worker thread;
        # the chunks answer through `_rule`, which no span wraps
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("gbmlab_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)
        spec.loader.exec_module(spans)
        names = [t.name for t in spans.TARGETS if t.module == "gbmlab.dense"]
        assert "EdgeOracle.query_cross" in names and "GbmEdgeOracle._block_answer" in names
        calls = []

        def record(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            owner, attr = dn, name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(dn, cls)
            assert attr in vars(owner), name
            monkeypatch.setattr(owner, attr, record(name, vars(owner)[attr]))
        monkeypatch.setattr(dn, "THREADS", 2)
        monkeypatch.setattr(dn, "_CHUNK_CELLS", 1 << 14)
        n, t, r_s, r_d = 3000, 2, 0.8, 0.4
        emb, labels = make_instance(n, t, r_s, r_d, seed=43)
        res = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d), n, t, r_s, r_d,
                               th.dense_plan(n, t, r_s, r_d), 19)
        assert res.status == "ok"
        assert {"dense_recover", "GbmEdgeOracle._block_answer", "EdgeOracle.query_cross",
                "_subsample_counts"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_trial(self):
        # h = 2122: phase 1 counts 5 chunks on one thread and 9 (two shares in
        # one map) on two, and answers 9 chunks on two
        n, t, r_s, r_d = 3000, 2, 0.8, 0.4
        plan = th.dense_plan(n, t, r_s, r_d)
        emb, labels = make_instance(n, t, r_s, r_d, seed=43)
        res = {k: at_threads(k, dn.dense_recover, dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                             n, t, r_s, r_d, plan, 19) for k in (1, 2)}
        assert res[1].status == res[2].status == "ok"
        assert np.array_equal(res[1].labels, res[2].labels)
        assert (res[1].phase1_sizes, res[1].ties) == (res[2].phase1_sizes, res[2].ties)
        assert (res[1].queries_used == res[2].queries_used
                == plan.h * (plan.h - 1) // 2 + (n - plan.h) * 2 * plan.g)


class TestBalanceCheck:
    def test_even_split(self):
        assert dn.phase1_balance_check(1000, 500, 500) is True

    def test_degenerate_split(self):
        assert dn.phase1_balance_check(200, 0, 200) is False

    def test_rejects_mismatched_total(self):
        with pytest.raises(ValueError):
            dn.phase1_balance_check(100, 10, 20)

    def test_empirical_pass_rate(self):
        # sampling h vertices from a balanced population: the split stays
        # within the deviation band in essentially every trial
        n = 10_000
        plan = th.dense_plan(n, 2, 0.6, 0.4)
        rng = substream(77)
        labels = np.zeros(n, np.int8)
        labels[n // 2:] = 1
        passes = 0
        trials = 500
        for _ in range(trials):
            sample = rng.choice(n, plan.h, replace=False)
            c1 = int((labels[sample] == 0).sum())
            passes += dn.phase1_balance_check(plan.h, c1, plan.h - c1)
        assert passes >= 499


class TestDenseRecover:
    def test_exact_query_accounting_and_determinism(self):
        n, t, r_s, r_d = 2000, 2, 0.8, 0.4
        plan = th.dense_plan(n, t, r_s, r_d)
        emb, labels = make_instance(n, t, r_s, r_d, seed=41)
        res1 = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                                n, t, r_s, r_d, plan, seed=13)
        res2 = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                                n, t, r_s, r_d, plan, seed=13)
        assert res1.status == "ok"
        assert res1.queries_used == plan.h * (plan.h - 1) // 2 + (n - plan.h) * 2 * plan.g
        assert res1.queries_used == plan.query_budget
        assert np.array_equal(res1.labels, res2.labels)
        assert res1.queries_used == res2.queries_used
        assert ana.node_error_rate(res1.labels, labels) <= 0.05

    def test_phase1_degenerate_reported(self):
        # indistinguishable radii: the filter shreds the sample subgraph
        n, t, r_s, r_d = 600, 2, 0.42, 0.40
        plan = th.dense_plan(n, t, r_s, r_d)
        emb, labels = make_instance(n, t, r_s, r_d, seed=42)
        res = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                               n, t, r_s, r_d, plan, seed=1)
        assert res.status == "phase1_degenerate"
        assert np.all(res.labels == -1)
        assert res.queries_used == plan.h * (plan.h - 1) // 2

    def test_half_n_cap_bounds_queries(self):
        n = 600
        plan = th.dense_plan(n, 2, 0.42, 0.40)
        assert plan.g_formula == n // 2
        assert plan.query_budget <= n * (n - 1)  # h(h-1)/2 + (n-h) 2g stays near n^2/2
        emb, labels = make_instance(n, 2, 0.42, 0.40, seed=4)
        orc = dn.GbmEdgeOracle(emb, labels, 0.42, 0.40)
        res = dn.dense_recover(orc, n, 2, 0.42, 0.40, plan, seed=2)
        assert res.queries_used <= n * (n - 1) // 2

    def test_subquadratic_scaling_ratio(self):
        # queries/n grows like log n at constant radii: doubling n moves it
        # by far less than a 2.5 factor
        r_s, r_d = 1.2, 0.4
        per_n = []
        for n in (3000, 6000):
            plan = th.dense_plan(n, 2, r_s, r_d)
            per_n.append(plan.query_budget / n)
        assert per_n[1] / per_n[0] < 2.5

    def test_ties_go_to_cluster_0(self):
        # two cliques and four isolated vertices: phase 1 finds the cliques,
        # and an isolated vertex outside the sample sees k1 = k2 = 0 neighbors
        n = 40
        cliques = [np.arange(0, 18), np.arange(18, 36)]
        edges = np.concatenate([np.argwhere(np.triu(np.ones((18, 18), bool), 1)) + c[0]
                                for c in cliques])
        orc = dn.GraphEdgeOracle(from_edges(n, edges[:, 0], edges[:, 1]))
        plan = th.DensePlan(n=n, t=2, r_s=1.0, r_d=0.5, g=3, h=20, g_formula=3,
                            E_S=0.0, E_D=-1.0, theta_S=1.0, theta_D=1.0)
        res = dn.dense_recover(orc, n, 2, 1.0, 0.5, plan, seed=1)
        assert res.status == "ok"
        isolated = np.arange(36, 40)
        assert res.ties == int((res.labels[isolated] != -1).sum()) > 0
        assert np.all(res.labels[isolated][res.labels[isolated] != -1] == 0)
        a, b = res.labels[cliques[0]], res.labels[cliques[1]]
        assert len(set(a)) == len(set(b)) == 1 and a[0] != b[0]

    @pytest.mark.parametrize("other", [(700, 2, 0.8, 0.4), (600, 3, 0.8, 0.4),
                                       (600, 2, 0.9, 0.4), (600, 2, 0.8, 0.3)])
    def test_rejects_a_plan_for_other_values(self, other):
        # the plan's thresholds are what run, so other values must not pass silently
        n, t, r_s, r_d = 600, 2, 0.8, 0.4
        emb, labels = make_instance(n, t, r_s, r_d, seed=46)
        orc = dn.GbmEdgeOracle(emb, labels, r_s, r_d)
        with pytest.raises(ValueError, match="must be those of the plan"):
            dn.dense_recover(orc, n, t, r_s, r_d, th.dense_plan(*other), seed=1)
        assert orc.queries == 0

    def test_ties_recorded(self):
        n, t, r_s, r_d = 2000, 2, 0.8, 0.4
        plan = th.dense_plan(n, t, r_s, r_d)
        emb, labels = make_instance(n, t, r_s, r_d, seed=45)
        res = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                               n, t, r_s, r_d, plan, seed=3)
        assert res.ties >= 0
        assert res.balance_ok in (True, False)
