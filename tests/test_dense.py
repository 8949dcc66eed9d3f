import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmlab import analysis as ana
from gbmlab import dense as dn
from gbmlab import generators as gen
from gbmlab import recovery as rec
from gbmlab import thresholds as th
from gbmlab.geometry import sample_sphere
from gbmlab.graph import from_edges
from gbmlab.rng import substream


def make_instance(n, t, r_s, r_d, seed):
    emb = sample_sphere(substream(seed), n, t)
    labels = np.zeros(n, np.int8)
    labels[n // 2:] = 1
    return emb, labels


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
        assert inst.graph.layout[1].shape[1] // 2 < -(-n // 64)
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
            r_s = float(np.linalg.norm(emb[iu[a]] - emb[jv[a]]))
            r_d = float(np.linalg.norm(emb[iu[b]] - emb[jv[b]]))
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
        class Parity(dn.EdgeOracle):
            def _answer(self, us, vs):
                return (us + vs) % 2 == 0

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
        # 300 rows x 4096 cols are answered in chunks of 2^19 // 4096 = 128 rows
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


def packed(adj):
    """The `query_block_bits` words of a boolean block: packed rows, then zero words."""
    h = len(adj)
    words = np.zeros((h, 2 * -(-h // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, :-(-h // 8)] = np.packbits(adj, axis=1)
    return words


def kept_partition(adj, e_s, e_d):
    """Reference for `_subsample_counts`: `_components` of the pairs above the
    diagonal that `_keep` keeps, every pair counted by the matrix square."""
    u, v = np.nonzero(np.triu(adj, 1))
    a = adj.astype(np.float64)     # counts below 2^53 are exact in float64
    keep = rec._keep((a @ a)[u, v].astype(np.int64), e_s, e_d)
    return rec._components(len(adj), u[keep], v[keep])[1]


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
        assert np.array_equal(comp, rec._components(h, uu, vv)[1])

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

    def test_ties_recorded(self):
        n, t, r_s, r_d = 2000, 2, 0.8, 0.4
        plan = th.dense_plan(n, t, r_s, r_d)
        emb, labels = make_instance(n, t, r_s, r_d, seed=45)
        res = dn.dense_recover(dn.GbmEdgeOracle(emb, labels, r_s, r_d),
                               n, t, r_s, r_d, plan, seed=3)
        assert res.ties >= 0
        assert res.balance_ok in (True, False)
