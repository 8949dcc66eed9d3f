import math
import tracemalloc

import numpy as np
import pytest

from gbmlab import analysis as ana
from gbmlab import generators as gen
from gbmlab import recovery as rec
from gbmlab import thresholds as th
from gbmlab.graph import from_edges, empty_graph
from gbmlab.rng import substream


def bfs_components(n, edges):
    """Oracle component labeling by breadth-first search."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = s
        queue = [s]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = s
                    queue.append(y)
    return np.array(comp)


def common_neighbor_count(graph, u, v):
    """Oracle: size of the neighbor-set intersection of u and v, by sorted merge."""
    return int(np.intersect1d(graph.neighbors(u), graph.neighbors(v), assume_unique=True).size)


def one_count(graph, u, v):
    return int(rec.bulk_common_neighbor_counts(graph, np.array([u]), np.array([v]))[0])


class TestCommonNeighborCount:
    def test_triangle(self):
        g = from_edges(3, [0, 1, 0], [1, 2, 2])
        assert one_count(g, 0, 1) == 1

    def test_path(self):
        g = from_edges(3, [0, 1], [1, 2])
        assert one_count(g, 0, 2) == 1
        assert one_count(g, 0, 1) == 0

    def test_empty(self):
        g = empty_graph(5)
        assert one_count(g, 0, 4) == 0
        assert rec.bulk_common_neighbor_counts(g, [], []).shape == (0,)

    def test_no_vertices(self):
        g = empty_graph(0)
        pos, rows, starts = g.layout
        assert len(pos) == len(rows) == len(starts) == 0
        assert g.has_edges(np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)
        assert rec.bulk_common_neighbor_counts(g, [], []).shape == (0,)

    def test_rejects_bad_ids(self):
        g = empty_graph(5)
        for u, v in ((0, 0), (0, 7), (-1, 2)):
            with pytest.raises(ValueError):
                one_count(g, u, v)

    def test_bulk_matches_pairwise(self):
        inst = gen.gen_gbm1(400, 0.05, 0.02, seed=3)
        g = inst.graph
        us, vs = g.edges[:, 0], g.edges[:, 1]
        bulk = rec.bulk_common_neighbor_counts(g, us, vs)
        for i in range(0, g.m, max(1, g.m // 50)):
            assert bulk[i] == common_neighbor_count(g, int(us[i]), int(vs[i]))

    def test_no_quadratic_state(self):
        # a ring lattice of degree 20 at n = 1e5: full packed rows would be
        # n^2 / 8 = 1.25 GB, its windows are 2 words a row
        n, k = 10 ** 5, 10
        u = np.repeat(np.arange(n), k)
        v = (u + np.tile(np.arange(1, k + 1), n)) % n
        g = from_edges(n, u, v)
        del u, v
        tracemalloc.start()
        try:
            counts = rec.bulk_common_neighbor_counts(g, g.edges[:, 0], g.edges[:, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        # neighbors at ring distance d <= k share 2k - 1 - d neighbors
        d = g.edges[:, 1] - g.edges[:, 0]
        d = np.minimum(d, n - d)
        assert np.array_equal(counts, 2 * k - 1 - d)


class TestProcessEdge:
    """The keep rule of recover_gbm1 at and around its two thresholds."""

    def setup_method(self):
        self.ts = th.thresholds_1d(5000, 13.0, 1.0)

    def keep(self, count, ts):
        e_d = ts.E_D * 5000 if ts.E_D is not None else None
        return bool(rec._keep(np.array([count]), ts.E_S * 5000, e_d)[0])

    def test_exactly_at_upper_threshold_kept(self):
        count = int(round(self.ts.E_S * 5000))
        # manufacture an exact hit by scaling the threshold itself
        ts = th.ThresholdSet1D(n=5000, a=13.0, b=1.0, f1=self.ts.f1, f2=self.ts.f2,
                               theta1=self.ts.theta1, theta2=self.ts.theta2,
                               E_S=count / 5000, E_D=self.ts.E_D,
                               divergence_target=1.0)
        assert ts.E_S * 5000 == count
        assert self.keep(count, ts) is True
        assert self.keep(count - 1, ts) is False

    def test_between_thresholds_removed(self):
        mid = int((self.ts.E_D * 5000 + self.ts.E_S * 5000) / 2)
        assert self.keep(mid, self.ts) is False

    def test_low_branch(self):
        low = int(self.ts.E_D * 5000)   # floor is below E_D * n
        assert self.keep(low, self.ts) is True

    def test_disabled_low_branch(self):
        ts = th.thresholds_1d(5000, 3.2, 0.01)
        assert ts.E_D is None
        assert self.keep(0, ts) is False


class TestConnectedComponents:
    def test_empty(self):
        comp = rec.connected_components(6, np.empty((0, 2), np.int64))
        assert np.array_equal(comp, np.arange(6))

    def test_path(self):
        comp = rec.connected_components(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert np.array_equal(comp, np.zeros(5, dtype=np.int64))

    def test_matches_bfs_on_random_graphs(self):
        rng = substream(44)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(0, 3 * n))
            u = rng.integers(0, n, m)
            v = rng.integers(0, n, m)
            keep = u != v
            edges = np.stack([u[keep], v[keep]], axis=1)
            got = rec.connected_components(n, edges)
            want = bfs_components(n, edges.tolist())
            assert np.array_equal(got, want)

    def test_canonical_smallest_member(self):
        comp = rec.connected_components(5, [(3, 4), (1, 2)])
        assert comp.tolist() == [0, 1, 1, 3, 3]

    @pytest.mark.parametrize("edges", [[(0, 5)], [(5, 0)], [(-1, 2)], [(2, -1)]])
    def test_rejects_ids_out_of_range(self, edges):
        with pytest.raises(ValueError):
            rec.connected_components(5, edges)


class TestFilterSoundness:
    def test_count_distribution_means(self):
        # conditioned on the planted distance x, the common-neighbor count
        # of a same-cluster edge has mean (n/2-2)(2 r_s - x) plus
        # (n/2)(2 r_d - x) when x <= 2 r_d; cross-cluster edges have mean
        # (n-2) 2 r_d whenever r_s > 2 r_d
        n, a, b = 4000, 13.0, 1.0
        ln = math.log(n)
        r_s, r_d = a * ln / n, b * ln / n
        rng = substream(91)
        trials = 60

        def simulate(x, same):
            counts = []
            for _ in range(trials):
                pos0 = rng.random(n // 2 - 2)   # cluster-0 background
                pos1 = rng.random(n // 2)       # cluster-1 background
                d0u = np.minimum(pos0, 1 - pos0)
                d0v = np.abs(pos0 - x)
                d0v = np.minimum(d0v, 1 - d0v)
                d1u = np.minimum(pos1, 1 - pos1)
                d1v = np.abs(pos1 - x)
                d1v = np.minimum(d1v, 1 - d1v)
                if same:   # u, v both in cluster 0
                    c = ((d0u <= r_s) & (d0v <= r_s)).sum() + ((d1u <= r_d) & (d1v <= r_d)).sum()
                else:      # u in cluster 0, v in cluster 1
                    c = ((d0u <= r_s) & (d0v <= r_d)).sum() + ((d1u <= r_d) & (d1v <= r_s)).sum()
                counts.append(c)
            return np.array(counts, dtype=float)

        for x in (1.2 * r_d, 5.0 * r_d):
            sim = simulate(x, same=True)
            expect = (n / 2 - 2) * (2 * r_s - x)
            if x <= 2 * r_d:
                expect += (n / 2) * (2 * r_d - x)
            se = sim.std(ddof=1) / math.sqrt(trials)
            assert abs(sim.mean() - expect) <= 3 * se

        sim = simulate(0.8 * r_d, same=False)
        expect = (n - 2) * 2 * r_d
        se = sim.std(ddof=1) / math.sqrt(trials)
        assert abs(sim.mean() - expect) <= 3 * se


class TestRecoverGbm1:
    def test_two_cliques(self):
        # zero cross edges, two cliques big enough that the within-clique
        # counts clear the keep threshold: perfect split
        k = 30
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += [(i + k, j + k) for i in range(k) for j in range(i + 1, k)]
        g = from_edges(2 * k, [e[0] for e in edges], [e[1] for e in edges])
        truth = np.array([0] * k + [1] * k)
        res = rec.recover_gbm1(g, 13.0, 1.0)
        assert ana.node_error_rate(res.labels, truth) == 0.0

    def test_seeded_end_to_end(self):
        n, a, b = 3000, 13.0, 1.0
        ln = math.log(n)
        inst = gen.gen_gbm1(n, a * ln / n, b * ln / n, seed=5)
        res = rec.recover_gbm1(inst.graph, a, b)
        assert ana.node_error_rate(res.labels, inst.truth) <= 0.02

    def test_deterministic(self):
        inst = gen.gen_gbm1(1000, 0.03, 0.005, seed=9)
        r1 = rec.recover_gbm1(inst.graph, 13.0, 1.0)
        r2 = rec.recover_gbm1(inst.graph, 13.0, 1.0)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.components, r2.components)

    def test_decision_locality(self):
        # deleting a vertex adjacent to neither endpoint leaves the decision alone
        inst = gen.gen_gbm1(600, 0.05, 0.02, seed=7)
        g = inst.graph
        u, v = map(int, g.edges[0])
        nbrs = set(g.neighbors(u)) | set(g.neighbors(v)) | {u, v}
        z = next(i for i in range(g.n) if i not in nbrs)
        before = common_neighbor_count(g, u, v)
        keep = ~((g.edges[:, 0] == z) | (g.edges[:, 1] == z))
        g2 = from_edges(g.n, g.edges[keep, 0], g.edges[keep, 1])
        assert common_neighbor_count(g2, u, v) == before

    def test_decisions_table(self):
        inst = gen.gen_gbm1(500, 0.04, 0.01, seed=2)
        res = rec.recover_gbm1(inst.graph, 13.0, 1.0, keep_decisions=True)
        dec = res.decisions
        assert dec is not None and dec.shape == (inst.graph.m, 4)
        assert set(np.unique(dec[:, 3])).issubset({0, 1})


class TestRecoverHD:
    def test_calibrated_point(self):
        # golden parameters: a_t = 12 (so r_s = 12 sqrt(log n / n)),
        # r_d = r_s / 4, c_s = c_d = 1
        n, t = 2000, 2
        r_s = 12.0 * math.sqrt(math.log(n) / n)
        r_d = r_s / 4
        inst = gen.gen_gbm_t(n, t, r_s, r_d, seed=31)
        res = rec.recover_gbm_hd(inst.graph, t, r_s, r_d)
        assert ana.node_error_rate(res.labels, inst.truth) <= 0.05

    def test_calibrated_point_trial_frequency(self):
        # the same point at n = 5000 over twenty seeded trials
        n, t = 5000, 2
        r_s = 12.0 * math.sqrt(math.log(n) / n)
        r_d = r_s / 4
        good = 0
        for trial in range(20):
            inst = gen.gen_gbm_t(n, t, r_s, r_d, seed=(600 + trial))
            res = rec.recover_gbm_hd(inst.graph, t, r_s, r_d)
            good += ana.node_error_rate(res.labels, inst.truth) <= 0.05
        assert good >= 16

    def test_infeasible_window_propagates(self):
        inst = gen.gen_gbm_t(400, 2, 0.5, 0.5, seed=1)
        with pytest.raises(th.RegimeError):
            rec.recover_gbm_hd(inst.graph, 2, 0.5, 0.5)

    def test_keep_everything_degenerate(self):
        # thresholds that keep every edge reproduce raw components
        n, t = 800, 2
        r_s = 12.0 * math.sqrt(math.log(n) / n)
        inst = gen.gen_gbm_t(n, t, r_s, r_s * 0.9, seed=3)
        thr = th.ThresholdSetHD(n=n, t=t, r_s=r_s, r_d=r_s * 0.9, c_s=1.0, c_d=1.0,
                                E_S=0.0, E_D=-1.0)

        counts = rec.bulk_common_neighbor_counts(inst.graph, inst.graph.edges[:, 0],
                                                 inst.graph.edges[:, 1])
        assert np.all(counts >= thr.E_S)   # every edge passes the high branch
        comp = rec.connected_components(n, inst.graph.edges)
        # connectivity regime: one giant component
        sizes = np.bincount(comp)
        assert sizes.max() == n


class TestRecoverWithLocations:
    def test_exact_recovery_good_regime(self):
        n, a, b = 3000, 2.5, 1.0
        ln = math.log(n)
        inst = gen.gen_gbm1(n, a * ln / n, b * ln / n, seed=17)
        res = rec.recover_with_locations(inst.graph, inst.embeddings,
                                         a * ln / n, b * ln / n)
        assert res.status == "ok"
        same = np.array_equal(res.labels, inst.truth)
        swap = np.array_equal(res.labels, 1 - inst.truth)
        assert same or swap

    def test_flipped_edge_detected(self):
        n, a, b = 1000, 2.5, 1.0
        ln = math.log(n)
        inst = gen.gen_gbm1(n, a * ln / n, b * ln / n, seed=23)
        g = inst.graph
        pos = inst.embeddings
        d = np.abs(pos[g.edges[:, 0]] - pos[g.edges[:, 1]])
        d = np.minimum(d, 1 - d)
        in_band = (d >= b * ln / n) & (d <= a * ln / n)
        drop = np.nonzero(in_band)[0][0]
        keep = np.ones(g.m, bool)
        keep[drop] = False
        g2 = from_edges(n, g.edges[keep, 0], g.edges[keep, 1])
        res = rec.recover_with_locations(g2, pos, a * ln / n, b * ln / n)
        wrong = (res.status == "conflict")
        if not wrong:
            u, v = map(int, g.edges[drop])
            wrong = (res.labels[u] == rec.UNASSIGNED or res.labels[u] != res.labels[v])
        assert wrong

    def test_many_components_below_threshold(self):
        n, a, b = 4000, 1.3, 1.0
        ln = math.log(n)
        inst = gen.gen_gbm1(n, a * ln / n, b * ln / n, seed=29)
        res = rec.recover_with_locations(inst.graph, inst.embeddings,
                                         a * ln / n, b * ln / n)
        assert res.components_count > 2

    def test_equal_components_label_the_one_holding_vertex_0(self):
        # two far groups of 4 points, each one constraint component of size 4
        offsets = np.array([0.0, 0.01, 0.02, 0.03])
        r_s, r_d = 0.05, 0.005
        for seed in range(6):
            rng = substream(seed, 0x7E)
            perm = rng.permutation(8)
            x = np.empty(8)
            x[perm[:4]] = 0.1 + offsets
            x[perm[4:]] = 0.6 + offsets
            truth = rng.integers(0, 2, 8)
            uu, vv = np.triu_indices(8, 1)
            d = np.abs(x[uu] - x[vv])
            edge = (truth[uu] == truth[vv]) & (np.minimum(d, 1 - d) <= r_s)
            res = rec.recover_with_locations(from_edges(8, uu[edge], vv[edge]), x, r_s, r_d)
            assert res.status == "ok" and res.components_count == 2
            mine = np.sort(perm[:4] if 0 in perm[:4] else perm[4:])
            other = np.setdiff1d(np.arange(8), mine)
            assert np.array_equal(res.labels[mine], (truth[mine] != truth[0]).astype(np.int8))
            assert (res.labels[other] == rec.UNASSIGNED).all()

    def test_rejects_sphere_embeddings(self):
        inst = gen.gen_gbm_t(100, 2, 0.5, 0.2, seed=1)
        with pytest.raises(ValueError):
            rec.recover_with_locations(inst.graph, inst.embeddings, 0.5, 0.2)

    def test_rejects_embeddings_of_another_size(self):
        inst = gen.gen_gbm1(100, 0.05, 0.02, seed=1)
        with pytest.raises(ValueError, match="embeddings"):
            rec.recover_with_locations(inst.graph, inst.embeddings[:-1], 0.05, 0.02)

    def test_positions_in_unit_interval_accepted(self):
        x = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
        res = rec.recover_with_locations(from_edges(4, [0], [3]), x, 0.3, 0.0)
        assert res.status == "ok"

    @pytest.mark.parametrize("value", [1.0, -1e-300, 1e308, -0.5])
    def test_position_outside_unit_interval_names_vertex(self, value):
        x = np.array([0.1, 0.2, value, 0.4])
        with pytest.raises(ValueError) as exc:
            rec.recover_with_locations(from_edges(4, [0], [1]), x, 0.3, 0.1)
        assert str(exc.value) == f"embedding of vertex 2 lies outside [0, 1): {x[2]}"

    @pytest.mark.parametrize("r_s, r_d", [(0.2, 0.6), (0.6, 0.2), (0.3, -0.1), (0.2, float("nan"))])
    def test_radii_follow_the_generator_rule(self, r_s, r_d):
        inst = gen.gen_gbm1(20, 0.05, 0.02, seed=1)
        with pytest.raises(ValueError) as exc:
            rec.recover_with_locations(inst.graph, inst.embeddings, r_s, r_d)
        assert str(exc.value) == f"need 0 <= r_d <= r_s <= 1/2, got r_s={r_s}, r_d={r_d}"
        with pytest.raises(ValueError) as gen_exc:
            gen.gen_gbm1(20, r_s, r_d, seed=1)
        assert str(gen_exc.value) == str(exc.value)


class TestLabeling:
    def test_two_largest_components_labeled(self):
        edges = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]
        comp = rec.connected_components(9, edges)
        labels, info = rec._label_two_largest(9, comp)
        assert info["components_count"] == 3
        # sizes 4 (component 5) and 3 (component 0); ties broken by member id
        assert (labels[[5, 6, 7, 8]] == 0).all()
        assert (labels[[0, 1, 2]] == 1).all()
        assert (labels[[3, 4]] == rec.UNASSIGNED).all()
