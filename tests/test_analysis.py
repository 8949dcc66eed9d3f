import math
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmlab import analysis as ana
from gbmlab import dense as dn
from gbmlab import generators as gen
from gbmlab import graph as gr
from gbmlab import recovery as rec
from gbmlab.geometry import psi
from gbmlab.graph import from_edges, empty_graph
from gbmlab.rng import substream


def gbmlab_threads():
    return [t for t in threading.enumerate() if t.name.startswith("gbmlab")]


def complete_graph(n):
    u, v = np.triu_indices(n, 1)
    return from_edges(n, u, v)


class TestPairFScore:
    def test_perfect(self):
        truth = np.array([0] * 5 + [1] * 5)
        m = ana.pair_f_score(truth.copy(), truth)
        assert m.precision == m.recall == m.f_score == 1.0
        assert m.node_error_rate == 0.0

    def test_single_cluster_prediction(self):
        n = 40
        truth = np.array([0] * (n // 2) + [1] * (n // 2))
        pred = np.zeros(n, dtype=int)
        m = ana.pair_f_score(pred, truth)
        assert m.recall == 1.0
        assert m.precision == pytest.approx((n / 2 - 1) / (n - 1), abs=1e-12)

    def test_random_prediction_precision_half(self):
        n = 1000
        rng = substream(3)
        truth = np.array([0] * (n // 2) + [1] * (n // 2))
        pred = rng.integers(0, 2, n)
        m = ana.pair_f_score(pred, truth)
        assert abs(m.precision - 0.5) < 0.05

    def test_label_permutation_invariance(self):
        rng = substream(4)
        truth = rng.integers(0, 2, 200)
        pred = rng.integers(0, 2, 200)
        m1 = ana.pair_f_score(pred, truth)
        m2 = ana.pair_f_score(1 - pred, truth)
        m3 = ana.pair_f_score(pred, 1 - truth)
        assert m1 == m2 == m3

    def test_unassigned_are_singletons(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, -1, -1])
        m = ana.pair_f_score(pred, truth)
        assert m.precision == 1.0 and m.recall == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ana.pair_f_score(np.zeros(3), np.zeros(4))


class TestNodeErrorRate:
    def test_perfect_and_swap(self):
        truth = np.array([0] * 6 + [1] * 6)
        assert ana.node_error_rate(truth.copy(), truth) == 0.0
        assert ana.node_error_rate(1 - truth, truth) == 0.0

    def test_single_moved_vertex(self):
        truth = np.array([0] * 6 + [1] * 6)
        pred = truth.copy()
        pred[0] = 1
        assert ana.node_error_rate(pred, truth) == pytest.approx(1 / 12)

    def test_unassigned_counted(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, -1])
        assert ana.node_error_rate(pred, truth) == pytest.approx(0.25)

    def test_tie_break_deterministic(self):
        truth = np.array([0, 1])
        pred = np.array([5, 5])
        assert ana.node_error_rate(pred, truth) == ana.node_error_rate(pred, truth) == 0.5


def brute_force_metrics(pred, truth):
    """(precision, recall, f_score, node_error_rate) by enumerating every pair
    and counting each predicted cluster's truth labels."""
    n = len(pred)
    tp = pred_pairs = truth_pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            co = pred[i] == pred[j] != -1
            pred_pairs += co
            truth_pairs += truth[i] == truth[j]
            tp += co and truth[i] == truth[j]
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / truth_pairs if truth_pairs else 0.0
    f = 2 * precision * recall / (precision + recall) if precision > 0 and recall > 0 else 0.0
    errors = pred.count(-1)
    for cluster in set(pred) - {-1}:
        counts = Counter(t for p, t in zip(pred, truth) if p == cluster)
        errors += sum(counts.values()) - max(counts.values())
    return precision, recall, f, errors / n if n else 0.0


@st.composite
def labellings(draw):
    """(pred, truth) of equal length: up to n predicted clusters and -1, and
    truth labels that may be -1, negative or large."""
    n = draw(st.integers(0, 40))
    pred = draw(st.lists(st.integers(-1, max(n, 1)), min_size=n, max_size=n))
    label = st.one_of(st.integers(-3, 3), st.integers(-2 ** 62, 2 ** 62))
    truth = draw(st.lists(st.one_of(st.sampled_from([-1, 0, 1]), label), min_size=n, max_size=n))
    return pred, truth


class TestContingency:
    @settings(max_examples=300, deadline=None)
    @given(labellings())
    def test_metrics_match_brute_force(self, labels):
        pred, truth = labels
        m = ana.pair_f_score(np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64))
        expected = brute_force_metrics(pred, truth)
        assert (m.precision, m.recall, m.f_score, m.node_error_rate) == expected
        assert ana.node_error_rate(np.array(pred, dtype=np.int64),
                                   np.array(truth, dtype=np.int64)) == expected[3]

    def test_singletons_against_halves_take_linear_time(self):
        # one predicted cluster per vertex: a loop over the clusters took seconds
        halves = np.repeat([0, 1], 25_000)
        start = time.perf_counter()
        assert ana.node_error_rate(np.arange(50_000), halves) == 0.0
        assert time.perf_counter() - start < 0.5

    def test_table_holds_only_occupied_cells(self):
        # 6000 x 6000 label pairs, of which 6000 are occupied
        tracemalloc.start()
        try:
            m = ana.pair_f_score(np.arange(6000), np.arange(6000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.precision, m.recall, m.node_error_rate) == (0.0, 0.0, 0.0)
        assert peak < 16 * 2 ** 20


class TestComponents:
    def test_complete_and_empty(self):
        assert ana.component_count(complete_graph(12)) == 1
        assert ana.is_connected(complete_graph(12))
        assert ana.component_count(empty_graph(9)) == 9

    def test_union_count_identity(self):
        # components = n - (number of merging unions); a BFS forest merges
        # every vertex other than its component's root once
        from test_recovery import bfs_components
        inst = gen.gen_gbm1(500, 0.01, 0.002, seed=8)
        comp = bfs_components(500, inst.graph.edges)
        merges = int((comp != np.arange(500)).sum())
        assert ana.component_count(inst.graph) == 500 - merges

    def test_matches_bfs_oracle(self):
        from test_recovery import bfs_components
        rng = substream(101)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            m = int(rng.integers(0, 2 * n))
            u = rng.integers(0, n, m)
            v = rng.integers(0, n, m)
            keep = u != v
            # from_edges rejects repeated pairs; drop them first
            enc = np.unique(np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep]))
            g = from_edges(n, enc // n, enc % n)
            want = len(np.unique(bfs_components(n, g.edges.tolist())))
            assert ana.component_count(g) == want

    def test_nested_interval_monotonicity(self):
        # a graph built from a superset of bands on the same embeddings
        # can only have fewer or equal components
        big = gen.IntervalSet(((0.0, 0.002), (0.003, 0.004)))
        sub = gen.IntervalSet(((0.0, 0.002),))
        gb, _ = gen.gen_interval_union_graph(3000, big, seed=55)
        gs, _ = gen.gen_interval_union_graph(3000, sub, seed=55)
        assert ana.component_count(gs) >= ana.component_count(gb)

    def test_isolated_bounds(self):
        inst = gen.gen_gbm1(400, 0.003, 0.001, seed=5)
        iso = ana.isolated_count(inst.graph)
        assert iso >= 400 - 2 * inst.graph.m
        assert ana.left_deficiency_count(inst.embeddings, inst.graph) >= iso


class TestIsolated:
    def test_trivial_counts(self):
        assert ana.isolated_count(empty_graph(7)) == 7
        assert ana.isolated_count(complete_graph(7)) == 0
        star = from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])
        assert ana.isolated_count(star) == 0

    def test_expectation_1d_degenerate(self):
        assert ana.isolated_expectation_1d(1000, 0.7, 0.7) == 1000

    @pytest.mark.parametrize("n, a, b", [(10, 1, 2), (1000, 0.7, -0.1)])
    def test_expectation_1d_rejects_band(self, n, a, b):
        # a < b and b < 0 gave a negative band measure, so a count above n
        with pytest.raises(ValueError, match="need 0 <= b <= a"):
            ana.isolated_expectation_1d(n, a, b)

    def test_expectation_1d_decreasing_in_gap(self):
        vals = [ana.isolated_expectation_1d(10_000, 0.5 + d, 0.5) for d in (0.1, 0.2, 0.4)]
        assert vals[0] > vals[1] > vals[2]

    def test_expectation_1d_matches_simulation(self):
        n, a, b = 2000, 0.8, 0.5
        expect = ana.isolated_expectation_1d(n, a, b)
        ln = math.log(n)
        total = 0
        trials = 300
        for trial in range(trials):
            g, _ = gen.gen_rag1(n, b * ln / n, a * ln / n, (70, 0, trial))
            total += int((g.degrees() == 0).sum())
        assert abs(total / trials - expect) / expect < 0.2

    def test_expectation_hd_degenerate_and_threshold(self):
        assert ana.isolated_expectation_hd(500, 2, 0.9, 0.9) == 500
        assert ana.isolated_vertices_expected_hd(2, 1.9, 0.5)       # 1.9^2 - 0.25 < 4
        assert not ana.isolated_vertices_expected_hd(2, 2.2, 0.0)   # 4.84 > 4

    def test_expectation_hd_grows_below_threshold(self):
        # a^t - b^t slightly below psi(t): expectation >= 1 at large n
        a = 1.95
        assert a ** 2 < psi(2)
        assert ana.isolated_expectation_hd(100_000, 2, a, 0.0) >= 1.0


class TestLeftDeficiency:
    def test_trivial(self):
        assert ana.left_deficiency_count(np.linspace(0, 0.9, 10), complete_graph(10)) == 0
        assert ana.left_deficiency_count(np.linspace(0, 0.9, 7), empty_graph(7)) == 7

    def test_mean_matches_power_law(self):
        # geometric graphs at scaled radius a have ~ n^(1-a) vertices with
        # an empty counterclockwise range
        n, a = 10_000, 0.7
        ln = math.log(n)
        expect = n * (1 - a * ln / n) ** (n - 1)
        total = 0
        trials = 500
        for trial in range(trials):
            g, pos = gen.gen_rag1(n, 0.0, a * ln / n, (71, 0, trial))
            total += ana.left_deficiency_count(pos, g)
        assert abs(total / trials - expect) / expect < 0.2


class TestFindPole:
    def test_complete_graph(self):
        g = complete_graph(6)
        pos = np.linspace(0, 0.8, 6)
        assert ana.find_pole(g, pos, 0.5) == 0

    def test_empty_graph_with_close_pair(self):
        # every vertex sees an unserved vertex within range: no pole
        g = empty_graph(4)
        pos = np.array([0.0, 0.001, 0.002, 0.003])
        assert ana.find_pole(g, pos, 0.01) is None

    def test_annulus_regime(self):
        # inner radius small enough that many vertices see an empty inner
        # ball: poles exist in almost every draw
        n, t = 5000, 2
        scale = math.sqrt(math.log(n) / n)
        r1, r2 = 0.5 * scale, 19.7 * scale
        found = 0
        for trial in range(20):
            g, x = gen.gen_rag_t(n, t, r1, r2, seed=(300 + trial))
            if ana.find_pole(g, x, r2) is not None:
                found += 1
        assert found >= 18


class TestPhaseSweep:
    def test_smoke_and_determinism(self):
        pts = [(1.6, 1.0), (0.9, 0.0)]
        a = ana.phase_sweep(1500, pts, trials=4, seed=9)
        b = ana.phase_sweep(1500, pts, trials=4, seed=9)
        assert a == b
        assert [(p.a, p.b) for p in a] == pts   # canonical ordering
        for p in a:
            assert 0 <= p.connected_frac <= 1 and 0 <= p.isolated_frac <= 1
            assert p.mean_components >= 1

    def test_points_may_be_any_iterable(self):
        # the points are read once, so an iterator or a generator sweeps every point
        pts = [(1.6, 1.0), (0.9, 0.0)]
        want = ana.phase_sweep(1000, pts, trials=2, seed=1)
        assert len(want) == 2
        assert ana.phase_sweep(1000, iter(pts), trials=2, seed=1) == want
        assert ana.phase_sweep(1000, (p for p in pts), trials=2, seed=1) == want

    def test_jobs_above_the_usable_cores_rejected(self, monkeypatch):
        # the check comes before the pool: a pool made here fails the test
        import concurrent.futures.thread

        monkeypatch.setattr(concurrent.futures.thread, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a thread pool was made"))
        monkeypatch.setattr(dn, "THREADS", 2)
        for jobs in (3, 100_000):
            with pytest.raises(ValueError, match=f"at most the 2 usable cores, got {jobs}"):
                ana.phase_sweep(1200, [(1.5, 0.9)], trials=2, seed=2, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            ana.phase_sweep(1200, [(1.5, 0.9)], trials=2, seed=2, jobs=jobs)

    def test_parallel_jobs_same_output(self, monkeypatch):
        # two threads run on one core too; the bound is tested above
        monkeypatch.setattr(dn, "THREADS", 2)
        ran_on = set()
        trial = ana._phase_trial
        monkeypatch.setattr(ana, "_phase_trial",
                            lambda *args: ran_on.add(threading.current_thread().name) or trial(*args))
        pts = [(1.5, 0.9)]
        seq = ana.phase_sweep(1200, pts, trials=6, seed=2, jobs=1)
        assert ran_on == {threading.current_thread().name}
        par = ana.phase_sweep(1200, pts, trials=6, seed=2, jobs=2)
        assert seq == par
        assert any(name.startswith("gbmlab") for name in ran_on)
        assert not gbmlab_threads()

    def test_trials_that_count_write_and_read(self, monkeypatch, tmp_path):
        # each stage of a trial maps: the n = 2000 circle graph has about 1e5
        # edges, so it is written in chunks of 1 000 rows, read in two halves
        # and counted in two shares; at jobs 2 those maps run on the trial's
        # thread, and the sweep's pool is the only one made
        from test_dense import counted_pools
        made = counted_pools(monkeypatch)
        monkeypatch.setattr(gr, "_WRITE_CHUNK", 1000)
        monkeypatch.setattr(gr, "_READ_HALVES", 0)
        monkeypatch.setattr(dn, "THREADS", 2)
        n = 2000

        def trial(a, b, seed):
            inst = gen.gen_gbm1(n, gen.radius_from_scale(a, n), gen.radius_from_scale(b, n), seed)
            path = str(tmp_path / f"{seed[1]}-{seed[2]}.graph.txt")
            gr.write_graph(path, inst.graph)
            graph, _ = gr.read_graph(path)
            return graph.m, rec.recover_gbm1(graph, a, b).labels.tobytes()

        pts = [(13.0, 1.0), (9.0, 2.0)]
        seq = ana._grid_trials(trial, pts, 2, 5, 1)
        assert len(made) > 4 and min(m for rs in seq for m, _ in rs) > 60_000
        del made[:]
        assert ana._grid_trials(trial, pts, 2, 5, 2) == seq
        assert len(made) == 1
        assert not gbmlab_threads()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_trials_seeds_order_and_threads(self, jobs):
        # each point's results come back in trial order, seeded (seed, gi, ti),
        # and trial i of the flattened grid runs on thread i % jobs, 0 the caller's
        caller = threading.current_thread()
        on_caller = {}

        def trial(a, b, seed):
            on_caller[seed] = threading.current_thread() is caller
            return a, b, seed

        pts = [(1.5, 0.9), (2.0, 0.0), (0.7, 0.3)]
        got = ana._grid_trials(trial, pts, 4, 7, jobs)
        assert got == [[(a, b, (7, gi, ti)) for ti in range(4)] for gi, (a, b) in enumerate(pts)]
        assert [on_caller[(7, gi, ti)] for gi in range(3) for ti in range(4)] == \
            [i % jobs == 0 for i in range(12)]
        assert not gbmlab_threads()

    def test_interval_union_family(self):
        # bands [0, c] u [b, a] scaled: a generous configuration connects,
        # a feeble one does not
        good = ana.phase_sweep(8000, [(1.5, 0.8)], trials=10, seed=5,
                               family="interval_union", c=0.5)
        poor = ana.phase_sweep(8000, [(1.05, 0.95)], trials=10, seed=5,
                               family="interval_union", c=0.1)
        assert good[0].connected_frac >= 0.7
        assert poor[0].connected_frac <= 0.3

    @pytest.mark.parametrize("a, b", [(1.6, 1.0), (1.6, 1.3), (0.9, 0.0), (2.5, 2.0)])
    def test_rag1_trial_matches_bfs(self, a, b):
        # the trial works on band ranges over ranks; its tuple must be that
        # of the edges of gen_rag1 under a BFS labelling
        from test_recovery import bfs_components
        n = 3000
        ln = math.log(n)
        for ti in range(4):
            got = ana._phase_trial("rag1", n, 0.0, 1, a, b, (31, 0, ti))
            g, _ = gen.gen_rag1(n, b * ln / n, a * ln / n, (31, 0, ti))
            u, v = g.edges[:, 0], g.edges[:, 1]
            ncomp = len(np.unique(bfs_components(n, zip(u.tolist(), v.tolist()))))
            iso = int((np.bincount(np.concatenate([u, v]), minlength=n) == 0).sum())
            assert got == (ncomp == 1, iso > 0, ncomp)

    @pytest.mark.parametrize("a, b", [(1.0, 1.6), (1.6, -0.1), (60.0, 1.0)])
    def test_rag1_trial_rejects_band(self, a, b):
        # r1 > r2, r1 < 0 and r2 > 1/2 (60 log(500) / 500 = 0.75)
        with pytest.raises(ValueError):
            ana._phase_trial("rag1", 500, 0.0, 1, a, b, (31, 0, 0))

    def test_rag_t_family(self):
        out = ana.phase_sweep(800, [(8.0, 0.5)], trials=3, seed=4,
                              family="rag_t", t=2)
        assert out[0].trials == 3
