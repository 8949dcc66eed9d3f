import math
import re

import numpy as np
import pytest

from gbmlab import generators as gen
from gbmlab import graph as gr
from gbmlab.geometry import annulus_fraction, cap_fraction


def edge_set(g):
    return set(map(tuple, g.edges.tolist()))


class TestRag1:
    def test_degenerate_band_empty(self):
        g, _ = gen.gen_rag1(500, 0.01, 0.01, seed=4)
        assert g.m == 0

    def test_zero_lower_bound_is_geometric_graph(self):
        g, pos = gen.gen_rag1(300, 0.0, 0.02, seed=9)
        d = np.abs(pos[:, None] - pos[None, :])
        d = np.minimum(d, 1 - d)
        expect = (np.triu(d <= 0.02, 1)).sum()
        assert g.m == expect

    def test_pair_edge_probability(self):
        n = 10_000
        ln = math.log(n)
        r1, r2 = 0.3 * ln / n, 1.0 * ln / n
        g, _ = gen.gen_rag1(n, r1, r2, seed=1)
        pairs = n * (n - 1) / 2
        p = 2 * (r2 - r1)
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(g.m - pairs * p) <= 3 * sigma

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            gen.gen_rag1(100, 0.3, 0.2, seed=0)
        with pytest.raises(ValueError):
            gen.gen_rag1(100, 0.0, 0.7, seed=0)

    def test_full_band_complete_graph(self):
        g, _ = gen.gen_rag1(120, 0.0, 0.5, seed=2)
        assert g.m == 120 * 119 // 2


class TestGbm1:
    def test_equal_radii_match_rag(self):
        inst = gen.gen_gbm1(400, 0.02, 0.02, seed=7)
        g, pos = gen.gen_rag1(400, 0.0, 0.02, seed=7)
        assert np.array_equal(inst.embeddings, pos)
        assert edge_set(inst.graph) == edge_set(g)

    def test_definitional_recheck(self):
        inst = gen.gen_gbm1(2000, 0.01, 0.004, seed=3)
        assert gen.recheck_instance(inst, non_edge_sample=100_000, seed=5)

    def test_mean_degree(self):
        # per-pair edge measure is 2r, so the expected degree at scaled
        # radii (a, b) is (a + b) log n; fifty seeded trials
        n, a, b = 5000, 13.0, 1.0
        ln = math.log(n)
        degs = []
        for trial in range(50):
            inst = gen.gen_gbm1(n, a * ln / n, b * ln / n, seed=trial)
            degs.append(2 * inst.graph.m / n)
        mean = float(np.mean(degs))
        assert abs(mean - (a + b) * ln) / ((a + b) * ln) < 0.10

    def test_rejects_odd_n_and_bad_radii(self):
        with pytest.raises(ValueError):
            gen.gen_gbm1(101, 0.01, 0.001, seed=0)
        with pytest.raises(ValueError):
            gen.gen_gbm1(100, 0.001, 0.01, seed=0)

    def test_truth_is_balanced_prefix(self):
        inst = gen.gen_gbm1(50, 0.02, 0.01, seed=0)
        assert (inst.truth[:25] == 0).all() and (inst.truth[25:] == 1).all()


class TestRagT:
    def test_complete_and_empty(self):
        g, _ = gen.gen_rag_t(80, 2, 0.0, 2.0, seed=1)
        assert g.m == 80 * 79 // 2
        g2, _ = gen.gen_rag_t(80, 2, 0.7, 0.7, seed=1)
        assert g2.m == 0

    def test_pair_edge_probability_matches_annulus(self):
        n, t = 5000, 2
        r1, r2 = 0.2, 0.5
        g, _ = gen.gen_rag_t(n, t, r1, r2, seed=6)
        pairs = n * (n - 1) / 2
        p = annulus_fraction(t, r1, r2)
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(g.m - pairs * p) <= 3 * sigma


class TestGbmT:
    def test_equal_radii_match_rag_t(self):
        inst = gen.gen_gbm_t(300, 2, 0.4, 0.4, seed=8)
        g, x = gen.gen_rag_t(300, 2, 0.0, 0.4, seed=8)
        assert np.array_equal(inst.embeddings, x)
        assert edge_set(inst.graph) == edge_set(g)

    def test_definitional_recheck(self):
        inst = gen.gen_gbm_t(1500, 3, 0.5, 0.2, seed=2)
        assert gen.recheck_instance(inst, non_edge_sample=100_000, seed=6)

    def test_intra_inter_frequencies(self):
        n, t, r_s, r_d = 5000, 2, 0.3, 0.15
        inst = gen.gen_gbm_t(n, t, r_s, r_d, seed=4)
        u, v = inst.graph.edges[:, 0], inst.graph.edges[:, 1]
        same = inst.truth[u] == inst.truth[v]
        intra_pairs = 2 * (n // 2) * (n // 2 - 1) / 2
        inter_pairs = (n // 2) ** 2
        for count, pairs, p in ((same.sum(), intra_pairs, cap_fraction(t, r_s)),
                                ((~same).sum(), inter_pairs, cap_fraction(t, r_d))):
            sigma = math.sqrt(pairs * p * (1 - p))
            assert abs(count - pairs * p) <= 3 * sigma

    def test_zero_rd_has_no_inter_edges(self):
        inst = gen.gen_gbm_t(600, 2, 0.5, 0.0, seed=9)
        u, v = inst.graph.edges[:, 0], inst.graph.edges[:, 1]
        assert np.all(inst.truth[u] == inst.truth[v])


class TestIntervalUnion:
    def test_single_interval_matches_rag1(self):
        ivs = gen.IntervalSet(((0.0, 0.015),))
        g, pos = gen.gen_interval_union_graph(700, ivs, seed=5)
        g2, pos2 = gen.gen_rag1(700, 0.0, 0.015, seed=5)
        assert np.array_equal(pos, pos2)
        assert edge_set(g) == edge_set(g2)

    def test_cover_gives_complete_graph(self):
        ivs = gen.IntervalSet(((0.0, 0.25), (0.25, 0.5)))
        g, _ = gen.gen_interval_union_graph(100, ivs, seed=1)
        assert g.m == 100 * 99 // 2

    def test_pair_edge_probability(self):
        n = 10_000
        ivs = gen.IntervalSet(((0.0, 0.0004), (0.001, 0.0018)))
        g, _ = gen.gen_interval_union_graph(n, ivs, seed=2)
        pairs = n * (n - 1) / 2
        p = 2 * ivs.total_length()
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(g.m - pairs * p) <= 3 * sigma

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError):
            gen.IntervalSet(((0.0, 0.02), (0.01, 0.03)))

    @pytest.mark.parametrize("lo, hi", [(0.02, 0.01), (-0.1, 0.1), (0.1, 0.7)])
    def test_band_error_names_rule_and_interval(self, lo, hi):
        message = re.escape(f"need 0 <= lo <= hi <= 1/2, got [{lo}, {hi}]")
        with pytest.raises(ValueError, match=message):
            gen.IntervalSet(((lo, hi),))
        with pytest.raises(ValueError, match=message):
            gen.gen_rag1(100, lo, hi, seed=0)


class TestEquivalenceAndDeterminism:
    def test_geodesic_band_equals_chord_band(self):
        # same embeddings, band mapped through the chord function: the
        # edge sets must coincide exactly
        n, r1, r2 = 800, 0.004, 0.012
        g, pos = gen.gen_rag1(n, r1, r2, seed=13)
        ex = np.stack([np.cos(2 * np.pi * pos), np.sin(2 * np.pi * pos)], axis=1)
        d = np.linalg.norm(ex[:, None, :] - ex[None, :, :], axis=2)
        c1, c2 = 2 * math.sin(math.pi * r1), 2 * math.sin(math.pi * r2)
        mask = np.triu((d >= c1) & (d <= c2), 1)
        expect = set(zip(*np.nonzero(mask)))
        assert edge_set(g) == expect

    def test_byte_identical_given_seed(self):
        a = gen.gen_gbm1(600, 0.02, 0.01, seed=21)
        b = gen.gen_gbm1(600, 0.02, 0.01, seed=21)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.embeddings, b.embeddings)
        c = gen.gen_gbm1(600, 0.02, 0.01, seed=22)
        assert not np.array_equal(a.embeddings, c.embeddings)

    def test_position_prefix_shared_across_sizes(self):
        small = gen.gen_gbm1(200, 0.02, 0.01, seed=21)
        big = gen.gen_gbm1(600, 0.02, 0.01, seed=21)
        assert np.array_equal(small.embeddings, big.embeddings[:200])
        s_t = gen.gen_gbm_t(100, 2, 0.4, 0.2, seed=5)
        b_t = gen.gen_gbm_t(400, 2, 0.4, 0.2, seed=5)
        assert np.array_equal(s_t.embeddings, b_t.embeddings[:100])

    def test_graph_invariants(self):
        for inst in (gen.gen_gbm1(500, 0.03, 0.01, seed=1),
                     gen.gen_gbm_t(500, 2, 0.5, 0.2, seed=1)):
            inst.graph.validate()


class TestGraphIO(object):
    def test_round_trip(self, tmp_path):
        inst = gen.gen_gbm1(300, 0.02, 0.01, seed=17)
        p = tmp_path / "g.txt"
        gr.write_graph(str(p), inst.graph, t=1)
        g2, t = gr.read_graph(str(p))
        assert t == 1 and g2.n == inst.graph.n
        assert np.array_equal(g2.edges, inst.graph.edges)

    def test_embeddings_and_labels_round_trip(self, tmp_path):
        inst = gen.gen_gbm_t(50, 2, 0.5, 0.2, seed=3)
        pe = tmp_path / "e.txt"
        pl = tmp_path / "l.txt"
        gr.write_embeddings(str(pe), inst.embeddings)
        gr.write_labels(str(pl), inst.truth)
        emb = gr.read_embeddings(str(pe))
        lab = gr.read_labels(str(pl))
        assert np.allclose(emb, inst.embeddings, atol=0, rtol=0)
        assert np.array_equal(lab, inst.truth)

    def test_circle_embeddings_round_trip(self, tmp_path):
        inst = gen.gen_gbm1(40, 0.02, 0.01, seed=3)
        pe = tmp_path / "e1.txt"
        gr.write_embeddings(str(pe), inst.embeddings)
        emb = gr.read_embeddings(str(pe))
        assert emb.ndim == 1 and np.array_equal(emb, inst.embeddings)

    def test_duplicate_edge_file_rejected(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("3 2 1\n0 1\n0 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            gr.read_graph(str(p))

    @pytest.mark.parametrize("body, match", [
        ("0 1\n1 x\n", "not an integer"),
        ("0 1\n1 2.5\n", "not an integer"),
        ("0 1\n1\n", "odd number"),
        ("0 1\n", "expected 2 edges, found 1"),
        ("0 1\n1 2\n0 2\n", "expected 2 edges, found 3"),
        ("", "expected 2 edges, found 0"),
    ])
    def test_malformed_edge_lines_rejected(self, tmp_path, body, match):
        p = tmp_path / "bad.txt"
        p.write_text("3 2 1\n" + body)
        with pytest.raises(ValueError, match=match):
            gr.read_graph(str(p))

    @pytest.mark.parametrize("header", ["3 1", "3 1 1 1", "-5 0 1", "3 -1 1", "3 1 0",
                                        "3 0 -2", "3 1.5 1", "a b c"])
    def test_malformed_header_rejected(self, tmp_path, header):
        p = tmp_path / "bad.txt"
        p.write_text(header + "\n0 1\n")
        with pytest.raises(ValueError, match=r"bad.txt: malformed header$"):
            gr.read_graph(str(p))

    def test_whitespace_tolerant(self, tmp_path):
        p = tmp_path / "ws.txt"
        p.write_text("3 2 1\n0  1\r\n\t1 2 \n\n")
        g, t = gr.read_graph(str(p))
        assert t == 1 and g.edges.tolist() == [[0, 1], [1, 2]]
        p.write_text("4 0 2\n \n")
        g, t = gr.read_graph(str(p))
        assert t == 2 and g.n == 4 and g.m == 0

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="self-loop"):
            gr.from_edges(3, [0, 2], [1, 2])
        p = tmp_path / "loop.txt"
        p.write_text("3 1 1\n1 1\n")
        with pytest.raises(ValueError, match="self-loop"):
            gr.read_graph(str(p))

    def test_corrupted_csr_fails_validate(self):
        import dataclasses
        g = gen.gen_gbm1(300, 0.05, 0.02, seed=5).graph
        g.validate()
        u = int(np.argmax(g.degrees() >= 2))
        s = int(g.indptr[u])
        unsorted = g.indices.copy()
        unsorted[s], unsorted[s + 1] = unsorted[s + 1], unsorted[s]
        loop = g.indices.copy()
        loop[s] = u
        for indices in (unsorted, loop):
            with pytest.raises(ValueError, match=f"vertex {u}"):
                dataclasses.replace(g, indices=indices).validate()
        with pytest.raises(ValueError, match="indptr"):
            dataclasses.replace(g, indptr=g.indptr[:-1]).validate()
        # drop u's entry of its first neighbor, keeping that neighbor's entry of u
        indptr = g.indptr.copy()
        indptr[u + 1:] -= 1
        with pytest.raises(ValueError, match="not symmetric"):
            dataclasses.replace(g, indptr=indptr, indices=np.delete(g.indices, s)).validate()
