import json

import numpy as np
import pytest

from gbmlab import cli
from gbmlab import graph as gr


def run_cli(*argv):
    return cli.run(list(argv))


class TestGen:
    def test_deterministic_outputs(self, tmp_path):
        p1, p2 = tmp_path / "x1", tmp_path / "x2"
        assert run_cli("gen", "--n", "1000", "--a", "9", "--b", "1",
                       "--seed", "7", "--out", str(p1)) == 0
        assert run_cli("gen", "--n", "1000", "--a", "9", "--b", "1",
                       "--seed", "7", "--out", str(p2)) == 0
        for suffix in (".graph.txt", ".embeddings.txt", ".truth.txt"):
            assert (p1.parent / (p1.name + suffix)).read_bytes() == \
                   (p2.parent / (p2.name + suffix)).read_bytes()

    def test_round_trip_graph(self, tmp_path):
        p = tmp_path / "g"
        run_cli("gen", "--n", "500", "--a", "8", "--b", "1", "--seed", "3",
                "--out", str(p))
        from gbmlab.generators import gen_gbm1, radius_from_scale
        inst = gen_gbm1(500, radius_from_scale(8, 500), radius_from_scale(1, 500), 3)
        g2, t = gr.read_graph(str(p) + ".graph.txt")
        assert t == 1
        assert np.array_equal(g2.edges, inst.graph.edges)

    def test_rag_family_and_raw_radii(self, tmp_path):
        p = tmp_path / "r"
        assert run_cli("gen", "--family", "rag", "--n", "300", "--rs", "0.02",
                       "--rd", "0.005", "--seed", "1", "--out", str(p)) == 0
        g, _ = gr.read_graph(str(p) + ".graph.txt")
        assert g.n == 300

    def test_scaled_and_raw_exclusive(self, tmp_path):
        assert run_cli("gen", "--n", "100", "--a", "9", "--b", "1",
                       "--rs", "0.1", "--rd", "0.01", "--seed", "1",
                       "--out", str(tmp_path / "y")) == 1


class TestPipelines:
    def test_recover_then_eval(self, tmp_path):
        p = tmp_path / "inst"
        run_cli("gen", "--n", "2000", "--a", "13", "--b", "1", "--seed", "5",
                "--out", str(p))
        out = tmp_path / "rec.json"
        assert run_cli("recover", "--in", str(p) + ".graph.txt",
                       "--a", "13", "--b", "1", "--out", str(out)) == 0
        rec = json.loads(out.read_text())
        assert rec["schema"] == "gbm-lab/1"
        pred_path = tmp_path / "pred.txt"
        np.savetxt(pred_path, np.array(rec["labels"], int), fmt="%d")
        ev = tmp_path / "eval.json"
        assert run_cli("eval", "--pred", str(pred_path),
                       "--truth", str(p) + ".truth.txt", "--out", str(ev)) == 0
        metrics = json.loads(ev.read_text())["metrics"]
        assert "f_score" in metrics
        assert metrics["f_score"] > 0.99

    def test_decisions_csv(self, tmp_path):
        p = tmp_path / "inst"
        run_cli("gen", "--n", "500", "--a", "13", "--b", "1", "--seed", "2",
                "--out", str(p))
        dec = tmp_path / "dec.csv"
        run_cli("recover", "--in", str(p) + ".graph.txt", "--a", "13", "--b", "1",
                "--decisions-csv", str(dec), "--out", str(tmp_path / "r.json"))
        lines = dec.read_text().splitlines()
        assert lines[1] == "u,v,count,kept"
        assert len(lines) > 10

    def test_recover_hd(self, tmp_path):
        p = tmp_path / "hd"
        n = 1000
        a_t = 12.0
        run_cli("gen", "--n", str(n), "--t", "2", "--a", str(a_t),
                "--b", str(a_t / 4), "--seed", "4", "--out", str(p))
        out = tmp_path / "hd.json"
        assert run_cli("recover-hd", "--in", str(p) + ".graph.txt", "--t", "2",
                       "--a", str(a_t), "--b", str(a_t / 4), "--out", str(out)) == 0
        res = json.loads(out.read_text())
        assert res["stats"]["components_count"] >= 2

    def test_recover_loc(self, tmp_path):
        p = tmp_path / "loc"
        run_cli("gen", "--n", "1500", "--a", "2.5", "--b", "1.0", "--seed", "6",
                "--out", str(p))
        out = tmp_path / "loc.json"
        assert run_cli("recover-loc", "--in", str(p) + ".graph.txt",
                       "--embeddings", str(p) + ".embeddings.txt",
                       "--a", "2.5", "--b", "1.0", "--out", str(out)) == 0
        res = json.loads(out.read_text())
        assert res["status"] in ("ok", "conflict")
        assert "components_count" in res


class TestTable1AndThresholds:
    def test_table1_rows(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli("table1", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "b,min_a"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 8
        expected = {"0.01": 3.18, "1.0": 8.96, "2.0": 12.63, "3.0": 15.9,
                    "4.0": 18.98, "5.0": 21.93, "6.0": 24.78, "7.0": 27.57}
        for b, a in rows:
            assert abs(float(a) - expected[b]) <= 0.02

    def test_thresholds_json(self, tmp_path):
        out = tmp_path / "th.json"
        assert run_cli("thresholds", "--n", "5000", "--a", "13", "--b", "1",
                       "--out", str(out)) == 0
        ts = json.loads(out.read_text())["thresholds"]
        for key in ("f1", "f2", "theta1", "theta2", "E_S", "E_D"):
            assert key in ts


class TestDenseAndPhase:
    def test_dense_json(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("dense", "--n", "1200", "--t", "2", "--rs", "0.8",
                       "--rd", "0.4", "--seed", "2", "--out", str(out)) == 0
        res = json.loads(out.read_text())
        plan = res["plan"]
        assert res["queries_used"] == plan["h"] * (plan["h"] - 1) // 2 + \
            (1200 - plan["h"]) * 2 * plan["g"]
        assert 0 < res["fraction_of_pairs"] <= 1

    def test_phase_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("phase", "--n", "1200", "--points", "1.6:1.0,0.9:0.0",
                       "--trials", "3", "--seed", "1", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "a,b,trials,connected_frac,isolated_frac,mean_components"
        assert len(lines) == 3
        assert lines[1].startswith("1.6,1.0,3,")


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_missing_radii(self, tmp_path):
        assert run_cli("gen", "--n", "100", "--seed", "1",
                       "--out", str(tmp_path / "z")) == 1

    def test_infeasible_regime(self):
        assert run_cli("thresholds", "--n", "100", "--a", "1", "--b", "1") == 2

    def test_missing_input_file_clean_error(self, tmp_path, capsys):
        assert run_cli("recover", "--in", str(tmp_path / "missing.graph.txt"),
                       "--a", "13", "--b", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("body", ["0 1\n1 x\n", "0 1\n1\n", "0 1\n", "0 1\n1 2\n0 2\n"])
    def test_malformed_graph_file_clean_error(self, tmp_path, capsys, body):
        # a non-integer token, an odd token count, too few and too many edges
        p = tmp_path / "bad.graph.txt"
        p.write_text("3 2 1\n" + body)
        assert run_cli("recover", "--in", str(p), "--a", "13", "--b", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err and len(err.splitlines()) == 1

    def test_malformed_phase_point_clean_error(self, capsys):
        assert run_cli("phase", "--n", "100", "--points", "1.6") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1.6" in err and len(err.splitlines()) == 1

    def test_generator_radius_error_clean(self, tmp_path, capsys):
        assert run_cli("gen", "--n", "100", "--rs", "0.1", "--rd", "0.3",
                       "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("thresholds", "--n", "5000", "--a", "nan", "--b", "1"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "inf"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "1", "--divergence-target", "nan"),
        ("gen", "--n", "100", "--a", "13", "--b", "1", "--t", "0"),
        ("gen", "--n", "0", "--a", "13", "--b", "1"),
        ("gen", "--n", "-5", "--a", "13", "--b", "1"),
        ("dense", "--n", "100", "--t", "0", "--rs", "0.6", "--rd", "0.4"),
    ])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "gen":
            argv += ("--out", str(tmp_path / "x"))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_huge_divergence_target_ends(self, capsys):
        # the bisection for f1 ends at adjacent floats 6e-8 apart
        assert run_cli("thresholds", "--n", "5000", "--a", "13", "--b", "1",
                       "--divergence-target", "1e10") == 0
        assert json.loads(capsys.readouterr().out)["thresholds"]["f1"] > 5e8

    def test_heap_is_trimmed_after_every_command(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_trim_heap", lambda: calls.append(1))
        assert run_cli("thresholds", "--n", "5000", "--a", "13", "--b", "1") == 0
        assert run_cli("thresholds", "--n", "100", "--a", "1", "--b", "1") == 2
        assert run_cli("gen", "--n", "0") == 1
        assert calls == [1, 1, 1]

    def test_removed_fast_mode_flag_is_usage_error(self, tmp_path):
        assert run_cli("recover", "--in", str(tmp_path / "g.graph.txt"), "--a", "13",
                       "--b", "1", "--fast-mode") == 1
