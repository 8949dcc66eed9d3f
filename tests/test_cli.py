import contextlib
import io
import json
import math
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("text, message", [
        ("-5 0 1\n", "malformed header"), ("3 1 0\n0 1\n", "malformed header"),
        ("0 0 1\n", "n must be >= 3"), ("1 0 1\n", "n must be >= 3")])
    def test_graph_header_out_of_range_clean_error(self, tmp_path, capsys, text, message):
        # a count below 0 or t below 1 is a malformed header (the other cases
        # are in `TestGraphIO`); n below 3 has no finite-size exponent, as it
        # has no 1-D thresholds
        p = tmp_path / "bad.graph.txt"
        p.write_text(text)
        assert run_cli("recover", "--in", str(p), "--a", "13", "--b", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, radii, code", [
        ("0 0 1\n", ("--rs", "0.6", "--rd", "0.4"), 1), ("0 0 1\n", ("--a", "12", "--b", "3"), 1),
        ("1 0 1\n", ("--rs", "0.6", "--rd", "0.4"), 0), ("2 0 1\n", ("--rs", "0.6", "--rd", "0.4"), 0)])
    def test_recover_hd_small_n(self, tmp_path, capsys, text, radii, code):
        # log n is undefined below n = 1, in the thresholds and in the scaled radii
        p = tmp_path / "small.graph.txt"
        p.write_text(text)
        assert run_cli("recover-hd", "--in", str(p), "--t", "2", *radii,
                       "--out", str(tmp_path / "out.json")) == code
        err = capsys.readouterr().err
        assert err == ("error: n must be >= 1\n" if code else "")

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
        ("gen", "--family", "rag", "--n", "100", "--rs", "0.01", "--rd", "0.02"),
        ("phase", "--n", "100", "--points", "1.0:1.6"),
        ("phase", "--n", "100", "--points", "1.6:1.0", "--family", "interval_union", "--c", "-1"),
    ])
    def test_circle_band_error_names_rule_and_band(self, tmp_path, capsys, argv):
        if argv[0] == "gen":
            argv += ("--out", str(tmp_path / "x"))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 <= lo <= hi <= 1/2, got [")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "100", "--a", "13", "--b", "1"),
        ("dense", "--n", "100", "--rs", "0.6", "--rd", "0.4"),
        ("phase", "--n", "100", "--points", "1.6:1.0"),
    ])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, argv, seed):
        if argv[0] == "gen":
            argv += ("--out", str(tmp_path / "x"))
        assert run_cli(*argv, "--seed", seed) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: argument --seed: expected an integer >= 0, got {seed!r}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("thresholds", "--n", "5000", "--a", "nan", "--b", "1"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "inf"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "1", "--divergence-target", "nan"),
        ("gen", "--n", "100", "--a", "13", "--b", "1", "--t", "0"),
        ("gen", "--n", "0", "--a", "13", "--b", "1"),
        ("gen", "--n", "-5", "--a", "13", "--b", "1"),
        ("dense", "--n", "100", "--t", "0", "--rs", "0.6", "--rd", "0.4"),
        ("dense", "--n", "1", "--rs", "0.6", "--rd", "0.4"),
    ])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "gen":
            argv += ("--out", str(tmp_path / "x"))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-3"), ("--trials", "0")])
    def test_phase_counts_below_one_fail_at_parse_time(self, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli.analysis, "phase_sweep", lambda *a, **k: pytest.fail("ran"))
        assert run_cli("phase", "--n", "100", "--points", "1.6:1.0", flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: expected an integer >= 1")

    @pytest.mark.parametrize("cores, value", [(1, "2"), (2, "3"), (2, "100000")])
    def test_phase_jobs_above_the_usable_cores_fail_at_parse_time(self, monkeypatch, capsys,
                                                                  cores, value):
        # the sweep is replaced, so no worker thread can start whatever --jobs says
        monkeypatch.setattr(cli.dense, "THREADS", cores)
        monkeypatch.setattr(cli.analysis, "phase_sweep", lambda *a, **k: pytest.fail("ran"))
        assert run_cli("phase", "--n", "100", "--points", "1.6:1.0", "--jobs", value) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: argument --jobs: expected at most {cores} "
                       f"(the usable cores), got '{value}'\n")

    def test_phase_jobs_up_to_the_usable_cores_reach_the_sweep(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.dense, "THREADS", 3)
        seen = []
        point = cli.analysis.PhasePoint(a=1.6, b=1.0, trials=1, connected_frac=1.0,
                                        isolated_frac=0.0, mean_components=1.0)
        monkeypatch.setattr(cli.analysis, "phase_sweep",
                            lambda *a, jobs, **k: seen.append(jobs) or [point])
        for value in ("1", "3"):
            assert run_cli("phase", "--n", "100", "--points", "1.6:1.0", "--jobs", value,
                           "--out", str(tmp_path / "p.csv")) == 0
        assert seen == [1, 3]

    @pytest.mark.parametrize("value", ["-1e308", "-inf", "-nan", "-1e-3"])
    def test_negative_number_is_a_flag_value(self, tmp_path, capsys, value):
        # read as the value of --a, so the finite check or the radius check names it
        assert run_cli("gen", "--n", "100", "--a", value, "--b", "1",
                       "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        if math.isfinite(float(value)):
            assert err.startswith("error: need 0 <= r_d <= r_s <= 1/2, got r_s=-")
        else:
            assert err.startswith(f"usage error: argument --a: expected a finite number, got {value!r}")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("thresholds", "--n", "5000", "--a", "13", "--b", "1", "--divergence-target", "0"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "1", "--divergence-target", "-1e-3"),
        ("thresholds", "--n", "5000", "--a", "13", "--b", "1", "--divergence-target", "-1e308"),
        ("recover", "--a", "13", "--b", "1", "--divergence-target", "0"),
    ])
    def test_divergence_target_not_above_zero_is_error(self, tmp_path, capsys, argv):
        if argv[0] == "recover":
            assert run_cli("gen", "--n", "500", "--a", "13", "--b", "1",
                           "--out", str(tmp_path / "x")) == 0
            argv += ("--in", str(tmp_path / "x.graph.txt"), "--out", str(tmp_path / "r.json"))
        capsys.readouterr()
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        target = float(argv[argv.index("--divergence-target") + 1])
        assert captured.err == f"error: divergence target must be > 0, got {target}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("points, value, point", [
        ("-inf:1", "-inf", "-inf:1"), ("1:nan", "nan", "1:nan"), ("1e999:1", "1e999", "1e999:1"),
        ("x:1", "x", "x:1"), ("1.6:1.0,-1e999:0", "-1e999", "-1e999:0"),
    ])
    def test_non_finite_phase_point_is_usage_error(self, monkeypatch, capsys, points, value, point):
        monkeypatch.setattr(cli.analysis, "phase_sweep", lambda *a, **k: pytest.fail("ran"))
        assert run_cli("phase", "--n", "100", "--points", points) == 1
        assert capsys.readouterr().err == (f"usage error: argument --points: expected a finite "
                                           f"number, got {value!r} in point {point!r}\n")

    @pytest.mark.parametrize("point", ["-1:2", "-1e308:1", "-0.5:-1"])
    def test_negative_phase_point_is_a_flag_value(self, capsys, point):
        # read as the value of --points, so the circle band check names it
        assert run_cli("phase", "--n", "100", "--points", point) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 <= lo <= hi <= 1/2, got [")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("body, vertex, value", [
        ("0.1\nnan\n0.3\ninf\n", 1, "nan"), ("-inf\n0.2\n0.3\n0.4\n", 0, "-inf"),
        ("0.1\n0.2\n0.3\ninf\n", 3, "inf"),
    ])
    def test_non_finite_embedding_is_error(self, tmp_path, capsys, body, vertex, value):
        (tmp_path / "g.graph.txt").write_text("4 0 1\n")
        (tmp_path / "e.txt").write_text(body)
        out = tmp_path / "loc.json"
        assert run_cli("recover-loc", "--in", str(tmp_path / "g.graph.txt"),
                       "--embeddings", str(tmp_path / "e.txt"), "--rs", "0.6", "--rd", "0.2",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: embedding of vertex {vertex} is not finite: {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("0,1\n0.3\n0.4,0.5\n0.6,0.7\n", "the number of columns changed from 2 to 1 at row 2"),
        ("0.1\nx\n0.3\n0.4\n", "could not convert string 'x' to float64 at row 1, column 1"),
    ])
    def test_embeddings_errors_name_the_file(self, tmp_path, capsys, body, message):
        (tmp_path / "g.graph.txt").write_text("4 0 1\n")
        emb = tmp_path / "e.txt"
        emb.write_text(body)
        assert run_cli("recover-loc", "--in", str(tmp_path / "g.graph.txt"), "--embeddings", str(emb),
                       "--rs", "0.6", "--rd", "0.2", "--out", str(tmp_path / "loc.json")) == 1
        assert capsys.readouterr().err.startswith(f"error: {emb}: {message}")

    @pytest.mark.parametrize("body", ["0 1 1 0\n", "0 1\n1 0\n0 0\n1 1\n", "0\n1 1\n", "0\n1\t1\n",
                                      "0\nx\n", "0\n1.5\n"])
    @pytest.mark.parametrize("side", ["--pred", "--truth"])
    def test_labels_one_per_line(self, tmp_path, capsys, body, side):
        # a row of four labels, two columns, a ragged line or a token that is
        # not an integer, against four lines of labels; the message names the file
        two = any(len(line.split()) > 1 for line in body.splitlines())
        message = "expected one label per line" if two else "labels hold a token that is not an integer"
        four, bad = tmp_path / "four.txt", tmp_path / "bad.txt"
        four.write_text("0\n1\n1\n0\n")
        bad.write_text(body)
        files = {"--pred": str(four), "--truth": str(four), side: str(bad)}
        out = tmp_path / "e.json"
        assert run_cli("eval", "--pred", files["--pred"], "--truth", files["--truth"],
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("embeddings, radii, message", [
        ("0.1\n0.2\n0.3\n0.4\n", ("--rs", "0.2", "--rd", "0.6"),
         "need 0 <= r_d <= r_s <= 1/2, got r_s=0.2, r_d=0.6"),
        ("0.1\n0.2\n0.3\n0.4\n", ("--rs", "0.6", "--rd", "0.2"),
         "need 0 <= r_d <= r_s <= 1/2, got r_s=0.6, r_d=0.2"),
        ("0.1\n0.2\n0.3\n0.4\n", ("--a", "1", "--b", "4"), "need 0 <= r_d <= r_s <= 1/2, got r_s="),
        ("0.1\n1e308\n0.3\n0.4\n", ("--rs", "0.2", "--rd", "0.1"),
         "embedding of vertex 1 lies outside [0, 1): 1e+308"),
        ("0.1\n0.2\n0.3\n1.0\n", ("--rs", "0.2", "--rd", "0.1"),
         "embedding of vertex 3 lies outside [0, 1): 1.0"),
    ])
    def test_recover_loc_radii_and_positions_follow_the_circle_model(self, tmp_path, capsys,
                                                                    embeddings, radii, message):
        (tmp_path / "g.graph.txt").write_text("4 0 1\n")
        (tmp_path / "e.txt").write_text(embeddings)
        out = tmp_path / "loc.json"
        assert run_cli("recover-loc", "--in", str(tmp_path / "g.graph.txt"),
                       "--embeddings", str(tmp_path / "e.txt"), *radii, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("radii", [("--rs", "3", "--rd", "1"), ("--rs", "2.5", "--rd", "2.2"),
                                       ("--a", "1e3", "--b", "1")])
    def test_recover_hd_radius_above_two_is_infeasible(self, tmp_path, capsys, radii):
        p = str(tmp_path / "s")
        assert run_cli("gen", "--n", "100", "--t", "2", "--rs", "0.6", "--rd", "0.3",
                       "--out", p) == 0
        assert run_cli("recover-hd", "--in", p + ".graph.txt", "--t", "2", *radii) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible regime: need 0 < r_d < r_s <= 2, got r_s=")
        assert len(captured.err.splitlines()) == 1

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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


#: the numbers a flag or a point gets: edge cases and ordinary values, as text
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "-2.5", "nan", "-nan", "inf", "-inf", "1e308", "-1e308"]),
    st.floats(-20, 20, allow_nan=False).map(repr),
    st.floats(0, 8).map(repr),
)


@st.composite
def points(draw):
    """One a:b point, ordered a >= b half of the time when both are numbers."""
    a, b = draw(NUMBERS), draw(NUMBERS)
    if draw(st.booleans()) and float(a) < float(b):
        a, b = b, a
    return f"{a}:{b}"


@st.composite
def phase_argvs(draw):
    """`phase` over every family, small sizes, drawn points and --c."""
    return ["phase", "--n", str(draw(st.integers(1, 60))),
            "--points", ",".join(draw(st.lists(points(), min_size=1, max_size=3))),
            "--family", draw(st.sampled_from(["rag1", "rag_t", "interval_union"])),
            "--t", str(draw(st.integers(1, 3))), "--c", draw(NUMBERS),
            "--trials", str(draw(st.integers(1, 3))),
            "--jobs", str(draw(st.integers(1, cli.dense.THREADS))),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def gen_argvs(draw):
    """`gen` in both families, small sizes (even half of the time, as gbm
    needs) and drawn scaled or raw radii, ordered outer >= inner half of the
    time; --out is appended by the test."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        n += n % 2
    radius = st.one_of(NUMBERS, st.floats(0, 0.5).map(repr))
    outer, inner = draw(radius), draw(radius)
    if draw(st.booleans()) and float(outer) < float(inner):
        outer, inner = inner, outer
    flags = draw(st.sampled_from([("--a", "--b"), ("--rs", "--rd")]))
    return ["gen", "--family", draw(st.sampled_from(["gbm", "rag"])), "--n", str(n),
            "--t", str(draw(st.integers(1, 3))), flags[0], outer, flags[1], inner,
            "--seed", str(draw(st.integers(0, 2 ** 32)))]


@st.composite
def dense_argvs(draw):
    """`dense` at small sizes, n = 1 and 2 often (n = 1 is a usage error),
    drawn scaled radii or raw radii in [0, 2], ordered outer >= inner half of
    the time, and drawn --theta-s and --theta-d."""
    n = draw(st.one_of(st.integers(1, 2), st.integers(1, 80)))
    flags = draw(st.sampled_from([("--a", "--b"), ("--rs", "--rd")]))
    radius = NUMBERS if flags[0] == "--a" else st.floats(0, 2).map(repr)
    outer, inner = draw(radius), draw(radius)
    if draw(st.booleans()) and float(outer) < float(inner):
        outer, inner = inner, outer
    return ["dense", "--n", str(n), "--t", str(draw(st.integers(1, 3))),
            flags[0], outer, flags[1], inner,
            "--theta-s", draw(NUMBERS), "--theta-d", draw(NUMBERS),
            "--seed", str(draw(st.integers(0, 2 ** 32)))]


@st.composite
def thresholds_argvs(draw):
    return ["thresholds", "--n", str(draw(st.integers(1, 60))),
            "--a", draw(NUMBERS), "--b", draw(NUMBERS)]


@st.composite
def radii_flags(draw):
    """Drawn radii: a scaled or raw pair that the small gen files suit half of
    the time, else drawn values (raw ones in [0, 2] half of the time) ordered
    outer >= inner half of the time; now and then a mixed pair or a lone flag."""
    flags = draw(st.one_of(st.sampled_from([("--a", "--b"), ("--rs", "--rd")]),
                           st.sampled_from([("--a", "--rd"), ("--rs",), ()])))
    radius = NUMBERS if "--a" in flags else st.one_of(NUMBERS, st.floats(0, 2).map(repr))
    suited = ("4", "1") if "--a" in flags else ("0.6", "0.2")
    outer, inner = draw(st.one_of(st.just(suited), st.tuples(radius, radius)))
    if draw(st.booleans()) and float(outer) < float(inner):
        outer, inner = inner, outer
    return [x for flag, value in zip(flags, (outer, inner)) for x in (flag, value)]


@st.composite
def recover_hd_argvs(draw, files):
    """`recover-hd` on a drawn graph file with drawn --t, radii and, half of
    the time, --cs and --cd."""
    graphs = sorted(k for k in files if k.endswith(".graph.txt")) + ["missing"]
    graph = draw(st.one_of(st.just("s.graph.txt"), st.sampled_from(graphs)))
    argv = ["recover-hd", "--in", files[graph], "--t", str(draw(st.integers(1, 3)))]
    argv += draw(radii_flags())
    if draw(st.booleans()):
        factor = st.one_of(NUMBERS, st.sampled_from(["1", "2", "0.5"]))
        argv += ["--cs", draw(factor), "--cd", draw(factor)]
    return argv


@st.composite
def recover_loc_argvs(draw, files):
    """`recover-loc` on a drawn graph file and embeddings file with drawn radii;
    a third of the time the circle instance's two files, a third of the time a
    non-finite embeddings file with a graph of its size."""
    graphs = sorted(k for k in files if k.endswith(".graph.txt")) + ["missing"]
    embeddings = sorted(k for k in files if k.endswith(".embeddings.txt")) + ["empty.txt",
                                                                             "missing"]
    pick = draw(st.integers(0, 2))
    if pick == 0:
        graph, emb = "g.graph.txt", "g.embeddings.txt"
    elif pick == 1:
        graph, emb = draw(st.sampled_from([("no_edges.graph.txt", "nonfinite.embeddings.txt"),
                                           ("no_edges.graph.txt", "nonfinite_neg.embeddings.txt"),
                                           ("g.graph.txt", "nonfinite60.embeddings.txt")]))
    else:
        graph, emb = draw(st.sampled_from(graphs)), draw(st.sampled_from(embeddings))
    return ["recover-loc", "--in", files[graph], "--embeddings", files[emb]] + draw(radii_flags())


@pytest.fixture(scope="class")
def input_files(tmp_path_factory):
    """{name: path} of graph, embeddings and label files for drawn runs: small
    seeded gen outputs, hand-broken files and a path that does not exist."""
    d = tmp_path_factory.mktemp("inputs")
    assert cli.run(["gen", "--n", "60", "--a", "5", "--b", "1", "--seed", "3",
                    "--out", str(d / "g")]) == 0
    assert cli.run(["gen", "--n", "40", "--t", "2", "--a", "4", "--b", "1", "--seed", "3",
                    "--out", str(d / "s")]) == 0
    gr.write_labels(str(d / "pred.txt"), np.random.default_rng(3).integers(-1, 2, 60))
    broken = {"no_edges.graph.txt": "4 0 1\n", "loop.graph.txt": "3 1 1\n1 1\n",
              "token.graph.txt": "3 1 1\n0 x\n", "header.graph.txt": "3 1\n0 1\n",
              "negative.graph.txt": "-5 0 1\n", "empty.graph.txt": "0 0 1\n",
              "single.graph.txt": "1 0 1\n", "t0.graph.txt": "3 1 0\n0 1\n",
              "empty.txt": "", "token.txt": "0\nx\n", "float.txt": "0\n1.5\n",
              "short.txt": "0\n1\n-1\n", "row.txt": "0 1 1 0\n", "columns.txt": "0 1\n1 0\n",
              "ragged.txt": "0\n1 1\n",
              "token.embeddings.txt": "0.1\nx\n",
              "nonfinite.embeddings.txt": "0.1\nnan\n0.3\ninf\n",
              "nonfinite_neg.embeddings.txt": "-inf\n0.2\n0.3\n0.4\n",
              "nonfinite60.embeddings.txt": "0.5\n" * 59 + "nan\n",
              "ragged.embeddings.txt": "0.1,0.2\n0.3\n0.4,0.5\n0.6,0.7\n",
              "wide.embeddings.txt": "0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n"}
    for name, body in broken.items():
        (d / name).write_text(body)
    return {p.name: str(p) for p in d.iterdir()} | {"missing": str(d / "missing.txt")}


@st.composite
def recover_argvs(draw, files):
    """`recover` on a drawn graph file with drawn --a, --b and, half of the
    time, --divergence-target; --decisions-csv is appended by the test."""
    graphs = sorted(k for k in files if k.endswith(".graph.txt")) + ["missing"]
    graph = draw(st.one_of(st.just("g.graph.txt"), st.sampled_from(graphs)))
    argv = ["recover", "--in", files[graph],
            "--a", draw(st.one_of(NUMBERS, st.sampled_from(["13", "20"]))),
            "--b", draw(st.one_of(NUMBERS, st.sampled_from(["1", "0.5"])))]
    if draw(st.booleans()):
        argv += ["--divergence-target", draw(NUMBERS)]
    return argv


@st.composite
def eval_argvs(draw, files):
    """`eval` on two drawn label files."""
    labels = ["g.truth.txt", "pred.txt", "s.truth.txt", "empty.txt", "token.txt",
              "float.txt", "short.txt", "row.txt", "columns.txt", "ragged.txt", "missing"]
    return ["eval", "--pred", files[draw(st.sampled_from(labels))],
            "--truth", files[draw(st.sampled_from(labels))]]


class TestDrawnInputs:
    """Drawn values end in a documented exit code, never a traceback or a
    non-finite number in the output."""

    @staticmethod
    def run_drawn(argv):
        """(exit code, stdout) of one run, after the checks common to every command."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert time.perf_counter() - start < 10.0
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        return code, out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(phase_argvs(), thresholds_argvs()))
    def test_clean_exit(self, argv):
        code, text = self.run_drawn(argv)
        if code == 0 and "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            lines = text.splitlines()
            assert lines[0].startswith("# schema=") and lines[1].startswith("a,b,")
            for line in lines[2:]:
                assert all(math.isfinite(float(x)) for x in line.split(","))
        elif code == 0:
            json.loads(text, parse_constant=_reject_constant)

    @settings(max_examples=200, deadline=None)
    @given(gen_argvs())
    def test_gen_clean_exit(self, argv):
        with tempfile.TemporaryDirectory() as d:
            prefix = os.path.join(d, "x")
            code, text = self.run_drawn(argv + ["--out", prefix])
            assert text == ""
            if code == 0:
                with open(prefix + ".meta.json") as fh:
                    meta = json.load(fh, parse_constant=_reject_constant)
                g, t = gr.read_graph(prefix + ".graph.txt")
                g.validate()
                assert (g.n, g.m, t) == (meta["n"], meta["m"], meta["params"]["t"])

    @settings(max_examples=200, deadline=None)
    @given(dense_argvs())
    def test_dense_clean_exit(self, argv):
        code, text = self.run_drawn(argv)
        if code == 0:
            json.loads(text, parse_constant=_reject_constant)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_recover_clean_exit(self, input_files, data):
        argv = data.draw(recover_argvs(input_files))
        with tempfile.TemporaryDirectory() as d:
            csv = os.path.join(d, "dec.csv")
            decisions = data.draw(st.booleans())
            code, text = self.run_drawn(argv + ["--decisions-csv", csv] if decisions else argv)
            if code != 0:
                return
            json.loads(text, parse_constant=_reject_constant)
            g, _ = gr.read_graph(argv[2])
            assert os.path.exists(csv) == (decisions and g.m > 0)
            if os.path.exists(csv):
                with open(csv) as fh:
                    lines = fh.read().splitlines()
                assert lines[0].startswith("# schema=") and lines[1] == "u,v,count,kept"
                rows = np.array([[int(x) for x in line.split(",")] for line in lines[2:]])
                assert np.array_equal(rows[:, :2], g.edges)
                assert set(rows[:, 3].tolist()) <= {0, 1} and rows[:, 2].min() >= 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_recover_hd_and_loc_clean_exit(self, input_files, data):
        argv = data.draw(st.one_of(recover_hd_argvs(input_files), recover_loc_argvs(input_files)))
        code, text = self.run_drawn(argv)
        if argv[0] == "recover-loc" and "nonfinite" in os.path.basename(argv[4]):
            assert code == 1
        if code == 0:
            out = json.loads(text, parse_constant=_reject_constant)
            g, _ = gr.read_graph(argv[2])
            labels = out["labels"]
            assert labels is None or (len(labels) == g.n and set(labels) <= {-1, 0, 1})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_eval_and_table1_clean_exit(self, input_files, data):
        table1 = st.sampled_from([["table1"], ["table1", "--format", "csv"],
                                  ["table1", "--format", "json"]])
        argv = data.draw(st.one_of(eval_argvs(input_files), table1))
        code, text = self.run_drawn(argv)
        if code == 0 and argv[0] == "table1" and "json" not in argv:
            lines = text.splitlines()
            assert lines[0].startswith("# schema=") and lines[1] == "b,min_a" and len(lines) == 10
            for line in lines[2:]:
                assert all(math.isfinite(float(x)) for x in line.split(","))
        elif code == 0:
            json.loads(text, parse_constant=_reject_constant)

    @pytest.mark.parametrize("out", ["-", "file"])
    def test_overflowing_threshold_is_infeasible(self, tmp_path, capsys, out):
        # 2a overflows to inf in theta1; nothing is written, not even a file
        path = "-" if out == "-" else str(tmp_path / "t.json")
        assert run_cli("thresholds", "--n", "5000", "--a", "1e308", "--b", "1", "--out", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible regime: ") and "inf" in captured.err
        assert not list(tmp_path.iterdir())
