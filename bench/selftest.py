"""Each check accepts a correct output and rejects a corrupted one.

    python3 -m pytest bench/selftest.py -q

The correct outputs come from the program at small sizes; each corrupted
one differs from it in one place: one edge dropped or added, one label
flipped, one extra query, one flag or count changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import CircleCli, PhaseSweep, SphereApi  # noqa: E402


# ---------------------------------------------------------------------------
# circle-cli
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle(tmp_path_factory):
    wl = CircleCli(str(tmp_path_factory.mktemp("circle")), n=5000)
    wl.setup()
    out = wl.run(0, 3)
    assert wl.check(out) == []
    return wl, out


def _corrupt_and_check(circle, key, edit):
    wl, out = circle
    path = Path(wl.files[key])
    original = path.read_bytes()
    try:
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        return wl.check(out)
    finally:
        path.write_bytes(original)


def _drop_edge(lines):
    n, m, t = lines[0].split()
    return [f"{n} {int(m) - 1} {t}\n"] + lines[1:5] + lines[6:]


def _extra_edge(lines):
    # vertex 0 and the vertex farthest from it on the circle
    from gbmlab.geometry import sample_circle
    from gbmlab.rng import substream
    n, m, t = lines[0].split()
    pos = sample_circle(substream(3), int(n))
    far = int(np.argmax(checks.circle_dist(pos, np.zeros(int(n), int), np.arange(int(n)))))
    return [f"{n} {int(m) + 1} {t}\n"] + lines[1:] + [f"0 {far}\n"]


def test_circle_graph_edge_dropped(circle):
    problems = _corrupt_and_check(circle, "graph", _drop_edge)
    assert any("reference edges missing" in p for p in problems)


def test_circle_graph_edge_added(circle):
    assert any("1 extra" in p for p in _corrupt_and_check(circle, "graph", _extra_edge))


def _flip_json_label(lines):
    doc = json.loads("".join(lines))
    doc["labels"][7] = 1 - doc["labels"][7]
    return [json.dumps(doc)]


def test_circle_recover_label_flipped(circle):
    problems = _corrupt_and_check(circle, "recover", _flip_json_label)
    assert any("recover labels" in p for p in problems)


def test_circle_eval_score_changed(circle):
    def edit(lines):
        doc = json.loads("".join(lines))
        doc["metrics"]["recall"] -= 1e-6
        return [json.dumps(doc)]
    assert any("eval: recall" in p for p in _corrupt_and_check(circle, "eval", edit))


def test_circle_eval_disagrees_with_flipped_pred(circle):
    def edit(lines):
        lines = list(lines)
        lines[3] = f"{1 - int(lines[3])}\n"
        return lines
    problems = _corrupt_and_check(circle, "pred", edit)
    assert any(p.startswith("eval:") for p in problems)


def test_circle_loc_label_flipped(circle):
    def edit(lines):
        doc = json.loads("".join(lines))
        i = next(i for i, x in enumerate(doc["labels"]) if x != -1)
        doc["labels"][i] = 1 - doc["labels"][i]
        return [json.dumps(doc)]
    assert any("recover-loc labels" in p for p in _corrupt_and_check(circle, "loc", edit))


def test_circle_loc_extra_unassigned(circle):
    def edit(lines):
        doc = json.loads("".join(lines))
        i = next(i for i, x in enumerate(doc["labels"]) if x != -1)
        doc["labels"][i] = -1
        return [json.dumps(doc)]
    assert any("largest component" in p for p in _corrupt_and_check(circle, "loc", edit))


def test_circle_loc_status(circle):
    def edit(lines):
        doc = json.loads("".join(lines))
        doc["status"] = "conflict"
        return [json.dumps(doc)]
    assert any("status" in p for p in _corrupt_and_check(circle, "loc", edit))


# ---------------------------------------------------------------------------
# sphere-api
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sphere():
    wl = SphereApi("", n=2000, a=12.0, b=3.0)
    wl.setup()
    out = wl.run(0, 4)
    # recovery need not be exact at this size: the label check is fed the truth
    out["labels"] = checks.planted_truth(wl.n)
    out["scores"] = checks.pair_scores(out["labels"], checks.planted_truth(wl.n))
    assert wl.check(out) == []
    return wl, out


def test_sphere_edge_dropped(sphere):
    wl, out = sphere
    assert any("missing" in p for p in wl.check({**out, "edges": out["edges"][1:]}))


def test_sphere_edge_added(sphere):
    wl, out = sphere
    x = out["x"]
    far = int(np.argmin(x @ x[0]))       # the point farthest from vertex 0
    edges = np.vstack([out["edges"], [[0, far]]])
    assert any("1 extra" in p for p in wl.check({**out, "edges": edges}))


def test_sphere_edge_duplicated(sphere):
    wl, out = sphere
    edges = np.vstack([out["edges"], out["edges"][:1]])
    assert any("duplicate" in p for p in wl.check({**out, "edges": edges}))


def test_sphere_label_flipped(sphere):
    wl, out = sphere
    labels = out["labels"].copy()
    labels[5] = 1 - labels[5]
    assert wl.check({**out, "labels": labels})


def test_sphere_filter_miss_accepted_only_as_defined(sphere):
    # a filter that keeps every edge leaves one component: labels all 0
    wl, out = sphere
    truth = checks.planted_truth(wl.n)
    notes = []
    merged = np.zeros(wl.n, np.int64)
    assert checks.recovery_labels(merged, truth, out["edges"], lambda c: c >= 0, "x", notes) == []
    assert len(notes) == 1
    merged[9] = 1
    assert checks.recovery_labels(merged, truth, out["edges"], lambda c: c >= 0, "x", []) != []


def test_sphere_scores_changed(sphere):
    wl, out = sphere
    assert wl.check({**out, "scores": {**out["scores"], "f_score": 0.5}})


# ---------------------------------------------------------------------------
# dense-oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dense_case():
    from gbmlab import dense
    from gbmlab.geometry import sample_sphere
    from gbmlab.rng import substream
    n, h, g = 2000, 800, 100
    x = sample_sphere(substream(5), n, 2)
    truth = checks.planted_truth(n)
    base = dict(status="ok", queries_used=h * (h - 1) // 2 + (n - h) * 2 * g, n=n, h=h, g=g,
                labels=truth, x=x, r_s=0.6, r_d=0.4)

    def run(oracle=None, **changes):
        kw = {**base, **changes}
        if oracle is None:
            oracle = dense.GbmEdgeOracle(x, truth, 0.6, 0.4)
        return checks.check_dense(oracle=oracle, rng=np.random.default_rng(0), **kw)

    assert run() == []
    return run, dense, x, truth, base


def test_dense_status(dense_case):
    run, *_ = dense_case
    assert any("status" in p for p in run(status="phase1_degenerate"))


def test_dense_extra_query(dense_case):
    run, *_, base = dense_case
    assert any("queries_used" in p for p in run(queries_used=base["queries_used"] + 1))


def test_dense_node_error(dense_case):
    run, _, _, truth, _ = dense_case
    labels = truth.copy()
    labels[:120] = 1 - labels[:120]          # 6% of 2000
    assert any("node error" in p for p in run(labels=labels))
    labels = truth.copy()
    labels[:90] = 1 - labels[:90]            # 4.5% stays within 5%
    assert run(labels=labels) == []


def test_dense_wrong_oracle(dense_case):
    run, dense, x, truth, _ = dense_case
    wrong = dense.GbmEdgeOracle(x, truth, 0.6, 0.45)
    assert any("oracle" in p for p in run(oracle=wrong))


# ---------------------------------------------------------------------------
# phase-sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def phase():
    wl = PhaseSweep("", n=5000)
    wl.setup()
    outs = [wl.run(k, 10 + k) for k in range(wl.ops_per_round)]
    for out in outs:
        assert wl.check(out) == []
    return wl, outs


@pytest.mark.parametrize("field", ["connected_frac", "isolated_frac", "mean_components"])
def test_phase_field_changed(phase, field):
    from dataclasses import replace
    wl, outs = phase
    for out in outs:
        point = out["point"]
        value = getattr(point, field)
        changed = value + 1.0 if field == "mean_components" else 1.0 - value
        assert wl.check({**out, "point": replace(point, **{field: changed})})


def test_phase_spacing_rule():
    # four points on the circle, one gap of 0.4 and three of 0.2: r = 0.3 connects them
    pos = np.array([0.0, 0.2, 0.4, 0.6])
    n = len(pos)
    a = 0.3 * n / np.log(n)
    assert checks.check_phase(pos, a, 0.0, 1.0, 0.0, 1.0) == []
    problems = checks.check_phase(pos, a, 0.0, 0.0, 0.0, 1.0)
    assert any("spacings" in p for p in problems)


# ---------------------------------------------------------------------------
# metrics and spans
# ---------------------------------------------------------------------------

def test_pair_scores_known_values():
    # pred clusters {0,1,2}, {3,4}, vertex 5 unassigned; truth {0,1,3}, {2,4,5}
    s = checks.pair_scores([0, 0, 0, 1, 1, -1], [0, 0, 1, 0, 1, 1])
    assert s["precision"] == pytest.approx(1 / 4)
    assert s["recall"] == pytest.approx(1 / 6)
    assert s["node_error_rate"] == pytest.approx(3 / 6)


def test_benchmark_names_match_the_trace():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rec = spans.Recorder()
    rec.begin(peaks=False)
    rec.open("x")
    rec.close(1)
    row = spans.per_layer([rec.end()], [spans.OpTrace([], {}, {})], [1.0], [])
    assert set(row) == {m["name"] for m in spec["per_layer"]}


def test_spans_self_time_and_absent_targets():
    rec = spans.Recorder()
    undo, absent = spans.install(rec, spans.TARGETS + [
        spans.Target("gbmlab.recovery", "no_such_function", "x"),
        spans.Target("gbmlab.no_such_module", "f", "x")])
    try:
        assert absent == ["gbmlab.recovery.no_such_function", "gbmlab.no_such_module.f"]
        from gbmlab import generators, recovery
        rec.begin(peaks=True)
        inst = generators.gen_gbm1(2000, generators.radius_from_scale(13.0, 2000),
                                   generators.radius_from_scale(1.0, 2000), 1)
        recovery.recover_gbm1(inst.graph, 13.0, 1.0)
        tr = rec.end()
    finally:
        undo()
    total, self_ = tr.totals()
    assert total["recovery.recover"] >= total["recovery.counts"] + total["recovery.components"]
    assert self_["op"] == pytest.approx(total["op"] - sum(
        total[k] for k in ("geometry.sample", "generators.band_pairs", "graph.from_edges",
                           "recovery.recover")), abs=1e-3)
    assert tr.counters["graph.edges"] == inst.graph.m
    assert tr.peak_bytes["graph.adjacency"] >= 2000 * 2000
    assert recovery.connected_components.__name__ == "connected_components"
    assert not hasattr(recovery.connected_components, "__wrapped__")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
