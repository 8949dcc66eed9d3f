"""The four workloads: one operation each, and its check.

Each workload runs closed-loop in one process: the next operation starts
when the previous one, and its check, are done.  Operation `i` of a run
with workload seed `s` uses the seed `s * 100000 + i`; the program gets
only that seed and the fixed sizes below.  A run measures at least
`min_rounds` rounds and stops at the end of the first round after
`--seconds`.  Checks run outside the timed
operation and call nothing they check; they import `checks`, and with it
scipy's k-d tree, only after set-up, so that set-up time holds only what
a user of the program pays.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


class CircleCli:
    """`gen -> recover -> eval -> recover-loc` through `gbmlab.cli.run`, on files."""

    name = "circle-cli"
    ops_per_round = 1
    min_rounds = 1

    def __init__(self, workdir: str, n: int = 20000, a: float = 13.0, b: float = 1.0):
        self.workdir, self.n, self.a, self.b = workdir, n, a, b
        self.notes: list[str] = []

    def setup(self) -> None:
        from gbmlab import cli, graph
        self.cli, self.graph = cli, graph
        os.makedirs(self.workdir, exist_ok=True)
        p = os.path.join(self.workdir, "")
        self.files = {"graph": p + "g.graph.txt", "embeddings": p + "g.embeddings.txt",
                      "truth": p + "g.truth.txt", "recover": p + "recover.json",
                      "pred": p + "pred.txt", "eval": p + "eval.json", "loc": p + "loc.json"}

    def run(self, k: int, seed: int) -> dict:
        f, ab = self.files, ["--a", str(self.a), "--b", str(self.b)]
        self._cli(["gen", "--n", str(self.n), *ab, "--seed", str(seed),
                   "--out", os.path.join(self.workdir, "g")])
        self._cli(["recover", "--in", f["graph"], *ab, "--out", f["recover"]])
        # eval reads label files; recover prints its labels as JSON
        with open(f["recover"]) as fh:
            labels = np.asarray(json.load(fh)["labels"])
        self.graph.write_labels(f["pred"], labels)
        self._cli(["eval", "--pred", f["pred"], "--truth", f["truth"], "--out", f["eval"]])
        self._cli(["recover-loc", "--in", f["graph"], "--embeddings", f["embeddings"], *ab,
                   "--out", f["loc"]])
        return {"seed": seed}

    def _cli(self, argv: list[str]) -> None:
        code = self.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"gbm-lab {argv[0]} exited with {code}")

    def check(self, out: dict) -> list[str]:
        import checks
        from gbmlab.geometry import sample_circle
        from gbmlab.rng import substream
        pos = sample_circle(substream(out["seed"]), self.n)
        return checks.check_circle_cli(self.files, pos, self.a, self.b, self.notes)


class SphereApi:
    """`gen_gbm_t -> recover_gbm_hd -> pair_f_score` through the Python API."""

    name = "sphere-api"
    ops_per_round = 1
    min_rounds = 3

    def __init__(self, workdir: str, n: int = 10000, t: int = 2, a: float = 12.0, b: float = 3.0):
        self.n, self.t, self.a, self.b = n, t, a, b
        self.notes: list[str] = []

    def setup(self) -> None:
        from gbmlab import analysis, generators, recovery
        self.analysis, self.generators, self.recovery = analysis, generators, recovery
        self.r_s = generators.radius_from_scale(self.a, self.n, self.t)
        self.r_d = generators.radius_from_scale(self.b, self.n, self.t)

    def run(self, k: int, seed: int) -> dict:
        inst = self.generators.gen_gbm_t(self.n, self.t, self.r_s, self.r_d, seed)
        res = self.recovery.recover_gbm_hd(inst.graph, self.t, self.r_s, self.r_d)
        scores = self.analysis.pair_f_score(res.labels, inst.truth)
        return {"edges": inst.graph.edges, "x": inst.embeddings, "labels": res.labels,
                "scores": scores.to_dict(), "E_S": res.thresholds.E_S, "E_D": res.thresholds.E_D}

    def check(self, out: dict) -> list[str]:
        import checks
        return checks.check_sphere_api(out["edges"], out["x"], out["labels"], out["scores"],
                                       self.r_s, self.r_d, out["E_S"], out["E_D"], self.notes)


class DenseOracle:
    """One dense-regime trial: `sample_sphere -> GbmEdgeOracle -> dense_plan -> dense_recover`."""

    name = "dense-oracle"
    ops_per_round = 1
    min_rounds = 3

    def __init__(self, workdir: str, n: int = 10000, t: int = 2,
                 r_s: float = 0.6, r_d: float = 0.4):
        self.n, self.t, self.r_s, self.r_d = n, t, r_s, r_d
        self.notes: list[str] = []

    def setup(self) -> None:
        from gbmlab import dense, geometry, rng, thresholds
        self.dense, self.geometry, self.rng, self.thresholds = dense, geometry, rng, thresholds

    def run(self, k: int, seed: int) -> dict:
        n = self.n
        x = self.geometry.sample_sphere(self.rng.substream(seed), n, self.t)
        labels = np.zeros(n, np.int8)
        labels[n // 2:] = 1
        oracle = self.dense.GbmEdgeOracle(x, labels, self.r_s, self.r_d)
        plan = self.thresholds.dense_plan(n, self.t, self.r_s, self.r_d)
        res = self.dense.dense_recover(oracle, n, self.t, self.r_s, self.r_d, plan, seed)
        return {"seed": seed, "res": res, "oracle": oracle, "x": x}

    def check(self, out: dict) -> list[str]:
        import checks
        res = out["res"]
        return checks.check_dense(res.status, res.queries_used, self.n, res.plan.h, res.plan.g,
                                  res.labels, out["oracle"], out["x"], self.r_s, self.r_d,
                                  np.random.default_rng(out["seed"]))


class PhaseSweep:
    """One `phase_sweep` call per operation, cycling through criterion 4's points."""

    name = "phase-sweep"
    points = [(1.6, 1.0), (1.6, 1.3), (0.9, 0.0)]
    ops_per_round = len(points)
    #: at least 100 operations, so that ten samples lie beyond the 90th percentile
    min_rounds = math.ceil(100 / len(points))

    def __init__(self, workdir: str, n: int = 50000):
        self.n = n
        self.notes: list[str] = []

    def setup(self) -> None:
        from gbmlab import analysis
        self.analysis = analysis

    def run(self, k: int, seed: int) -> dict:
        a, b = self.points[k]
        (point,) = self.analysis.phase_sweep(self.n, [(a, b)], 1, seed, family="rag1", jobs=1)
        return {"seed": seed, "a": a, "b": b, "point": point}

    def check(self, out: dict) -> list[str]:
        import checks
        from gbmlab.geometry import sample_circle
        from gbmlab.rng import substream
        # phase_sweep draws trial (grid 0, trial 0) of seed s from substream(s, 0, 0)
        pos = sample_circle(substream(out["seed"], 0, 0), self.n)
        p = out["point"]
        return checks.check_phase(pos, out["a"], out["b"], p.connected_frac,
                                  p.isolated_frac, p.mean_components)


WORKLOADS = {w.name: w for w in (CircleCli, SphereApi, DenseOracle, PhaseSweep)}
