"""Spans around the calls into gbmlab's layers, recorded from outside the package.

`install` wraps the functions and oracle methods named in TARGETS and
rebinds each name in every gbmlab module that holds it, so calls made
through an imported name are seen too.  A wrapper records a span (label,
start, end, parent) only while an operation is open; otherwise it calls
straight through.  Spans of labels marked `peak` also take the largest
block of memory allocated inside them, with tracemalloc, on operations
opened with `peaks=True`.  A target that a later version of the package
renames or removes is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str
    name: str                      # attribute, or Class.method
    label: object                  # span label, or a function of the call's args
    peak: bool = False
    pre: Optional[Callable] = None         # args -> state taken before the call
    count: Optional[Callable] = None       # (args, result, state) -> {counter: amount}


def _cross_kept(args, result, state):
    # the recovering workloads all plant the halves: vertices below n/2 form cluster 0
    n, edges = args[0], args[1]
    edges = edges.reshape(-1, 2)
    half = n // 2
    return {"recovery.kept_edges": len(edges),
            "recovery.cross_edges_kept": int(((edges[:, 0] < half) != (edges[:, 1] < half)).sum())}


def _queries_before(args):
    return args[0].queries


def _file_bytes(args, result, state):
    return {"graph.file_bytes": os.path.getsize(args[0])}


def _query_block_counts(args, result, state):
    n = args[0].n
    return {"dense.phase1_queries": args[0].queries - state, "dense.all_pairs": n * (n - 1) // 2}


TARGETS = [
    Target("gbmlab.geometry", "sample_circle", "geometry.sample"),
    Target("gbmlab.geometry", "sample_sphere", "geometry.sample"),
    Target("gbmlab.generators", "_circle_band_pairs", "generators.band_pairs",
           count=lambda a, r, s: {"generators.band_pairs": len(r[0])}),
    Target("gbmlab.generators", "_sphere_pairs_within", "generators.sphere_scan", peak=True),
    Target("gbmlab.graph", "from_edges", "graph.from_edges",
           count=lambda a, r, s: {"graph.edges": r.m}),
    Target("gbmlab.graph", "Graph.adjacency_bool", "graph.adjacency", peak=True),
    Target("gbmlab.graph", "Graph.packed_rows", "graph.adjacency", peak=True),
    Target("gbmlab.graph", "write_graph", "graph.write", count=_file_bytes),
    Target("gbmlab.graph", "write_embeddings", "graph.write", count=_file_bytes),
    Target("gbmlab.graph", "write_labels", "graph.write", count=_file_bytes),
    Target("gbmlab.graph", "read_graph", "graph.read"),
    Target("gbmlab.graph", "read_embeddings", "graph.read"),
    Target("gbmlab.graph", "read_labels", "graph.read"),
    Target("gbmlab.thresholds", "thresholds_1d", "thresholds.solve"),
    Target("gbmlab.thresholds", "thresholds_hd", "thresholds.solve"),
    Target("gbmlab.thresholds", "dense_plan", "thresholds.solve"),
    Target("gbmlab.recovery", "bulk_common_neighbor_counts", "recovery.counts", peak=True,
           count=lambda a, r, s: {"recovery.count_pairs": len(a[1])}),
    Target("gbmlab.recovery", "connected_components", "recovery.components", count=_cross_kept),
    Target("gbmlab.recovery", "recover_gbm1", "recovery.recover"),
    Target("gbmlab.recovery", "recover_gbm_hd", "recovery.recover"),
    Target("gbmlab.recovery", "recover_with_locations", "recovery.loc",
           count=lambda a, r, s: {"recovery.loc_pairs": r.constrained_pairs}),
    Target("gbmlab.dense", "EdgeOracle.query_block", "dense.block_probe", peak=True,
           pre=_queries_before, count=_query_block_counts),
    Target("gbmlab.dense", "GbmEdgeOracle._block_answer", "dense.block_answer"),
    Target("gbmlab.dense", "EdgeOracle.query_cross", "dense.cross_probe", pre=_queries_before,
           count=lambda a, r, s: {"dense.phase2_queries": a[0].queries - s}),
    Target("gbmlab.dense", "GbmEdgeOracle._answer", "dense.cross_answer"),
    Target("gbmlab.dense", "_subsample_counts", "dense.subsample_counts"),
    Target("gbmlab.dense", "dense_recover", "dense.recover"),
    Target("gbmlab.analysis", "_components_from_edges", "analysis.components"),
    Target("gbmlab.analysis", "_phase_trial", "analysis.trial"),
    Target("gbmlab.analysis", "pair_f_score", "analysis.metrics"),
    Target("gbmlab.analysis", "node_error_rate", "analysis.metrics"),
    Target("gbmlab.cli", "run", lambda args: "cli." + str(args[0][0])),
]


class Recorder:
    """Spans and counters of the operation in progress."""

    def __init__(self):
        self.active = False
        self.peaks = False
        self.spans: list[list] = []        # [label, start_ns, end_ns, parent index]
        self.counters: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self._open: list[int] = []
        self._mem: list[list[int]] = []    # [current at entry, largest seen] per open peak span

    def begin(self, peaks: bool) -> None:
        self.spans, self.counters, self.peak_bytes = [], {}, {}
        self.peaks, self.active = peaks, True
        self.open("op")

    def end(self) -> "OpTrace":
        self.close(0)
        self.active = False
        return OpTrace(self.spans, self.counters, self.peak_bytes)

    def open(self, label: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([label, time.perf_counter_ns(), None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._mem:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def mem_exit(self, label: str) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        base, seen = self._mem.pop()
        for entry in self._mem:
            entry[1] = max(entry[1], peak)
        self.peak_bytes[label] = max(self.peak_bytes.get(label, 0), max(seen, peak) - base)
        if not self._mem:
            tracemalloc.stop()

    def add(self, counts: dict) -> None:
        for k, v in counts.items():
            self.counters[k] = self.counters.get(k, 0) + v


def _wrap(rec: Recorder, fn, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        label = target.label(args) if callable(target.label) else target.label
        state = target.pre(args) if target.pre else None
        measure = target.peak and rec.peaks
        if measure:
            rec.mem_enter()
        idx = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if measure:
                rec.mem_exit(label)
        if target.count:
            rec.add(target.count(args, result, state))
        return result
    return wrapper


def install(rec: Recorder, targets=TARGETS) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target; returns (undo, names of absent targets)."""
    undo, absent = [], []
    # import every module first, so that names imported between modules are all bound
    modules = {}
    for t in targets:
        try:
            modules[t.module] = importlib.import_module(t.module)
        except ImportError:
            pass
    for t in targets:
        owner = modules.get(t.module)
        *path, attr = t.name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            absent.append(f"{t.module}.{t.name}")
            continue
        orig = vars(owner)[attr]
        wrapper = _wrap(rec, orig, t)
        holders = [owner] if isinstance(owner, type) else [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "gbmlab" or name.startswith("gbmlab."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, orig))

    def restore():
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)
    return restore, absent


@dataclass
class OpTrace:
    spans: list
    counters: dict
    peak_bytes: dict

    def totals(self) -> tuple[dict, dict]:
        """Per label: time of its outermost spans, and self time of all its spans (s)."""
        child = [0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_ = {}, {}
        for i, (label, start, end, parent) in enumerate(self.spans):
            self_[label] = self_.get(label, 0) + (end - start - child[i]) / 1e9
            p = parent
            while p >= 0 and self.spans[p][0] != label:
                p = self.spans[p][3]
            if p < 0:
                total[label] = total.get(label, 0) + (end - start) / 1e9
        return total, self_


def _per_op(tr: OpTrace) -> dict:
    total, self_ = tr.totals()
    c = tr.counters
    out = {name: total.get(label, 0.0) for name, label in SPAN_TOTALS.items()}
    out.update({name: self_.get(label, 0.0) for name, label in SPAN_SELF.items()})
    out.update({name: float(c.get(name, 0)) for name in COUNTERS})
    out["dense.bookkeeping_s"] = (self_.get("dense.block_probe", 0.0)
                                  + self_.get("dense.cross_probe", 0.0))
    out["dense.oracle_queries"] = float(c.get("dense.phase1_queries", 0)
                                        + c.get("dense.phase2_queries", 0))
    out["dense.fraction_of_pairs"] = (out["dense.oracle_queries"] / c["dense.all_pairs"]
                                      if c.get("dense.all_pairs") else 0.0)
    out["cli.self_s"] = sum((v for k, v in self_.items() if k.startswith("cli.")), 0.0)
    out["trace.op_s"] = total["op"]
    out["trace.uncovered_share"] = self_["op"] / total["op"]
    return out


#: per-layer metric -> label whose outermost spans are summed per operation
SPAN_TOTALS = {
    "geometry.sample_s": "geometry.sample",
    "generators.band_pairs_s": "generators.band_pairs",
    "generators.sphere_scan_s": "generators.sphere_scan",
    "graph.from_edges_s": "graph.from_edges",
    "graph.adjacency_s": "graph.adjacency",
    "graph.write_s": "graph.write",
    "graph.read_s": "graph.read",
    "thresholds.solve_s": "thresholds.solve",
    "recovery.counts_s": "recovery.counts",
    "recovery.components_s": "recovery.components",
    "recovery.loc_s": "recovery.loc",
    "dense.block_probe_s": "dense.block_probe",
    "dense.block_answer_s": "dense.block_answer",
    "dense.cross_probe_s": "dense.cross_probe",
    "dense.cross_answer_s": "dense.cross_answer",
    "dense.subsample_counts_s": "dense.subsample_counts",
    "analysis.components_s": "analysis.components",
    "analysis.metrics_s": "analysis.metrics",
    "cli.gen_s": "cli.gen",
    "cli.recover_s": "cli.recover",
    "cli.eval_s": "cli.eval",
    "cli.recover_loc_s": "cli.recover-loc",
}
#: per-layer metric -> label whose self time is summed per operation
SPAN_SELF = {
    "recovery.recover_self_s": "recovery.recover",
    "dense.recover_self_s": "dense.recover",
    "analysis.trial_self_s": "analysis.trial",
}
COUNTERS = ["generators.band_pairs", "graph.edges", "graph.file_bytes",
            "recovery.count_pairs", "recovery.kept_edges", "recovery.cross_edges_kept",
            "recovery.loc_pairs", "dense.phase1_queries", "dense.phase2_queries"]
#: per-layer metric -> peak-measured label
PEAKS = {
    "generators.sphere_scan_peak_mb": "generators.sphere_scan",
    "graph.adjacency_peak_mb": "graph.adjacency",
    "recovery.counts_peak_mb": "recovery.counts",
    "dense.block_probe_peak_mb": "dense.block_probe",
}


def per_layer(span_ops: list[OpTrace], peak_ops: list[OpTrace], plain_times: list[float],
              absent: list[str]) -> dict:
    """Medians over operations of every per-layer metric, as {name: value}."""
    rows = [_per_op(tr) for tr in span_ops]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0] if k != "trace.op_s"}
    traced = statistics.median(r["trace.op_s"] for r in rows)
    out["trace.op_p50_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(plain_times)
    for name, label in PEAKS.items():
        out[name] = statistics.median(tr.peak_bytes.get(label, 0) for tr in peak_ops) / 2 ** 20
    out["trace.absent_targets"] = float(len(absent))
    return out
