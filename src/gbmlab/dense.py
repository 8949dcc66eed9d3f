"""Space-efficient two-phase clustering over an edge-probe oracle.

In the dense regime the graph has Theta(n^2) edges, so the algorithm asks
for adjacency one pair at a time through an oracle that counts distinct
probes.  Phase 1 samples h vertices, probes all pairs among them, runs
the triangle-count filter on the induced subgraph, and takes the two
largest surviving components as provisional clusters.  Phase 2 samples g
vertices from each provisional cluster and assigns every remaining vertex
by neighbor majority against the 2g samples, at 2g probes per vertex.
Total probes: h (h - 1) / 2 + (n - h) 2 g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import squared_chord
from .graph import Graph
from .recovery import UNASSIGNED, _components, _sorted_pair_counts
from .rng import substream
from .thresholds import DensePlan


class EdgeOracle:
    """Counts distinct unordered pairs probed; subclasses answer adjacency."""

    def __init__(self, n: int):
        self.n = int(n)
        self._seen = np.zeros((n, n), dtype=bool)
        self.queries = 0

    def _answer(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def query_pairs(self, us, vs) -> np.ndarray:
        """Vectorized probe; repeated pairs answer identically without recounting."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if np.any(us == vs):
            raise ValueError("self-pairs cannot be probed")
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        fresh = ~self._seen[lo, hi]
        if np.any(fresh):
            # a pair may repeat within one call; count it once
            enc = lo[fresh] * self.n + hi[fresh]
            self.queries += int(len(np.unique(enc)))
            self._seen[lo[fresh], hi[fresh]] = True
        return self._answer(us, vs)

    def query_cross(self, rows, cols) -> np.ndarray:
        """Probe every pair in rows x cols; returns the (len(rows), len(cols)) answers.

        `rows` and `cols` must each be duplicate-free and disjoint from one
        another, so the block's pairs are distinct and need no dedupe:
        counting reduces to the block's unseen entries.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if len(np.unique(rows)) != len(rows) or len(np.unique(cols)) != len(cols):
            raise ValueError("rows and cols must not contain duplicates")
        if len(np.intersect1d(rows, cols, assume_unique=True)):
            raise ValueError("rows and cols must be disjoint")
        seen = self._seen[np.ix_(rows, cols)] | self._seen[np.ix_(cols, rows)].T
        self.queries += seen.size - int(np.count_nonzero(seen))
        self._seen[np.ix_(rows, cols)] = True
        self._seen[np.ix_(cols, rows)] = True
        answers = self._answer(np.repeat(rows, len(cols)), np.tile(cols, len(rows)))
        return answers.reshape(len(rows), len(cols))

    def query_block(self, sample: np.ndarray) -> np.ndarray:
        """Probe all pairs among `sample`; returns the induced adjacency matrix."""
        sample = np.asarray(sample, dtype=np.int64)
        h = len(sample)
        sub = self._seen[np.ix_(sample, sample)]
        seen_pairs = int(np.count_nonzero(np.triu(sub | sub.T, 1)))
        self.queries += h * (h - 1) // 2 - seen_pairs
        self._seen[np.ix_(sample, sample)] = True
        adj = self._block_answer(sample)
        np.fill_diagonal(adj, False)
        return adj

    def _block_answer(self, sample: np.ndarray) -> np.ndarray:
        iu, jv = np.meshgrid(sample, sample, indexing="ij")
        keep = iu != jv
        out = np.zeros((len(sample), len(sample)), dtype=bool)
        out[keep] = self._answer(iu[keep], jv[keep])
        return out


class GraphEdgeOracle(EdgeOracle):
    """Oracle backed by a materialized graph."""

    def __init__(self, graph: Graph):
        super().__init__(graph.n)
        self._adj = graph.adjacency_bool()
        self.graph = graph

    def _answer(self, us, vs):
        return self._adj[us, vs]

    def _block_answer(self, sample):
        return self._adj[np.ix_(sample, sample)]


class GbmEdgeOracle(EdgeOracle):
    """Oracle answering from latent positions and the block-model rule.

    Equivalent to a GraphEdgeOracle over the materialized instance, but
    without building Theta(n^2 B) edges up front.
    """

    def __init__(self, embeddings: np.ndarray, labels: np.ndarray,
                 r_s: float, r_d: float):
        embeddings = np.asarray(embeddings, dtype=float)
        if embeddings.ndim != 2:
            raise ValueError("sphere embeddings of shape (n, t+1) expected")
        super().__init__(len(embeddings))
        self._x = embeddings
        self._labels = np.asarray(labels)
        self._thr2 = (float(r_s) ** 2, float(r_d) ** 2)

    def _answer(self, us, vs):
        d2 = squared_chord(self._x, us, vs)
        same = self._labels[us] == self._labels[vs]
        return d2 <= np.where(same, self._thr2[0], self._thr2[1])

    def _block_answer(self, sample):
        """`_answer` on every ordered pair of the sample, by row chunks.

        Each chunk's temporaries hold about 2^19 floats, so the block costs
        its h x h boolean answer plus a few MB, not h x h floats.
        """
        xs = self._x[sample]
        labels = self._labels[sample]
        h = len(sample)
        idx = np.arange(h)
        out = np.empty((h, h), dtype=bool)
        step = max(1, (1 << 19) // max(h, 1))
        for i0 in range(0, h, step):
            rows = idx[i0:i0 + step, None]
            d2 = squared_chord(xs, rows, idx)
            same = labels[rows] == labels
            out[i0:i0 + step] = np.where(same, d2 <= self._thr2[0], d2 <= self._thr2[1])
        return out


def majority_assign(k1: int, k2: int) -> int:
    """Cluster choice by neighbor majority; ties resolve to cluster 0."""
    return 0 if k1 >= k2 else 1


def phase1_balance_check(h: int, c1: int, c2: int) -> bool:
    """Whether a size-h sample split (c1, c2) is within h/2 +- sqrt(6 h log h)."""
    if c1 + c2 != h:
        raise ValueError("c1 + c2 must equal h")
    dev = math.sqrt(6.0 * h * math.log(max(h, 2)))
    return abs(c1 - 0.5 * h) <= dev and abs(c2 - 0.5 * h) <= dev


@dataclass
class DenseResult:
    labels: np.ndarray
    queries_used: int
    phase1_sizes: tuple[int, int]
    plan: DensePlan
    status: str                 # "ok" or "phase1_degenerate"
    ties: int = 0
    balance_ok: Optional[bool] = None


def _subsample_counts(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Induced edges (u, v) and their common-neighbor counts within the sample."""
    h = adj.shape[0]
    bits = np.packbits(adj, axis=1)
    pad = (-bits.shape[1]) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros((h, pad), np.uint8)], axis=1)
    words = np.ascontiguousarray(bits).view(np.uint64)
    uu, vv = np.nonzero(np.triu(adj, 1))
    return uu, vv, _sorted_pair_counts(words, uu, vv)


def dense_recover(oracle: EdgeOracle, n: int, t: int, r_s: float, r_d: float,
                  plan: DensePlan, seed: int) -> DenseResult:
    """Two-phase recovery through the oracle; deterministic given seed."""
    if oracle.n != n:
        raise ValueError("oracle size does not match n")
    rng = substream(seed, 0xDE45E)
    h, g = plan.h, plan.g

    sample = np.sort(rng.choice(n, size=h, replace=False))
    adj = oracle.query_block(sample)
    uu, vv, counts = _subsample_counts(adj)
    kept = (counts >= plan.E_S) | (counts <= plan.E_D)

    _, comp = _components(h, uu[kept], vv[kept])
    ids, sizes = np.unique(comp, return_counts=True)
    order = np.lexsort((ids, -sizes))
    c1_local = np.nonzero(comp == ids[order[0]])[0] if len(ids) >= 1 else np.empty(0, np.int64)
    c2_local = np.nonzero(comp == ids[order[1]])[0] if len(ids) >= 2 else np.empty(0, np.int64)
    phase1_sizes = (int(len(c1_local)), int(len(c2_local)))
    balance_ok = phase1_balance_check(h, phase1_sizes[0], h - phase1_sizes[0]) if h else None

    labels = np.full(n, UNASSIGNED, dtype=np.int8)
    if min(phase1_sizes) < g:
        return DenseResult(labels=labels, queries_used=oracle.queries,
                           phase1_sizes=phase1_sizes, plan=plan,
                           status="phase1_degenerate", balance_ok=balance_ok)

    labels[sample[c1_local]] = 0
    labels[sample[c2_local]] = 1
    s1 = sample[rng.choice(c1_local, size=g, replace=False)]
    s2 = sample[rng.choice(c2_local, size=g, replace=False)]

    rest = np.setdiff1d(np.arange(n), sample, assume_unique=True)
    probes = np.concatenate([s1, s2])
    ties = 0
    block = 1024
    for i0 in range(0, len(rest), block):
        chunk = rest[i0:i0 + block]
        answers = oracle.query_cross(chunk, probes)
        k1 = answers[:, :g].sum(axis=1)
        k2 = answers[:, g:].sum(axis=1)
        labels[chunk] = np.where(k1 >= k2, 0, 1).astype(np.int8)
        ties += int((k1 == k2).sum())

    return DenseResult(labels=labels, queries_used=oracle.queries,
                       phase1_sizes=phase1_sizes, plan=plan,
                       status="ok", ties=ties, balance_ok=balance_ok)
