"""Space-efficient two-phase clustering over an edge-probe oracle.

In the dense regime the graph has Theta(n^2) edges, so the algorithm asks
for adjacency one pair at a time through an oracle that counts distinct
probes.  Phase 1 samples h vertices, probes all pairs among them, runs
the triangle-count filter on the induced subgraph, and takes the two
largest surviving components as provisional clusters.  Phase 2 samples g
vertices from each provisional cluster and assigns every remaining vertex
by neighbor majority against the 2g samples, at 2g probes per vertex.
Total probes: h (h - 1) / 2 + (n - h) 2 g.  Ties in phase 2 go to
cluster 0.

The oracle counts distinct pairs from a record of what it probed, not
from an n x n bitmap: the phase-1 sample, the phase-2 blocks and any
single pairs as sorted index arrays, plus an n-byte mask of touched
vertices, so O(n + h) memory in `dense_recover`.  The phase-1 block is
held as packed bits, h rows of ceil(h / 64) words (the full rows of
`Graph.packed_rows`), about h^2 / 8 bytes.  It is answered one unordered
pair at a time and mirrored into those bits.  The filter streams over it
in row chunks and holds one partition of the sample: a chunk's pairs
above the diagonal that join two components are counted by
`recovery._window_counts`, the package's one counting kernel, and the
kept ones are merged.  No h x h boolean and no pair list exists;
every other temporary is chunk-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import squared_chord
from .graph import Graph
from .recovery import UNASSIGNED, _components, _keep, _label_two_largest, _window_counts
from .rng import substream
from .thresholds import DensePlan


#: the oracle answers its blocks in row chunks of about this many cells
_CHUNK_CELLS = 1 << 19


def _chunk_rows(width: int) -> int:
    """Rows per chunk of a block `width` cells wide."""
    return max(1, _CHUNK_CELLS // max(width, 1))


def _zero_block(h: int) -> tuple[np.ndarray, int]:
    """The zeroed (h, ceil(h / 64)) uint64 words of a size-h packed block,
    and the rows per answer chunk: about 2^19 cells, a multiple of 8 so
    that `_mirror_bits` writes whole bytes."""
    return np.zeros((h, -(-h // 64)), dtype=np.uint64), 8 * max(1, _chunk_rows(h) // 8)


def _mirror_bits(words: np.ndarray, i0: int, answers: np.ndarray) -> None:
    """Pack the answers of rows i0 to i0 + k against columns i0 on into the
    symmetric packed block `words`: at those rows and, transposed, at
    those columns, in np.packbits order.  i0 must be a multiple of 8, so
    both writes cover whole bytes; bits past the last column pack as 0."""
    out = words.view(np.uint8)
    b0 = i0 // 8
    rows = np.packbits(answers, axis=1)
    out[i0:i0 + len(rows), b0:b0 + rows.shape[1]] = rows
    cols = np.packbits(np.ascontiguousarray(answers.T), axis=1)
    out[i0:, b0:b0 + cols.shape[1]] = cols


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array; a sort, cheaper than numpy's hashed unique."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if len(a) else a


class EdgeOracle:
    """Counts distinct unordered pairs probed; subclasses answer adjacency.

    The probe record keeps what was probed, not an n x n bitmap: a list of
    blocks (rows, cols) of sorted vertex arrays, each covering the pairs
    with one end in rows and the other in cols (a `query_block` sample S
    is the block (S, S)); the sorted lo * n + hi keys of `query_pairs`
    probes; and an n-byte mask of the vertices any probe touched.  A new
    probe counts its pairs minus those already in the union of the record.
    Only a pair whose two ends were both touched before can be in it, so
    only those pairs are looked up.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self.queries = 0
        self._touched = np.zeros(self.n, dtype=bool)
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._keys = np.empty(0, dtype=np.int64)

    def _answer(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Adjacency of each pair (us, vs), for index arrays that broadcast together.

        Must be symmetric in (us, vs): `_block_answer` asks each unordered
        pair once and mirrors the answer.
        """
        raise NotImplementedError

    def _recorded(self, us: np.ndarray, vs: np.ndarray) -> int:
        """How many of the distinct pairs (us[i], vs[i]) the record already holds."""
        old = self._touched[us] & self._touched[vs]
        us, vs = us[old], vs[old]
        hit = np.isin(np.minimum(us, vs) * self.n + np.maximum(us, vs), self._keys)
        for rows, cols in self._blocks:
            hit |= np.isin(us, rows) & np.isin(vs, cols)
            hit |= np.isin(us, cols) & np.isin(vs, rows)
        return int(np.count_nonzero(hit))

    def _record_block(self, rows: np.ndarray, cols: np.ndarray) -> None:
        self._touched[rows] = True
        self._touched[cols] = True
        if self._blocks and np.array_equal(self._blocks[-1][1], cols):
            # blocks against the same cols (phase 2's chunks) merge into one
            self._blocks[-1] = (_distinct(np.concatenate([self._blocks[-1][0], rows])), cols)
        else:
            self._blocks.append((rows, cols))

    def query_pairs(self, us, vs) -> np.ndarray:
        """Vectorized probe; repeated pairs answer identically without recounting."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if np.any(us == vs):
            raise ValueError("self-pairs cannot be probed")
        # a pair may repeat within one call; count it once
        keys = _distinct(np.minimum(us, vs) * self.n + np.maximum(us, vs))
        self.queries += len(keys) - self._recorded(*np.divmod(keys, self.n))
        self._keys = _distinct(np.concatenate([self._keys, keys]))
        self._touched[us] = True
        self._touched[vs] = True
        return self._answer(us, vs)

    def query_cross(self, rows, cols) -> np.ndarray:
        """Probe every pair in rows x cols; returns the (len(rows), len(cols)) answers.

        `rows` and `cols` must each be duplicate-free and disjoint from one
        another, so the block's pairs are distinct.  The answers come in row
        chunks of about 2^19 cells, so `_answer`'s temporaries stay a few MB
        whatever the block's size.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        srows, scols = _distinct(rows), _distinct(cols)
        if len(srows) != len(rows) or len(scols) != len(cols):
            raise ValueError("rows and cols must not contain duplicates")
        if len(np.intersect1d(srows, scols, assume_unique=True)):
            raise ValueError("rows and cols must be disjoint")
        old_r = srows[self._touched[srows]]
        old_c = scols[self._touched[scols]]
        seen = self._recorded(np.repeat(old_r, len(old_c)), np.tile(old_c, len(old_r)))
        self.queries += len(rows) * len(cols) - seen
        self._record_block(srows, scols)
        out = np.empty((len(rows), len(cols)), dtype=bool)
        step = _chunk_rows(len(cols))
        for i0 in range(0, len(rows), step):
            out[i0:i0 + step] = self._answer(rows[i0:i0 + step, None], cols[None, :])
        return out

    def query_block_bits(self, sample) -> np.ndarray:
        """Probe all pairs among `sample` (duplicate-free); returns the induced adjacency as packed bits.

        Row i of the (h, ceil(h / 64)) uint64 result is sample[i]'s row:
        column j in bit 7 - j % 8 of byte j // 8 (np.packbits order), the
        full-row case of `Graph.packed_rows` (every window start 0).  The
        diagonal and the bits past column h - 1 are 0.
        """
        sample = np.asarray(sample, dtype=np.int64).ravel()
        ssample = _distinct(sample)
        if len(ssample) != len(sample):
            raise ValueError("sample must not contain duplicates")
        h = len(sample)
        old = ssample[self._touched[ssample]]
        iu, jv = np.triu_indices(len(old), 1)
        self.queries += h * (h - 1) // 2 - self._recorded(old[iu], old[jv])
        self._record_block(ssample, ssample)
        words = self._block_answer(sample)
        # column i of row i is bit 7 - i % 8 of byte i // 8
        i = np.arange(h)
        words.view(np.uint8)[i, i >> 3] &= ~(np.uint8(0x80) >> (i & 7).astype(np.uint8))
        return words

    def query_block(self, sample) -> np.ndarray:
        """Probe all pairs among `sample` (duplicate-free); returns the induced adjacency matrix."""
        words = self.query_block_bits(sample)
        return np.unpackbits(words.view(np.uint8), axis=1, count=len(words)).view(bool)

    def _block_answer(self, sample: np.ndarray) -> np.ndarray:
        """`_answer` on each unordered pair of the sample once, by row chunks of about 2^19 cells.

        Row chunk [i0, i0 + step) is answered against the columns from i0 on
        only, and packed into its rows and, transposed, into its columns of
        the `query_block_bits` words, so the block comes out symmetric at
        half the answers.
        """
        h = len(sample)
        words, step = _zero_block(h)
        for i0 in range(0, h, step):
            _mirror_bits(words, i0, self._answer(sample[i0:i0 + step, None], sample[i0:]))
        return words


class GraphEdgeOracle(EdgeOracle):
    """Oracle backed by a materialized graph; answers by bit tests in its `Graph.layout`."""

    def __init__(self, graph: Graph):
        super().__init__(graph.n)
        self.graph = graph

    def _answer(self, us, vs):
        return self.graph.has_edges(us, vs)


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
        """`_answer` on each unordered pair of the sample once, by row chunks.

        As in `EdgeOracle._block_answer`, row chunk [i0, i0 + step) meets
        only the columns from i0 on and is mirrored.  This is exact: each
        coordinate's (a - b)^2 equals (b - a)^2 bit for bit, and label
        equality is symmetric.  Each chunk's temporaries hold about 2^19
        floats, so the block costs its packed words plus a few MB.
        """
        xs = self._x[sample]
        labels = self._labels[sample]
        h = len(sample)
        idx = np.arange(h)
        words, step = _zero_block(h)
        for i0 in range(0, h, step):
            rows, cols = idx[i0:i0 + step, None], idx[i0:]
            d2 = squared_chord(xs, rows, cols)
            same = labels[rows] == labels[cols]
            _mirror_bits(words, i0, d2 <= np.where(same, self._thr2[0], self._thr2[1]))
        return words


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


def _subsample_counts(words: np.ndarray, e_s: float, e_d: Optional[float]) -> np.ndarray:
    """Component id per sample vertex (smallest member) over the induced edges the filter keeps.

    `words` is the packed block of `query_block_bits`, read in row chunks
    of about 2^20 cells with one partition `comp` carried across them.  A
    pair whose ends already share a component cannot change it, so each
    chunk counts only its other pairs above the diagonal (`_window_counts`
    on the full rows, every start 0), keeps them by `_keep` and merges the
    kept ones into `comp`.  By induction over the chunks, the result is
    `_components` of every kept induced edge, and no pair list is stored.
    ValueError when the upper triangle does not hold half the set bits or
    a column count differs from its row's: two symmetry checks that no
    block with a zero diagonal and zero bits past column h - 1 fails.
    """
    h = len(words)
    starts = np.zeros(h, dtype=np.int64)
    degrees = np.empty(h, dtype=np.int64)
    columns = np.zeros(h, dtype=np.int64)
    upper = 0
    comp = np.arange(h, dtype=np.int64)
    step = max(1, (1 << 20) // max(h, 1))
    for i0 in range(0, h, step):
        degrees[i0:i0 + step] = np.bitwise_count(words[i0:i0 + step]).sum(axis=1)
        bits = np.unpackbits(words[i0:i0 + step].view(np.uint8), axis=1, count=h)
        columns += np.add.reduce(bits, axis=0, dtype=np.int32)
        # row r of the chunk against the columns from i0 on; above the diagonal where c > r
        r, c = np.divmod(np.flatnonzero(bits[:, i0:].view(bool)), h - i0)
        above = c > r
        uu, vv = r[above] + i0, c[above] + i0
        upper += len(uu)
        apart = comp[uu] != comp[vv]
        uu, vv = uu[apart], vv[apart]
        keep = _keep(_window_counts(words, starts, uu, vv), e_s, e_d)
        if keep.any():
            # each id is its component's smallest member, so merging the ids of the
            # kept pairs' ends gives each old component the smallest id of its new one
            comp = _components(h, comp[uu[keep]], comp[vv[keep]])[1][comp]
    if 2 * upper != degrees.sum() or not np.array_equal(columns, degrees):
        raise ValueError("adjacency block is not symmetric with a zero diagonal")
    return comp


def dense_recover(oracle: EdgeOracle, n: int, t: int, r_s: float, r_d: float,
                  plan: DensePlan, seed: int) -> DenseResult:
    """Two-phase recovery through the oracle; deterministic given seed."""
    if oracle.n != n:
        raise ValueError("oracle size does not match n")
    rng = substream(seed, 0xDE45E)
    h, g = plan.h, plan.g

    sample = np.sort(rng.choice(n, size=h, replace=False))
    # phase 1 holds the packed block and one partition, never an h x h boolean or pair list
    local, _ = _label_two_largest(h, _subsample_counts(oracle.query_block_bits(sample),
                                                       plan.E_S, plan.E_D))
    c1_local = np.flatnonzero(local == 0)
    c2_local = np.flatnonzero(local == 1)
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
