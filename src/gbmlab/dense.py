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
from an n x n bitmap: one block of index arrays per probe call, stored
once each (phase 2's blocks share one array of probes), plus an n-byte
mask of touched vertices.  Only pairs with two touched ends are looked
up, so phase 2, whose rows are fresh, never reads it.  The phase-1
block is held as packed bits, h rows of ceil(h / 64) words (the full
rows of `Graph.packed_rows`), about h^2 / 8 bytes.  Both oracles fill
it by one method, `EdgeOracle._block_answer`, answering each unordered
pair once and mirroring it into those bits; the sphere oracle decides
by `generators._gbm_edges` on column-major points read in place.
The filter streams over the block in row chunks and holds one partition
of the sample: a chunk's pairs above the diagonal that join two
components are counted by `recovery._window_counts`, the package's one
counting kernel, and the kept ones are merged.  No h x h boolean and no
pair list exists; every other temporary is chunk-sized.

Both phases run on up to THREADS threads (the usable cores), through one
helper, `_map_chunks`, which deals row chunks round-robin to them on a
pool made for the call, so no thread outlives it; `analysis.phase_sweep`
runs its trials on the same helper.  The filter counts a round of
THREADS chunks against one snapshot of the partition and merges their
kept pairs at once, which leaves the partition exact.  Phase 2's cross
blocks are answered in row chunks that write disjoint rows of the
answer, while the probe record is kept on the caller's thread.  Chunks
hold 1 / THREADS of the serial chunk's cells, so the chunks in flight
hold what one serial chunk does.  Every chunk answers through its
oracle's `_rule`, a function that is safe to run on several threads at
once and that no `bench/spans.py` target wraps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .generators import _check_chord_radii, _gbm_edges
from .geometry import squared_chord
from .graph import Graph
from .recovery import UNASSIGNED, _components, _keep, _label_two_largest, _pair_rows, _window_counts
from .rng import substream
from .thresholds import DensePlan


#: the oracle answers its blocks in row chunks of about this many cells
_CHUNK_CELLS = 1 << 19
#: phase 1 unpacks and counts its block in row chunks of about this many cells
_COUNT_CELLS = 1 << 20


def usable_cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0))


#: threads of `_map_chunks`, at most; tests set it to compare thread counts
THREADS = usable_cores()


def _map_chunks(fn, chunks: list, threads: Optional[int] = None) -> list:
    """[fn(i0, i1) for (i0, i1) in chunks] on min(threads, len(chunks)) threads, THREADS unless given.

    Chunk k goes to thread k % threads (round-robin), so chunks that shrink
    from first to last still split evenly.  The caller's thread runs share
    0 and a pool of threads - 1 workers, made for this call, runs the
    rest; the call returns or raises only once every worker has finished,
    so no thread outlives it.  One more arena of freed memory per worker
    is what the threads cost in resident memory.  With one thread no pool
    is made and the chunks run in order.
    `fn` must be safe to run on several chunks at once, must not call
    `_map_chunks`, and must call no function that `bench/spans.py` wraps,
    since its recorder keeps one stack of open spans.  So the oracle's
    chunks call its `_rule`, never `_answer`, and a traced phase sweep
    (`_phase_trial` is a span target) must run at jobs = 1.
    """
    threads = min(THREADS if threads is None else threads, len(chunks))
    if threads < 2:
        return [fn(*c) for c in chunks]
    from concurrent.futures.thread import ThreadPoolExecutor

    def run(share):
        return [fn(*c) for c in share]

    out = [None] * len(chunks)
    with ThreadPoolExecutor(threads - 1, thread_name_prefix="gbmlab") as pool:
        shares = [pool.submit(run, chunks[k::threads]) for k in range(1, threads)]
        out[0::threads] = run(chunks[0::threads])
    for k, share in enumerate(shares, 1):
        out[k::threads] = share.result()
    return out


def _chunk_rows(width: int, cells: int) -> int:
    """Rows per chunk of a block `width` cells wide."""
    return max(1, cells // max(width, 1))


def _chunks(rows: int, step: int) -> list:
    """The chunks (i0, i1) of `rows` rows, `step` rows each but the last."""
    return [(i0, min(i0 + step, rows)) for i0 in range(0, rows, step)]


# Chunks of one block may call `_mirror_bits` at once: their writes touch
# disjoint bytes.  Chunk [i0, i1) writes its rows i0 to i1 - 1 (from byte
# column i0 / 8 on) and byte columns i0 / 8 to i1 / 8 - 1 (from row i0
# down).  Every other chunk holds other rows, and the byte columns of a
# chunk above it lie left of i0 / 8, those of a chunk below it right of
# i1 / 8 - 1.
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
    blocks (rows, cols) of vertex arrays, one per `query_cross` or
    `query_block` call (a sample S is the block (S, S)), each covering the
    pairs with one end in rows and the other in cols; the sorted lo * n + hi
    keys of `query_pairs` probes; and an n-byte mask of the vertices any
    probe touched.  A block holds the call's own copies in the caller's
    order, but cols equal to the last block's share its array, so phase
    2's record is O(n + h).  A new probe counts its pairs minus those
    already in the union of the record.  Only a pair whose two ends were
    both touched before can be in it, so only those pairs are looked up.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self.queries = 0
        self._touched = np.zeros(self.n, dtype=bool)
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._keys = np.empty(0, dtype=np.int64)

    def _rule(self):
        """The adjacency rule: a function of vertex-id arrays (us, vs) that broadcast
        together, answering whether each pair (us, vs) is an edge.

        Must be symmetric in (us, vs), since `_block_answer` asks each
        unordered pair once and mirrors the answer.  It must also be safe to
        run on several threads at once and wrap no `bench/spans.py` target:
        `_block_answer` and `query_cross` call it from `_map_chunks`.
        """
        raise NotImplementedError

    def _answer(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """`query_pairs`' answers: `_rule` on the pairs (us, vs), on the caller's thread."""
        return self._rule()(us, vs)

    def _vertices(self, a) -> np.ndarray:
        """A flat int64 copy of the vertex ids `a`; ValueError unless each lies in [0, n)."""
        a = np.array(a, dtype=np.int64).ravel()
        if len(a) and (a.min() < 0 or a.max() >= self.n):
            raise ValueError("vertex id out of range")
        return a

    def _recorded(self, us: np.ndarray, vs: np.ndarray) -> int:
        """How many of the distinct pairs (us[i], vs[i]) the record holds; 0 unless one has two touched ends."""
        old = self._touched[us] & self._touched[vs]
        if not old.any():
            return 0
        us, vs = us[old], vs[old]
        hit = np.isin(np.minimum(us, vs) * self.n + np.maximum(us, vs), self._keys)
        for rows, cols in self._blocks:
            hit |= np.isin(us, rows) & np.isin(vs, cols)
            hit |= np.isin(us, cols) & np.isin(vs, rows)
        return int(np.count_nonzero(hit))

    def _record_block(self, rows: np.ndarray, cols: np.ndarray) -> None:
        self._touched[rows] = True
        self._touched[cols] = True
        self._blocks.append((rows, cols))

    def query_pairs(self, us, vs) -> np.ndarray:
        """Vectorized probe; repeated pairs answer identically without recounting."""
        us, vs = self._vertices(us), self._vertices(vs)
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
        another, so the block's pairs are distinct; one sort of the two
        together checks both.  The probe record is kept on the caller's
        thread; the answers come from `_rule` in row chunks of about
        2^19 / THREADS cells on `_map_chunks`, each writing its own rows of
        the result, so the rule's temporaries stay a few MB whatever the
        block's size.
        """
        rows, cols = self._vertices(rows), self._vertices(cols)
        if len(_distinct(np.concatenate([rows, cols]))) != len(rows) + len(cols):
            raise ValueError("rows and cols must be duplicate-free and disjoint")
        old_r = rows[self._touched[rows]]
        old_c = cols[self._touched[cols]]
        seen = self._recorded(np.repeat(old_r, len(old_c)), np.tile(old_c, len(old_r)))
        self.queries += len(rows) * len(cols) - seen
        if self._blocks and np.array_equal(self._blocks[-1][1], cols):
            cols = self._blocks[-1][1]
        self._record_block(rows, cols)
        out = np.empty((len(rows), len(cols)), dtype=bool)
        rule = self._rule()

        def fill(i0, i1):
            out[i0:i1] = rule(rows[i0:i1, None], cols[None, :])
        _map_chunks(fill, _chunks(len(rows), _chunk_rows(len(cols), _CHUNK_CELLS // THREADS)))
        return out

    def query_block_bits(self, sample) -> np.ndarray:
        """Probe all pairs among `sample` (duplicate-free); returns the induced adjacency as packed bits.

        Row i of the (h, ceil(h / 64)) uint64 result is sample[i]'s row:
        column j in bit 7 - j % 8 of byte j // 8 (np.packbits order), the
        full-row case of `Graph.packed_rows` (every window start 0).  The
        diagonal and the bits past column h - 1 are 0.
        """
        sample = self._vertices(sample)
        if len(_distinct(sample)) != len(sample):
            raise ValueError("sample must not contain duplicates")
        h = len(sample)
        old = sample[self._touched[sample]]
        iu, jv = np.triu_indices(len(old), 1)
        self.queries += h * (h - 1) // 2 - self._recorded(old[iu], old[jv])
        self._record_block(sample, sample)
        return self._block_answer(sample)

    def query_block(self, sample) -> np.ndarray:
        """Probe all pairs among `sample` (duplicate-free); returns the induced adjacency matrix."""
        words = self.query_block_bits(sample)
        return np.unpackbits(words.view(np.uint8), axis=1, count=len(words)).view(bool)

    def _block_answer(self, sample: np.ndarray) -> np.ndarray:
        """`query_block_bits`' words: `_rule()` once per unordered pair of the sample, on `_map_chunks`.

        Row chunk [i0, i1), a multiple of 8 rows and about 2^19 / THREADS
        cells, asks for sample[i0:i1] against sample[i0:], clears its
        diagonal and hands the answers to `_mirror_bits`."""
        h = len(sample)
        words = np.zeros((h, -(-h // 64)), dtype=np.uint64)
        rule = self._rule()

        def answer(i0, i1):
            answers = rule(sample[i0:i1, None], sample[i0:])
            np.fill_diagonal(answers, False)
            _mirror_bits(words, i0, answers)
        _map_chunks(answer, _chunks(h, 8 * max(1, _chunk_rows(h, _CHUNK_CELLS // THREADS) // 8)))
        return words


class GraphEdgeOracle(EdgeOracle):
    """Oracle backed by a materialized graph; answers by bit tests in its `Graph.layout`."""

    def __init__(self, graph: Graph):
        super().__init__(graph.n)
        self.graph = graph
        # the windows are built here, on the caller's thread, not by a block answer's thread
        graph.layout

    def _rule(self):
        """`Graph.has_edges`, which only reads the layout built by the constructor."""
        return self.graph.has_edges


class GbmEdgeOracle(EdgeOracle):
    """Oracle answering from latent positions and the block-model rule, `generators._gbm_edges`.

    Equivalent to a GraphEdgeOracle over the materialized instance, but
    without building Theta(n^2 B) edges up front.  ValueError unless there
    is one label per point and 0 <= r_d <= r_s <= 2, as `gen_gbm_t` checks.
    """

    def __init__(self, embeddings: np.ndarray, labels: np.ndarray,
                 r_s: float, r_d: float):
        embeddings = np.asarray(embeddings, dtype=float)
        if embeddings.ndim != 2:
            raise ValueError("sphere embeddings of shape (n, t+1) expected")
        labels = np.asarray(labels)
        if labels.shape != (len(embeddings),):
            raise ValueError(f"labels of shape ({len(embeddings)},) expected, got {labels.shape}")
        _check_chord_radii(r_s, r_d)
        super().__init__(len(embeddings))
        self._x = np.asfortranarray(embeddings)
        self._labels = labels
        self._t_s, self._t_d = float(r_s) * float(r_s), float(r_d) * float(r_d)

    def _rule(self):
        """`_gbm_edges` on `squared_chord` of the column-major points, radii squared as `gen_gbm_t` does."""
        x, labels, t_s, t_d = self._x, self._labels, self._t_s, self._t_d
        return lambda us, vs: _gbm_edges(squared_chord(x, us, vs), labels[us] == labels[vs], t_s, t_d)

    # named on this class, where `bench/spans.py` wraps them
    _answer = EdgeOracle._answer
    _block_answer = EdgeOracle._block_answer


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


def _count_chunk(words: np.ndarray, comp: np.ndarray, e_s: float, e_d: Optional[float],
                 i0: int, i1: int) -> tuple:
    """Phase 1 on rows i0 to i1 - 1 of the packed block against the partition `comp`.

    Returns the rows' degrees, the chunk's set bits per column, its pairs
    above the diagonal, and the ends (uu, vv) of those pairs that join two
    components of `comp` and that `_keep` keeps.
    """
    h = len(words)
    degrees = np.bitwise_count(words[i0:i1]).sum(axis=1)
    bits = np.unpackbits(words[i0:i1].view(np.uint8), axis=1, count=h)
    columns = np.add.reduce(bits, axis=0, dtype=np.int32)
    # row r of the chunk against the columns from i0 on; above the diagonal where c > r
    r, c = np.divmod(np.flatnonzero(bits[:, i0:].view(bool)), h - i0)
    del bits
    above = c > r
    uu, vv = r[above] + i0, c[above] + i0
    upper = len(uu)
    apart = comp[uu] != comp[vv]
    uu, vv = uu[apart], vv[apart]
    keep = _keep(_window_counts(words, np.zeros(h, dtype=np.int64), uu, vv), e_s, e_d)
    return degrees, columns, upper, uu[keep], vv[keep]


def _subsample_counts(words: np.ndarray, e_s: float, e_d: Optional[float]) -> np.ndarray:
    """Component id per sample vertex (smallest member) over the induced edges the filter keeps.

    `words` is the packed block of `query_block_bits`, read in row chunks
    of about 2^20 / THREADS cells (`_COUNT_CELLS`) with one partition
    `comp` carried across them.  A pair whose ends already share a
    component cannot change it, so each chunk counts only its other pairs
    above the diagonal (`_window_counts` on the full rows, every start 0)
    and keeps them by `_keep` (`_count_chunk`).  The chunks go in rounds
    of THREADS, run by `_map_chunks` against one snapshot of `comp`, and
    the kept pairs of a round are merged into `comp` at once.  A pair counted after its ends
    were joined in the same round changes nothing, so by induction over
    the rounds the result is `_components` of every kept induced edge,
    whatever the thread count; only the number of pairs counted moves.
    No pair list is stored.  ValueError when the upper triangle does not
    hold half the set bits or a column count differs from its row's: two
    symmetry checks that no block with a zero diagonal and zero bits past
    column h - 1 fails.
    """
    h = len(words)
    degrees = np.empty(h, dtype=np.int64)
    columns = np.zeros(h, dtype=np.int64)
    upper = 0
    comp = np.arange(h, dtype=np.int64)
    chunks = _chunks(h, _chunk_rows(h, _COUNT_CELLS // THREADS))
    for k in range(0, len(chunks), THREADS):
        part = chunks[k:k + THREADS]
        done = _map_chunks(partial(_count_chunk, words, comp, e_s, e_d), part)
        for (i0, i1), (deg, col, up, _, _) in zip(part, done):
            degrees[i0:i1] = deg
            columns += col
            upper += up
        uu = np.concatenate([d[3] for d in done])
        vv = np.concatenate([d[4] for d in done])
        if len(uu):
            # each id is its component's smallest member, so merging the ids of the
            # kept pairs' ends gives each old component the smallest id of its new one
            comp = _components(h, *_pair_rows(h, comp[uu], comp[vv]))[1][comp]
    if 2 * upper != degrees.sum() or not np.array_equal(columns, degrees):
        raise ValueError("adjacency block is not symmetric with a zero diagonal")
    return comp


def dense_recover(oracle: EdgeOracle, n: int, t: int, r_s: float, r_d: float,
                  plan: DensePlan, seed: int) -> DenseResult:
    """Two-phase recovery through the oracle; deterministic given seed.

    n, t, r_s and r_d must be the plan's own; the plan's thresholds are what run.
    """
    if oracle.n != n:
        raise ValueError("oracle size does not match n")
    if (n, t, r_s, r_d) != (plan.n, plan.t, plan.r_s, plan.r_d):
        raise ValueError("n, t, r_s and r_d must be those of the plan")
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
