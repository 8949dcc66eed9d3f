"""Immutable simple undirected graph with sorted adjacency.

Stored as a CSR-style (indptr, indices) pair plus the unique edge list
with u < v.  Neighbor lists are strictly sorted, which makes neighbor
intersection a linear merge and keeps file output canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: `Graph.packed_rows` sets its bits in chunks of whole rows of about this many entries
_PACK_CHUNK = 1 << 18


def _row_chunks(indptr: np.ndarray, size: int):
    """(i0, i1) ranges of CSR rows, in order, each holding at most `size` entries
    unless a single row holds more."""
    n = len(indptr) - 1
    i0 = 0
    while i0 < n:
        i1 = int(np.searchsorted(indptr, indptr[i0] + size, side="right")) - 1
        i1 = min(n, max(i1, i0 + 1))
        yield i0, i1
        i0 = i1


@dataclass(frozen=True)
class Graph:
    n: int
    indptr: np.ndarray     # (n+1,) int64
    indices: np.ndarray    # (2m,) int32, sorted within each vertex slice
    edges: np.ndarray      # (m, 2) int32 with edges[:,0] < edges[:,1], lexicographically sorted

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether each pair (us[i], vs[i]) is an edge.

        A branch-free binary search for vs[i] inside the sorted CSR slice of
        us[i], all pairs stepping together by the same powers of two; its
        buffers are pair-sized.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        indices, last = self.indices, len(self.indices) - 1
        if last < 0:
            return np.zeros(np.broadcast(us, vs).shape, dtype=bool)
        pos = self.indptr[us]      # every neighbor of us[i] before pos[i] is < vs[i]
        end = self.indptr[us + 1]
        probe = np.empty_like(pos)
        below = np.empty(pos.shape, dtype=bool)
        step = 1 << int(self.degrees().max()).bit_length()
        while step > 1:
            step >>= 1
            # advance by step where the entry at pos + step - 1 is in the slice and < v
            np.add(pos, step - 1, out=probe)
            np.less(probe, end, out=below)
            np.minimum(probe, last, out=probe)
            below &= indices[probe] < vs
            np.add(pos, step, out=probe)
            np.copyto(pos, probe, where=below)
        return (pos < end) & (indices[np.minimum(pos, last)] == vs)

    def adjacency_bool(self) -> np.ndarray:
        """Dense (n, n) boolean adjacency. Intended for n up to ~2e4."""
        a = np.zeros((self.n, self.n), dtype=bool)
        if self.m:
            a[self.edges[:, 0], self.edges[:, 1]] = True
            a[self.edges[:, 1], self.edges[:, 0]] = True
        return a

    def packed_rows(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bit-packed adjacency rows in a vertex order, each in a window of W uint64 words.

        Vertex u becomes row and column pos[u].  With bw the bandwidth of
        that order (the largest |pos[u] - pos[v]| over edges) and
        nw = ceil(n / 64), W = min(nw, floor(2 bw / 64) + 2), and the window
        of row i starts at word s_i = clip(floor((i - bw) / 64), 0, nw - W),
        which holds every column within bw of i.  Returns the starts s and
        an (n, 2W) array: row i's window, then W zero words that let
        `recovery._window_counts` shift it.  Column c of row i is bit
        c - 64 s_i of the window in np.packbits order (the first column in
        the most significant bit of byte 0).  When bw is close to n, W = nw
        and every s_i = 0: the full rows.

        The bandwidth and the bits are both taken over chunks of whole CSR
        rows holding about 2^18 entries, so besides the packing the call
        holds a few chunk-sized index arrays, none of 2m entries.
        """
        n = self.n
        # int64 whatever the caller's order dtype: byte offsets reach 16 n W
        pos = np.asarray(pos, dtype=np.int64)
        chunks = list(_row_chunks(self.indptr, _PACK_CHUNK))

        def entries(i0, i1):
            """Row and column, in the order pos, of each CSR entry of vertices i0 to i1 - 1."""
            lo, hi = self.indptr[i0], self.indptr[i1]
            return (np.repeat(pos[i0:i1], np.diff(self.indptr[i0:i1 + 1])),
                    pos[self.indices[lo:hi]])

        # each loop drops its chunk's arrays before the next chunk is made
        bw = 0
        for i0, i1 in chunks:
            rows, cols = entries(i0, i1)
            rows -= cols
            bw = max(bw, int(np.abs(rows, out=rows).max(initial=0)))
            del rows, cols
        nw = -(-n // 64)
        w = min(nw, 2 * bw // 64 + 2)
        starts = np.clip((np.arange(n, dtype=np.int64) - bw) // 64, 0, nw - w)
        flat = np.zeros(n * 16 * w, dtype=np.uint8)
        for i0, i1 in chunks:
            rows, cols = entries(i0, i1)
            bits = np.left_shift(np.uint8(1), np.uint8(7) - (cols.astype(np.uint8) & np.uint8(7)))
            # the byte of column c in row i: 8 (2 W i - s_i) + c // 8, built in place
            off = starts[rows]
            rows *= 2 * w
            rows -= off
            rows <<= 3
            cols >>= 3
            rows += cols
            # neighbors are distinct, so adding distinct bits of one byte is an or
            np.add.at(flat, rows, bits)
            del rows, cols, off, bits
        return flat.view(np.uint64).reshape(n, 2 * w), starts

    def validate(self) -> None:
        """Check simplicity, symmetry and sortedness; raises on violation."""
        n, indptr, indices = self.n, self.indptr, self.indices
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices)
                or np.any(np.diff(indptr) < 0)):
            raise ValueError("malformed indptr")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbor id out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        csr_keys = rows * n + indices
        bad = np.flatnonzero(csr_keys[1:] <= csr_keys[:-1]) + 1
        loops = np.flatnonzero(indices == rows)
        if len(bad) or len(loops):
            u = min(rows[bad[:1]].tolist() + rows[loops[:1]].tolist())
            raise ValueError(f"adjacency of vertex {u} not strictly sorted / has self-loop")
        u, v = self.edges[:, 0].astype(np.int64), self.edges[:, 1].astype(np.int64)
        if np.any(u >= v):
            raise ValueError("edge list not in u < v form")
        keys = u * n + v
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edge list not strictly sorted (duplicate edges?)")
        both = np.concatenate([keys, v * n + u])
        both.sort()
        if not np.array_equal(both, csr_keys):
            raise ValueError("edge list inconsistent with adjacency")


def from_edges(n: int, u, v) -> Graph:
    """Build a Graph from parallel endpoint arrays (any orientation).

    Raises ValueError on a self-loop or a pair given twice.  Edges are
    sorted once by the key lo * n + hi; the CSR arrays come from one sort
    of the keys of both orientations.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if len(u) != len(v):
        raise ValueError("endpoint arrays differ in length")
    if len(u) and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("vertex id out of range")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if np.any(lo == hi):
        raise ValueError(f"self-loop at vertex {int(lo[np.argmax(lo == hi)])}")
    keys = lo * n + hi
    keys.sort()
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if len(dup):
        raise ValueError(f"duplicate edge {divmod(int(keys[dup[0]]), n)}")
    lo, hi = np.divmod(keys, n)
    edges = np.empty((len(keys), 2), dtype=np.int32)
    edges[:, 0] = lo
    edges[:, 1] = hi
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
    both = np.concatenate([keys, hi * n + lo])
    both.sort()
    indices = np.remainder(both, n, out=both).astype(np.int32)
    return Graph(n=int(n), indptr=indptr, indices=indices, edges=edges)


def empty_graph(n: int) -> Graph:
    return from_edges(n, np.empty(0, np.int64), np.empty(0, np.int64))


# ---------------------------------------------------------------------------
# text formats (ASCII, LF endings)
# ---------------------------------------------------------------------------

#: write_graph formats this many edges per string
_WRITE_CHUNK = 1 << 16


def write_graph(path: str, graph: Graph, t: int = 1) -> None:
    """Write `n m t` header then one `u v` line per edge, 0-indexed with u < v."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{graph.n} {graph.m} {t}\n")
        for i0 in range(0, graph.m, _WRITE_CHUNK):
            chunk = graph.edges[i0:i0 + _WRITE_CHUNK]
            fh.write(("%d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_graph(path: str) -> tuple[Graph, int]:
    """Read the format written by write_graph; returns (graph, t).

    The edge lines are parsed as one run of whitespace-separated integers.
    Raises ValueError on a malformed header, a token that is not an
    integer, an odd number of endpoints or an edge count other than m.
    """
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) != 3:
        raise ValueError(f"{path}: malformed header")
    n, m, t = (int(x) for x in header)
    # np.fromstring reads a blank string as [0]
    if not body or body.isspace():
        ends = np.empty(0, np.int64)
    else:
        try:
            ends = np.fromstring(body, dtype=np.int64, sep=" ")
        except ValueError:
            raise ValueError(f"{path}: edge lines hold a token that is not an integer") from None
    if len(ends) % 2:
        raise ValueError(f"{path}: odd number of endpoints ({len(ends)})")
    if len(ends) != 2 * m:
        raise ValueError(f"{path}: expected {m} edges, found {len(ends) // 2}")
    return from_edges(n, ends[0::2], ends[1::2]), t


def write_embeddings(path: str, embeddings: np.ndarray) -> None:
    """One line per vertex, comma-separated coordinates."""
    pts = np.atleast_2d(np.asarray(embeddings, dtype=float).T).T
    with open(path, "w", newline="\n") as fh:
        for row in pts:
            fh.write(",".join(f"{x:.17g}" for x in np.atleast_1d(row)) + "\n")


def read_embeddings(path: str) -> np.ndarray:
    out = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    return out[:, 0] if out.shape[1] == 1 else out


def write_labels(path: str, labels: np.ndarray) -> None:
    """One label per line; -1 denotes unassigned."""
    with open(path, "w", newline="\n") as fh:
        for x in labels:
            fh.write(f"{int(x)}\n")


def read_labels(path: str) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)
