"""Immutable simple undirected graph with sorted adjacency.

Stored as a CSR-style (indptr, indices) pair plus the unique edge list
with u < v.  Neighbor lists are strictly sorted, which makes neighbor
intersection a linear merge and keeps file output canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized ``has_edge``: whether each pair (us[i], vs[i]) is an edge."""
        n = self.n
        # edges are sorted by lo * n + hi; the sentinel n * n closes the search
        edge_keys = np.append(self.edges[:, 0].astype(np.int64) * n + self.edges[:, 1], n * n)
        keys = np.minimum(us, vs).astype(np.int64) * n + np.maximum(us, vs)
        # searching in key order keeps the binary searches cache-local
        order = np.argsort(keys)
        keys = keys[order]
        hit = np.empty(len(keys), dtype=bool)
        hit[order] = edge_keys[np.searchsorted(edge_keys, keys)] == keys
        return hit

    def adjacency_bool(self) -> np.ndarray:
        """Dense (n, n) boolean adjacency. Intended for n up to ~2e4."""
        a = np.zeros((self.n, self.n), dtype=bool)
        if self.m:
            a[self.edges[:, 0], self.edges[:, 1]] = True
            a[self.edges[:, 1], self.edges[:, 0]] = True
        return a

    def packed_rows(self) -> np.ndarray:
        """Bit-packed adjacency rows as uint64 words, for bulk intersection counts.

        Bits are set straight from the CSR arrays in np.packbits order (the
        first column in the most significant bit of byte 0), with each row
        zero-padded to whole words.
        """
        words = -(-self.n // 64)
        row_bytes = 8 * words
        flat = np.zeros(self.n * row_bytes, dtype=np.uint8)
        bits = np.left_shift(np.uint8(1), (~self.indices & 7).astype(np.uint8))
        at = np.repeat(np.arange(self.n, dtype=np.int64) * row_bytes, self.degrees())
        at += self.indices >> 3
        # neighbors are distinct, so adding distinct bits of one byte is an or
        np.add.at(flat, at, bits)
        return flat.view(np.uint64).reshape(self.n, words)

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


def from_edges(n: int, u, v, validate: bool = False) -> Graph:
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
    g = Graph(n=int(n), indptr=indptr, indices=indices, edges=edges)
    if validate:
        g.validate()
    return g


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
    """Read the format written by write_graph; returns (graph, t)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed header")
        n, m, t = (int(x) for x in header)
        data = np.loadtxt(fh, dtype=np.int64, ndmin=2) if m else np.empty((0, 2), np.int64)
    if data.shape != (m, 2):
        raise ValueError(f"{path}: expected {m} edges, found {data.shape[0]}")
    return from_edges(n, data[:, 0], data[:, 1]), t


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
