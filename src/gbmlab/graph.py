"""Immutable simple undirected graph with sorted adjacency.

Stored once, as a CSR-style (indptr, indices) pair holding both
orientations of every edge in strictly sorted rows, which the package's
one grouping step, `_key_rows`, builds from int64 pair keys.  The unique
edge list with u < v, which keeps file output canonical, is read off
those rows on first use (`Graph.edges`), and `Graph.layout` packs them
once for counting and membership.  ``trims_heap`` marks the calls that
build pair-sized arrays: they hand the heap's free pages back when they
end.  Every text file the package writes (graph, embeddings, labels, and
the CLI's CSV) goes through one row writer, `_write_rows`.
"""

from __future__ import annotations

import ctypes
import os
import re
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, partial, wraps

import numpy as np
from scipy.sparse import csgraph, csr_matrix

#: `Graph.packed_rows` sets its bits in chunks of whole rows of about this many entries
_PACK_CHUNK = 1 << 18
#: glibc's malloc_trim, or None where there is none
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform == "linux" else None


def trim_heap() -> None:
    """Hand the heap's free pages back, which glibc keeps resident (README, "CLI")."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def trims_heap(fn):
    """Wrap fn so that the heap is trimmed when it returns or raises."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            trim_heap()
    return wrapper


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
    indices: np.ndarray    # (2m,) int32, each edge in both rows, sorted within each vertex slice

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def edges(self) -> np.ndarray:
        """(m, 2) int32 edges u < v sorted by (u, v): the CSR entries above the diagonal, row by row."""
        rows = np.repeat(np.arange(self.n, dtype=np.int32), self.degrees())
        upper = self.indices > rows
        edges = np.empty((self.m, 2), dtype=np.int32)
        edges[:, 0] = rows[upper]
        edges[:, 1] = self.indices[upper]
        return edges

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether each pair (us, vs) is an edge, for index arrays that broadcast together.

        A bit test in `layout`; raises ValueError on a vertex id out of range.
        """
        us, vs = np.asarray(us), np.asarray(vs)
        if not us.size or not vs.size:
            return np.zeros(np.broadcast_shapes(us.shape, vs.shape), dtype=bool)
        if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= self.n:
            raise ValueError("vertex id out of range")
        pos, rows, starts = self.layout
        bits = 64 * rows.shape[1]
        pu = pos[us]
        off = pos[vs] - 64 * starts[pu]        # bit of column pos[v] in row pos[u]'s window
        inside = (off >= 0) & (off < bits)     # a column outside the window is no edge
        off = np.clip(off, 0, bits - 1, out=off) + pu * np.int64(bits)
        return inside & ((rows.view(np.uint8).ravel()[off >> 3] << (off & 7).astype(np.uint8)) >= 128)

    def adjacency_bool(self) -> np.ndarray:
        """Dense (n, n) boolean adjacency. Intended for n up to ~2e4."""
        a = np.zeros((self.n, self.n), dtype=bool)
        a[np.repeat(np.arange(self.n), self.degrees()), self.indices] = True
        return a

    def packed_rows(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bit-packed adjacency rows in a vertex order, each in a window of W uint64 words.

        Vertex u becomes row and column pos[u].  With bw the bandwidth of
        that order (the largest |pos[u] - pos[v]| over edges) and
        nw = ceil(n / 64), W = min(nw, floor(2 bw / 64) + 2), and the window
        of row i starts at word s_i = clip(floor((i - bw) / 64), 0, nw - W),
        which holds every column within bw of i.  Returns the starts s and
        the (n, W) array of the windows, 8 n W bytes.  Column c of row i is
        bit c - 64 s_i of the window in np.packbits order (the first column
        in the most significant bit of byte 0).  When bw is close to n,
        W = nw and every s_i = 0: the full rows.

        The bandwidth and the bits are both taken over chunks of whole CSR
        rows holding about 2^18 entries, so besides the packing the call
        holds a few chunk-sized index arrays, none of 2m entries.
        """
        n = self.n
        # int64 whatever the caller's order dtype: byte offsets reach 8 n W
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
        flat = np.zeros(n * 8 * w, dtype=np.uint8)
        for i0, i1 in chunks:
            rows, cols = entries(i0, i1)
            bits = np.left_shift(np.uint8(1), np.uint8(7) - (cols.astype(np.uint8) & np.uint8(7)))
            # the byte of column c in row i: 8 (W i - s_i) + c // 8, built in place
            off = starts[rows]
            rows *= w
            rows -= off
            rows <<= 3
            cols >>= 3
            rows += cols
            # neighbors are distinct, so adding distinct bits of one byte is an or
            np.add.at(flat, rows, bits)
            del rows, cols, off, bits
        return flat.view(np.uint64).reshape(n, w), starts

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pos, *packed_rows(pos)) with pos[u] the place of u in reverse Cuthill-McKee order.

        The graph's one adjacency index, shared by counting and `has_edges`,
        which must not write to it: 8 n W bytes, built on first use (about
        5 ms at 1.1e5 edges) and kept.
        """
        # scipy cannot order an empty matrix
        order = csgraph.reverse_cuthill_mckee(csr_matrix(
            (np.ones(len(self.indices), dtype=np.int8), self.indices, self.indptr),
            shape=(self.n, self.n)), symmetric_mode=True) if self.n else np.empty(0, np.int32)
        # int32 positions keep the readers' pair-sized arrays at 4 bytes an entry
        pos = np.empty(self.n, dtype=np.int32)
        pos[order] = np.arange(self.n)
        return (pos, *self.packed_rows(pos))

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
        transposed = indices * np.int64(n) + rows
        transposed.sort()
        if not np.array_equal(transposed, csr_keys):
            raise ValueError("adjacency not symmetric")


def _key_rows(n: int, keys: np.ndarray) -> np.ndarray:
    """CSR row pointers of the int64 pair keys u * n + v, each in [0, n * n), which it sorts
    in place unless they already ascend; row u's columns are then its keys % n, ascending.
    The one grouping step, shared by `from_edges` and `recovery._pair_rows`."""
    if np.any(keys[1:] < keys[:-1]):
        keys.sort()
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)


def from_edges(n: int, u, v) -> Graph:
    """Build a Graph from parallel endpoint arrays (any orientation).

    Raises ValueError on a self-loop or a pair given twice.  `_key_rows` groups
    the keys of both orientations, and the sorted keys show a repeated pair: its
    key lo * n + hi is the smallest repeated key, since lo * n + hi < hi * n + lo.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if len(u) != len(v):
        raise ValueError("endpoint arrays differ in length")
    if len(u) and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("vertex id out of range")
    if np.any(u == v):
        raise ValueError(f"self-loop at vertex {int(u[np.argmax(u == v)])}")
    keys = np.concatenate([u, v])          # u * n + v, then v * n + u, in one array
    keys *= n
    keys[:len(u)] += v
    keys[len(u):] += u
    indptr = _key_rows(n, keys)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if len(dup):
        raise ValueError(f"duplicate edge {divmod(int(keys[dup[0]]), n)}")
    indices = np.remainder(keys, n, out=keys).astype(np.int32)
    return Graph(n=int(n), indptr=indptr, indices=indices)


def empty_graph(n: int) -> Graph:
    return from_edges(n, np.empty(0, np.int64), np.empty(0, np.int64))


# ---------------------------------------------------------------------------
# text formats (ASCII, LF endings)
# ---------------------------------------------------------------------------

#: `_write_rows` formats this many rows per string
_WRITE_CHUNK = 1 << 16
#: `read_graph` parses edge lines of at least this many bytes in two halves
_READ_HALVES = 1 << 20
#: a row format that `_digit_rows` prints: `%d` fields, each followed by one ASCII character
_DIGIT_ROW = re.compile(r"(?:%d[\x01-\x24\x26-\x7f])+")


def _digit_rows(rows: np.ndarray, seps: bytes) -> str:
    """The rows of the 2-D integer array `rows` as `%d` fields, field j followed by seps[j].

    Numpy digit arithmetic in place of `%` formatting: the magnitudes, in
    int32 when they fit and else in uint64 (where -(-2^63) is 2^63, which
    `np.abs` overflows on), are taken apart by w passes of `//= 10` into a
    (fields, w + 2) byte matrix of sign, w digits and separator.  The
    leading zeros and the sign of a value >= 0 are 0 bytes there, which one
    `bytes.translate` drops.
    """
    v = rows.ravel()
    top = max(int(v.max()), -int(v.min()))
    if top < 2 ** 31:
        mag = np.abs(v.astype(np.int32))
    else:
        mag = v.astype(np.uint64)
        np.negative(mag, out=mag, where=v < 0)
    w = len(str(top))
    out = np.zeros((len(v), w + 2), dtype=np.uint8)
    out[v < 0, 0] = ord("-")
    out[:, w + 1].reshape(rows.shape)[:] = np.frombuffer(seps, dtype=np.uint8)
    q, digit = np.empty_like(mag), np.empty_like(mag)
    for j in range(w, 0, -1):
        np.floor_divide(mag, 10, out=q)
        np.multiply(q, 10, out=digit)
        np.subtract(mag, digit, out=digit)
        digit += ord("0")
        if j < w:
            # nothing left of the value: a leading zero
            digit *= mag != 0
        out[:, j] = digit
        mag, q = q, mag
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(stream, row_format: str, rows: np.ndarray) -> None:
    """Write each row of the 2-D array `rows` through the one-row format, one string per
    chunk of `_WRITE_CHUNK` rows.

    An integer array whose format `_DIGIT_ROW` matches is printed by
    `_digit_rows`, a round of THREADS chunks at a time on `dense._map_chunks`,
    and each round is written before the next is formatted.  Any other
    array is `%` formatted on the caller's thread; an object array keeps
    mixed values as they are, so `%s` prints `str(x)`.
    """
    from .dense import THREADS, _chunks, _map_chunks
    if rows.dtype.kind in "iu" and _DIGIT_ROW.fullmatch(row_format) and rows.shape[1] == row_format.count("%"):
        text, threads = partial(_digit_rows, seps=row_format.replace("%d", "").encode()), None
    else:
        text, threads = lambda chunk: (row_format * len(chunk)) % tuple(chunk.ravel().tolist()), 1
    chunks = _chunks(len(rows), _WRITE_CHUNK)
    for k in range(0, len(chunks), THREADS):
        for part in _map_chunks(lambda i0, i1: text(rows[i0:i1]), chunks[k:k + THREADS], threads):
            stream.write(part)


def write_graph(path: str, graph: Graph, t: int = 1) -> None:
    """Write `n m t` header then one `u v` line per edge, 0-indexed with u < v."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{graph.n} {graph.m} {t}\n")
        _write_rows(fh, "%d %d\n", graph.edges)


def _integers(path: str, text: bytes, what: str) -> np.ndarray:
    """A non-blank text's integers by `np.fromstring`, off the GIL; a bad token's ValueError names the file."""
    try:
        return np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        raise ValueError(f"{path}: {what} hold a token that is not an integer") from None


def read_graph(path: str) -> tuple[Graph, int]:
    """Read the format written by write_graph; returns (graph, t).

    The edge lines are read in two parts, cut at the first LF after their
    middle byte, when they hold at least `_READ_HALVES` bytes and the file
    can seek, and else in one.  Each part that is not blank is parsed by
    `_integers` on `dense._map_chunks`.  Raises ValueError on a malformed
    header (three integers n >= 0, m >= 0 and t >= 1 expected), a token
    that is not an integer, an odd number of endpoints or an edge count
    other than m.
    """
    from .dense import _map_chunks
    with open(path, "rb") as fh:
        # a lone CR ends the header line too, as it does in text mode
        head, _, rest = fh.readline().partition(b"\r")
        parts = [rest]
        if fh.seekable() and (size := os.fstat(fh.fileno()).st_size) - fh.tell() >= _READ_HALVES:
            start = fh.tell()
            fh.seek((start + size) // 2)
            fh.readline()
            cut = fh.tell()
            fh.seek(start)
            parts.append(fh.read(cut - start))
        parts.append(fh.read())
    try:
        n, m, t = (int(x) for x in head.decode().split())
    except ValueError:
        raise ValueError(f"{path}: malformed header") from None
    if n < 0 or m < 0 or t < 1:
        raise ValueError(f"{path}: malformed header")
    # np.fromstring reads a blank string as [0]
    parts = [p for p in parts if p and not p.isspace()]
    ends = _map_chunks(lambda k, _: _integers(path, parts[k], "edge lines"),
                       [(k, k + 1) for k in range(len(parts))])
    del parts
    ends = np.concatenate(ends) if ends else np.empty(0, np.int64)
    if len(ends) % 2:
        raise ValueError(f"{path}: odd number of endpoints ({len(ends)})")
    if len(ends) != 2 * m:
        raise ValueError(f"{path}: expected {m} edges, found {len(ends) // 2}")
    return from_edges(n, ends[0::2], ends[1::2]), t


def write_embeddings(path: str, embeddings: np.ndarray) -> None:
    """One line per vertex, comma-separated coordinates."""
    pts = np.atleast_2d(np.asarray(embeddings, dtype=float).T).T
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, ",".join(["%.17g"] * pts.shape[1]) + "\n", pts)


def read_embeddings(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            out = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return out[:, 0] if out.shape[1] == 1 else out


def write_labels(path: str, labels: np.ndarray) -> None:
    """One label per line; -1 denotes unassigned."""
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, "%d\n", np.asarray(labels).reshape(-1, 1))


def read_labels(path: str) -> np.ndarray:
    """write_labels' format; ValueError naming the file unless each non-blank line holds one integer."""
    with open(path, "rb") as fh:
        text = fh.read()
    if re.search(rb"\S[ \t\v\f]+\S", text):
        raise ValueError(f"{path}: expected one label per line")
    return _integers(path, text.strip(), "labels")
