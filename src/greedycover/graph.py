"""Dense bit-vector graphs and the set operations the greedy process consumes.

Vertices are integers 0..n-1.  Every graph holds its adjacency in one form,
the packed words: one read-only buffer, rows zero-padded to whole uint64
words, that `packed_rows` views as bytes and `packed_words` as words.
`gnp_sample` scatters its edges into them, and `Graph.from_rows` is the one
place that packs int rows (`from_edge_list` and `complete_bipartite` go
through it).  Degrees, equality, hashing, pickles (which send the words),
`has_edge` (one byte), N^c(S) and the numpy paths (codegree scans, degree
bookkeeping in the process engine) read the words.  The int rows, one
Python int per vertex with bit v of row u set iff uv is an edge, are a
per-row cache: `row(v)` builds row v the first time it is read, and the
big-int set operations of the process step run on it.

Graphs are immutable once constructed.  Construct them through
`gnp_sample`, `complete_bipartite`, `from_edge_list`, or `Graph.from_rows`,
which validates rows given by the caller (bit range, self-loops, symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator

import numpy as np

from . import rng as _rng


def bits(mask: int) -> Iterator[int]:
    """The set bits of a non-negative int mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_id(n: int, v: int) -> int:
    """v as a Python int, checked to lie in 0..n-1: the one vertex-id check.

    A numpy integer id becomes a Python int, so a big int shifted by it
    cannot overflow a C long and a payload holding it serializes.
    """
    v = index(v)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range 0..{n - 1}")
    return v


def mask_bits(mask: int, n: int) -> np.ndarray:
    """0/1 uint8 vector of length n for an int bit mask."""
    w = max((n + 7) // 8, 1)
    return np.unpackbits(
        np.frombuffer(mask.to_bytes(w, "little"), dtype=np.uint8),
        count=n,
        bitorder="little",
    )


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A set of vertices of an n-vertex graph, stored as a bit-vector.

    Args:
        n: size of the ambient vertex set.
        members: int bit-vector; bit v set iff v is in the set.
    """

    n: int
    members: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.members < 0 or self.members >> self.n:
            raise ValueError("members has bits outside 0..n-1")

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_iterable(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in vertices:
            mask |= 1 << vertex_id(n, v)
        return cls(n, mask)

    def to_list(self) -> list[int]:
        return list(self)

    def __contains__(self, v: int) -> bool:
        v = index(v)  # a big int shifted by a numpy integer overflows a C long
        return 0 <= v < self.n and (self.members >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits(self.members)

    def __len__(self) -> int:
        return self.size


# Rows per step of the symmetry check in Graph.from_rows (a multiple of 8,
# so each step's columns start on a byte of the packed rows).
_SYMMETRY_BLOCK = 512


class Graph:
    """Immutable simple undirected graph with bit-vector adjacency rows.

    Every graph holds one form, the packed words (`packed`, the
    (n, 8 * ceil(n/64)) uint8 buffer `packed_words` views), which the
    constructor marks read-only: `gnp_sample` scatters into them and
    `from_rows` packs int rows into them.  `==`, `hash`, pickles, degrees
    and `has_edge` read the words.  The int rows are a per-row cache:
    `row(v)` builds row v from its words on first read, so a caller that
    reads a few rows holds only those.
    """

    __slots__ = ("n", "_rows", "edge_count", "_packed", "_degrees", "_ids")

    def __init__(self, n: int, packed: np.ndarray, edge_count: int):
        packed.flags.writeable = False
        self.n = n
        self._rows = None  # the row cache, allocated on the first row read
        self.edge_count = edge_count
        self._packed = packed
        self._degrees = None
        self._ids = None

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Build from adjacency rows, which need not be known symmetric.

        Raises ValueError on bits out of range, self-loops or asymmetry; the
        unpacked bit matrix is compared with its transpose, _SYMMETRY_BLOCK
        rows at a time so memory stays bounded.
        """
        rows = tuple(rows)
        n = len(rows)
        total = 0
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            total += row.bit_count()
        w = (n + 63) // 64 * 8
        buf = b"".join(r.to_bytes(w, "little") for r in rows)
        g = cls(n, np.frombuffer(buf, dtype=np.uint8).reshape(n, w), total // 2)
        packed = g.packed_rows()
        for a in range(0, n, _SYMMETRY_BLOCK):
            b = min(a + _SYMMETRY_BLOCK, n)
            block = np.unpackbits(packed[a:b], axis=1, count=n, bitorder="little")
            cols = np.unpackbits(
                packed[:, a // 8 : (b + 7) // 8], axis=1, bitorder="little"
            )[:, : b - a]
            if not np.array_equal(block, cols.T):
                raise ValueError("adjacency rows are not symmetric")
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def row(self, v: int) -> int:
        """Neighbourhood of v as a bit-vector, built from its words on first read.

        v is not range-checked: this is the greedy step's per-step read.
        """
        rows = self._rows  # the process step's hot path: two checks, then a read
        if rows is None:
            rows = self._rows = [None] * self.n
        r = rows[v]
        if r is None:
            r = rows[v] = int.from_bytes(self._packed[v].tobytes(), "little")
        return r

    def degree(self, v: int) -> int:
        return int(self.degree_array()[vertex_id(self.n, v)])

    def degrees(self) -> list[int]:
        return self.degree_array().tolist()

    def degree_array(self) -> np.ndarray:
        """Read-only int64 vector of the degrees, popcounts of the packed
        words computed once per graph."""
        if self._degrees is None:
            degs = np.bitwise_count(self.packed_words()).sum(axis=1, dtype=np.int64)
            degs.flags.writeable = False
            self._degrees = degs
        return self._degrees

    def vertex_ids(self) -> list[int]:
        """A new list 0..n-1, copied from one built once per graph."""
        if self._ids is None:
            self._ids = list(range(self.n))
        return self._ids.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Bit v & 7 of byte v >> 3 of u's packed row; no int row is built."""
        u, v = vertex_id(self.n, u), vertex_id(self.n, v)
        return (int(self._packed[u, v >> 3]) >> (v & 7)) & 1 == 1

    def neighbors(self, v: int) -> list[int]:
        return VertexSet(self.n, self.row(vertex_id(self.n, v))).to_list()

    def packed_rows(self) -> np.ndarray:
        """(n, ceil(n/8)) uint8 view of `packed_words`; bit v of row u (little
        order) = adjacency."""
        return self._packed[:, : (self.n + 7) // 8]

    def packed_words(self) -> np.ndarray:
        """Read-only (n, ceil(n/64)) uint64 matrix: the packed rows
        zero-padded to whole words."""
        return self._packed.view(np.uint64)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._packed, other._packed)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._packed.tobytes()))

    def __reduce__(self):
        return (Graph, (self.n, self._packed, self.edge_count))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


# Draws per block of `gnp_sample` (128 KB of stream words).
_GNP_BLOCK = 1 << 14


def gnp_sample(n: int, p: float, seed: int) -> Graph:
    """Sample G(n, p): each of the C(n,2) pairs is an edge with probability p.

    Pair t of the strict upper triangle in row-major order is an edge iff
    uniform t of the stream (seed, GRAPH) is below p, so the same seed gives
    the same graph however the draws are batched.  The draws are read in
    bounded blocks and each block's edges are scattered into the word-aligned
    packed rows.  The graph holds only those; its int rows are built the
    first time a row is read.

    Args:
        n: number of vertices (>= 0).
        p: edge probability, inclusive range [0, 1].
        seed: stream seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    packed = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
    # pair (u, v), u < v, reads draw starts[u] + v - u - 1 of the stream
    vs = np.arange(n, dtype=np.int64)
    starts = vs * (n - 1) - vs * (vs - 1) // 2
    gen = _rng.stream(seed, _rng.GRAPH)
    total = n * (n - 1) // 2
    edge_count = 0
    for first in range(0, total, _GNP_BLOCK):
        hit = np.flatnonzero(gen.below(p, min(_GNP_BLOCK, total - first))) + first
        u = np.searchsorted(starts, hit, side="right") - 1
        v = hit - starts[u] + u + 1
        np.bitwise_or.at(packed, (u, v >> 3), np.left_shift(1, v & 7).astype(np.uint8))
        np.bitwise_or.at(packed, (v, u >> 3), np.left_shift(1, u & 7).astype(np.uint8))
        edge_count += hit.size
    return Graph(n, packed, edge_count)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts A = {0..a-1}, B = {a..a+b-1}, all cross pairs adjacent."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")
    n = a + b
    mask_a = (1 << a) - 1
    mask_b = ((1 << b) - 1) << a
    return Graph.from_rows(mask_b if v < a else mask_a for v in range(n))


class EdgeListError(ValueError):
    """Malformed edge-list text; carries a 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def from_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    Format: first line "n m", then exactly m lines "u v" with
    0 <= u < v < n and no duplicate pairs.  Trailing blank lines are
    tolerated; anything else raises EdgeListError with its line number.
    """
    lines = text.splitlines()
    if not lines:
        raise EdgeListError(1, "empty input, expected 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(1, f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(1, f"non-integer header fields: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "n and m must be non-negative")
    rows = [0] * n
    seen = 0
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            if seen < m:
                raise EdgeListError(lineno, "blank line before all edges were read")
            continue
        if seen >= m:
            raise EdgeListError(lineno, f"more than m={m} edge lines")
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(lineno, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(lineno, f"non-integer vertex ids: {raw!r}") from None
        if not (0 <= u < v < n):
            raise EdgeListError(
                lineno, f"need 0 <= u < v < n={n}, got u={u} v={v}"
            )
        if (rows[u] >> v) & 1:
            raise EdgeListError(lineno, f"duplicate edge {u} {v}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        seen += 1
    if seen != m:
        raise EdgeListError(lineno, f"header promised m={m} edges, found {seen}")
    return Graph.from_rows(rows)


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format, lexicographic edge order."""
    out = [f"{g.n} {g.edge_count}"]
    for u in range(g.n):
        out.extend(f"{u} {u + 1 + w}" for w in bits(g.row(u) >> (u + 1)))
    return "\n".join(out) + "\n"


def common_non_neighbourhood(g: Graph, s: VertexSet) -> VertexSet:
    """N^c(S): vertices outside S adjacent to no member of S.

    For S = empty this is all of V(G).
    """
    if s.n != g.n:
        raise ValueError("vertex set is for a different n")
    # the OR of S's packed rows, read as one int; no int row is built
    union = np.bitwise_or.reduce(g.packed_words()[list(bits(s.members))], axis=0)
    return VertexSet(g.n, g.full_mask & ~s.members & ~int.from_bytes(union, "little"))


def codegree(g: Graph, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| for distinct vertices u, v."""
    if vertex_id(g.n, u) == vertex_id(g.n, v):
        raise ValueError("codegree needs two distinct vertices")
    return (g.row(u) & g.row(v)).bit_count()


def first_edge_inside(g: Graph, mask: int) -> tuple[int, int] | None:
    """The lexicographically least edge (u, v), u < v, of g inside the vertex
    mask, or None when the mask is independent."""
    for u in bits(mask):
        inside = g.row(u) & mask
        if inside:
            # u is the least member with a neighbour in the mask, so v > u
            return u, (inside & -inside).bit_length() - 1
    return None


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of g has both endpoints in s."""
    if s.n != g.n:
        raise ValueError("vertex set is for a different n")
    return first_edge_inside(g, s.members) is None


def non_edge_count(g: Graph) -> int:
    """Number of unordered non-adjacent pairs, C(n, 2) - |E|."""
    return g.n * (g.n - 1) // 2 - g.edge_count


def non_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield all unordered non-adjacent pairs (u, v), u < v."""
    for u in range(g.n - 1):
        missing = (~g.row(u)) & (g.full_mask >> (u + 1) << (u + 1))
        yield from ((u, v) for v in bits(missing))
