"""Dense bit-vector graphs and the set operations the greedy process consumes.

Vertices are integers 0..n-1.  Adjacency is stored as one Python int per
vertex, bit v of row u set iff uv is an edge; unions, complements and
popcounts over whole neighbourhoods are then single big-int operations.  A
packed uint8 mirror of the rows is cached lazily for the numpy-vectorized
paths (codegree scans, degree bookkeeping in the process engine).

Graphs are immutable once constructed.  Construct them through
`gnp_sample`, `complete_bipartite`, `from_edge_list`, or `Graph.from_rows`
(which validates symmetry is the caller's responsibility only for the last).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import rng as _rng


@dataclass(frozen=True)
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

    @cached_property
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
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def to_list(self) -> list[int]:
        return list(self)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.members >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.members
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self.size


# Rows per step of the symmetry check in Graph.from_rows (a multiple of 8,
# so each step's columns start on a byte of the packed rows).
_SYMMETRY_BLOCK = 512


class Graph:
    """Immutable simple undirected graph with bit-vector adjacency rows."""

    __slots__ = ("n", "_rows", "edge_count", "_packed")

    def __init__(self, n: int, rows: tuple[int, ...], edge_count: int):
        self.n = n
        self._rows = rows
        self.edge_count = edge_count
        self._packed = None

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Build from adjacency rows.  Rows must already be symmetric.

        Validates bit range, self-loops and symmetry: the unpacked bit
        matrix is compared with its transpose, _SYMMETRY_BLOCK rows at a
        time so memory stays bounded.
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
        g = cls(n, rows, total // 2)
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
        """Neighbourhood of v as a bit-vector."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self._rows]

    def has_edge(self, u: int, v: int) -> bool:
        return (self._rows[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> list[int]:
        return VertexSet(self.n, self._rows[v]).to_list()

    def packed_rows(self) -> np.ndarray:
        """(n, ceil(n/8)) uint8 matrix; bit v of row u (little order) = adjacency."""
        if self._packed is None:
            w = max((self.n + 7) // 8, 1)
            buf = b"".join(r.to_bytes(w, "little") for r in self._rows)
            self._packed = np.frombuffer(buf, dtype=np.uint8).reshape(self.n, w)
        return self._packed

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __reduce__(self):
        return (Graph, (self.n, self._rows, self.edge_count))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def gnp_sample(n: int, p: float, seed: int) -> Graph:
    """Sample G(n, p): each of the C(n,2) pairs is an edge with probability p.

    The strict upper triangle is filled pair-by-pair in row-major order from
    the Philox stream keyed by (seed, GRAPH domain), so the same seed gives
    the same graph regardless of how the draws are batched or parallelized.

    Args:
        n: number of vertices (>= 0).
        p: edge probability, inclusive range [0, 1].
        seed: stream seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    w = max((n + 7) // 8, 1)
    packed = np.zeros((max(n, 1), w), dtype=np.uint8)
    gen = _rng.stream(seed, _rng.GRAPH)
    rowbits = np.zeros(n, dtype=np.uint8)
    for u in range(n - 1):
        draws = gen.random(n - 1 - u)
        hits = draws < p
        rowbits[:] = 0
        rowbits[u + 1 :] = hits
        packed[u] |= np.packbits(rowbits, bitorder="little")[:w]
        cols = np.nonzero(hits)[0] + u + 1
        if cols.size:
            packed[cols, u >> 3] |= np.uint8(1 << (u & 7))
    rows = tuple(
        int.from_bytes(packed[v].tobytes(), "little") for v in range(n)
    )
    edge_count = sum(r.bit_count() for r in rows) // 2
    return Graph(n, rows, edge_count)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts A = {0..a-1}, B = {a..a+b-1}, all cross pairs adjacent."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")
    n = a + b
    mask_a = (1 << a) - 1
    mask_b = ((1 << b) - 1) << a
    rows = tuple(mask_b if v < a else mask_a for v in range(n))
    return Graph(n, rows, a * b)


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
    return Graph(n, tuple(rows), m)


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format, lexicographic edge order."""
    out = [f"{g.n} {g.edge_count}"]
    for u in range(g.n):
        higher = g.row(u) >> (u + 1)
        while higher:
            low = higher & -higher
            out.append(f"{u} {u + low.bit_length()}")
            higher ^= low
    return "\n".join(out) + "\n"


def common_non_neighbourhood(g: Graph, s: VertexSet) -> VertexSet:
    """N^c(S): vertices outside S adjacent to no member of S.

    For S = empty this is all of V(G).
    """
    if s.n != g.n:
        raise ValueError("vertex set is for a different n")
    mask = g.full_mask
    m = s.members
    while m:
        low = m & -m
        v = low.bit_length() - 1
        mask &= ~(g.row(v) | low)
        m ^= low
    return VertexSet(g.n, mask)


def codegree(g: Graph, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| for distinct vertices u, v."""
    if u == v:
        raise ValueError("codegree needs two distinct vertices")
    return (g.row(u) & g.row(v)).bit_count()


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of g has both endpoints in s."""
    if s.n != g.n:
        raise ValueError("vertex set is for a different n")
    m = s.members
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if g.row(v) & s.members:
            return False
        m ^= low
    return True


def non_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield all unordered non-adjacent pairs (u, v), u < v."""
    for u in range(g.n - 1):
        missing = (~g.row(u)) & (g.full_mask >> (u + 1) << (u + 1))
        while missing:
            low = missing & -missing
            yield (u, low.bit_length() - 1)
            missing ^= low
