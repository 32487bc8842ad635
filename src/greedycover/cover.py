"""Non-edge covers built from independent greedy-process runs.

Two constructions: a flat family of independent sets whose internal pairs
cover all non-edges of the host, and a family of partitions obtained by
drawing s runs per partition and disjointifying them in draw order (each
cell keeps only the vertices unseen by earlier draws of its partition).

Fixed-budget and adaptive builders share stream indexing, so the adaptive
result is always the prefix of the fixed-budget result: run r of the flat
family uses stream (seed, COVER_FLAT, r), and draw j of partition i uses
(seed, COVER_PART, i*s + j).

`verify_cover` re-checks everything from scratch, walking the cells in
place: its extra memory is one n-bit coverage mask per vertex, and no
object per cell.  In order it checks within-partition disjointness over all
partitions ("partition i: set j shares vertex w with an earlier set"), then
each cell in cover order for its host size ("NAME is for a different host
size", a ValueError) and independence ("NAME contains edge (u, v)"), then
non-edge coverage.  NAME is "set j" or "partition i set j", formatted only
for the offender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, bits, first_edge_inside, non_edge_count, non_edges
from .params import ParamSet, bound_formulas, check_host_n
from .process import sample_independent_set


class CoverStructureError(ValueError):
    """A cover object violates its structural invariants."""


@dataclass
class Cover:
    """Flat family of independent sets over a host on host_n vertices."""

    sets: list[VertexSet]
    host_n: int


@dataclass
class PartitionCover:
    """Family of partitions, each a list of disjoint independent sets.

    singleton_count counts the cells of size one: kept for disjointness,
    they cover no pair.
    """

    partitions: list[list[VertexSet]]
    host_n: int
    singleton_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.singleton_count = sum(s.size == 1 for part in self.partitions for s in part)


@dataclass
class CoverReport:
    total_sets: int
    uncovered: list[tuple[int, int]]
    covered_fraction: float
    bound_comparison: dict | None


class _CoverageTracker:
    """Counts distinct non-edges covered by the pair-sets of added sets."""

    def __init__(self, host: Graph):
        self.host = host
        self.covered_with = [0] * host.n
        self.covered = 0
        self.total = non_edge_count(host)

    def add(self, mask: int) -> int:
        """Mark all pairs inside `mask` covered; returns newly covered count."""
        delta = 0
        for v in bits(mask):
            others = mask & ~(1 << v)
            delta += (others & ~self.covered_with[v]).bit_count()
            self.covered_with[v] |= others
        # each new pair was counted once from each endpoint
        self.covered += delta // 2
        return delta // 2

    @property
    def complete(self) -> bool:
        return self.covered == self.total

    def uncovered_pairs(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u, v in non_edges(self.host)
            if not self.covered_with[u] >> v & 1
        ]


def build_theta1_cover(host: Graph, ps: ParamSet, t: int, seed: int) -> Cover:
    """t independent greedy runs; the final sets form the family."""
    if t < 1:
        raise ValueError("t must be >= 1")
    check_host_n(ps, host)
    sets = [
        VertexSet(host.n, sample_independent_set(host, ps.k, row))
        for row in _rng.trial_rows(seed, _rng.COVER_FLAT, 0, t, ps.k)
    ]
    return Cover(sets=sets, host_n=host.n)


def build_theta1_adaptive(
    host: Graph, ps: ParamSet, seed: int, max_t: int | None = None
) -> tuple[Cover, int]:
    """Add runs until every non-edge is covered; returns (cover, run count).

    max_t defaults to the t_theta1 budget formula.  Hitting max_t with pairs
    still uncovered returns the partial cover; verify_cover exposes the gap.
    """
    check_host_n(ps, host)
    if max_t is None:
        max_t = bound_formulas(ps)["t_theta1"]
    if max_t < 1:
        raise ValueError("max_t must be >= 1")
    tracker = _CoverageTracker(host)
    sets: list[VertexSet] = []
    rows = _rng.trial_rows(seed, _rng.COVER_FLAT, 0, max_t, ps.k)
    while len(sets) < max_t and not tracker.complete:
        mask = sample_independent_set(host, ps.k, next(rows))
        sets.append(VertexSet(host.n, mask))
        tracker.add(mask)
    return Cover(sets=sets, host_n=host.n), len(sets)


def _partition(host: Graph, k: int, rows: Iterable[np.ndarray]) -> list[VertexSet]:
    """Disjointify one partition's runs, one run per row of uniforms."""
    cells = []
    union = 0
    for row in rows:
        mask = sample_independent_set(host, k, row)
        cell = mask & ~union
        union |= mask
        if cell:
            cells.append(VertexSet(host.n, cell))
    return cells


def build_pdim_cover(
    host: Graph, ps: ParamSet, t: int, seed: int, s: int | None = None
) -> PartitionCover:
    """t partitions of s disjoined runs (s_pdim by default); empty cells dropped."""
    if s is None:
        s = bound_formulas(ps)["s_pdim"]
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    check_host_n(ps, host)
    rows = _rng.trial_rows(seed, _rng.COVER_PART, 0, s * t, ps.k)
    return PartitionCover(
        partitions=[_partition(host, ps.k, islice(rows, s)) for _ in range(t)],
        host_n=host.n,
    )


def build_pdim_adaptive(
    host: Graph,
    ps: ParamSet,
    seed: int,
    s: int | None = None,
    max_t: int | None = None,
) -> tuple[PartitionCover, int]:
    """Add partitions until every non-edge sits inside some cell.

    s defaults to the s_pdim formula; max_t defaults to 100x the t_pdim
    budget at unit multiplier.  The count returned is the number of
    partitions used; count * k / (n log n) is the empirical multiplier.
    """
    check_host_n(ps, host)
    formulas = bound_formulas(ps)
    if s is None:
        s = formulas["s_pdim"]
    if max_t is None:
        max_t = 100 * formulas["t_pdim"]
    if s < 1 or max_t < 1:
        raise ValueError("s and max_t must be >= 1")
    tracker = _CoverageTracker(host)
    partitions: list[list[VertexSet]] = []
    rows = _rng.trial_rows(seed, _rng.COVER_PART, 0, s * max_t, ps.k)
    while len(partitions) < max_t and not tracker.complete:
        cells = _partition(host, ps.k, islice(rows, s))
        partitions.append(cells)
        for cell in cells:
            tracker.add(cell.members)
    return PartitionCover(partitions=partitions, host_n=host.n), len(partitions)


def verify_cover(
    host: Graph,
    cover: Cover | PartitionCover,
    ps: ParamSet | None = None,
    adaptive_count: int | None = None,
) -> CoverReport:
    """Re-check structure and coverage of a cover object from scratch.

    Raises CoverStructureError naming the offender if any set spans an edge
    or two cells of one partition intersect (checks and messages in the
    module docstring); otherwise reports coverage.  bound_comparison is
    filled only when ps is given.
    """
    if cover.host_n != host.n:
        raise ValueError("cover is for a different host size")

    if isinstance(cover, PartitionCover):
        for i, part in enumerate(cover.partitions):
            union = 0
            for j, vs in enumerate(part):
                overlap = union & vs.members
                if overlap:
                    w = next(bits(overlap))
                    raise CoverStructureError(
                        f"partition {i}: set {j} shares vertex {w} "
                        f"with an earlier set"
                    )
                union |= vs.members
        groups = ((f"partition {i} ", part) for i, part in enumerate(cover.partitions))
    else:
        groups = [("", cover.sets)]

    tracker = _CoverageTracker(host)
    total_sets = 0
    for prefix, part in groups:
        for j, vs in enumerate(part):
            if vs.n != host.n:
                raise ValueError(f"{prefix}set {j} is for a different host size")
            edge = first_edge_inside(host, vs.members)
            if edge is not None:
                raise CoverStructureError(f"{prefix}set {j} contains edge {edge}")
            tracker.add(vs.members)
        total_sets += len(part)
    uncovered = tracker.uncovered_pairs()
    fraction = 1.0 if tracker.total == 0 else tracker.covered / tracker.total

    comparison = None
    if ps is not None:
        formulas = bound_formulas(ps)
        comparison = {
            "t_formula": formulas["t_theta1"],
            "mrss_lower": formulas["mrss_lower"],
            "adaptive_count": adaptive_count,
        }
    return CoverReport(
        total_sets=total_sets,
        uncovered=uncovered,
        covered_fraction=fraction,
        bound_comparison=comparison,
    )
