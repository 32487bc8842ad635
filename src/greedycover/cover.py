"""Non-edge covers built from independent greedy-process runs.

Two constructions: a flat family of independent sets whose internal pairs
cover all non-edges of the host, and a family of partitions obtained by
drawing s runs per partition and disjointifying them in draw order (each
cell keeps only the vertices unseen by earlier draws of its partition).

Fixed-budget and adaptive builders share stream indexing, so the adaptive
result is always the prefix of the fixed-budget result: run r of the flat
family uses stream (seed, COVER_FLAT, r), and draw j of partition i uses
(seed, COVER_PART, i*s + j).

`verify_cover` re-checks everything from scratch: set independence,
within-partition disjointness (raising on structural violations, naming
the offender), and exhaustive non-edge coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, non_edges
from .params import ParamSet, bound_formulas
from .process import sample_independent_set


class CoverStructureError(ValueError):
    """A cover object violates its structural invariants."""


@dataclass
class Cover:
    """Flat family of independent sets over a host on host_n vertices."""

    sets: list[VertexSet]
    host_n: int

    def to_dict(self) -> dict:
        return {
            "host_n": self.host_n,
            "sets": [s.to_list() for s in self.sets],
        }


@dataclass
class PartitionCover:
    """Family of partitions, each a list of disjoint independent sets."""

    partitions: list[list[VertexSet]]
    host_n: int

    @property
    def singleton_count(self) -> int:
        """Cells of size one: kept for disjointness, cover no pair."""
        return sum(1 for part in self.partitions for s in part if s.size == 1)

    def to_dict(self) -> dict:
        return {
            "host_n": self.host_n,
            "partitions": [[s.to_list() for s in part] for part in self.partitions],
            "singleton_count": self.singleton_count,
        }


@dataclass
class CoverReport:
    total_sets: int
    uncovered: list[tuple[int, int]]
    covered_fraction: float
    bound_comparison: dict | None

    def to_dict(self) -> dict:
        return {
            "total_sets": self.total_sets,
            "uncovered": [list(p) for p in self.uncovered],
            "covered_fraction": self.covered_fraction,
            "bound_comparison": self.bound_comparison,
        }


class _CoverageTracker:
    """Counts distinct non-edges covered by the pair-sets of added sets."""

    def __init__(self, host: Graph):
        self.host = host
        self.covered_with = [0] * host.n
        self.covered = 0
        self.total = sum(
            ((~host.row(u)) & (host.full_mask >> (u + 1) << (u + 1))).bit_count()
            for u in range(host.n)
        )

    def add(self, mask: int) -> int:
        """Mark all pairs inside `mask` covered; returns newly covered count."""
        delta = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            new = mask & ~self.covered_with[v] & ~low
            delta += new.bit_count()
            self.covered_with[v] |= mask & ~low
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
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
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
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    if max_t is None:
        max_t = bound_formulas(ps)["t_theta1"]
    if max_t < 1:
        raise ValueError("max_t must be >= 1")
    tracker = _CoverageTracker(host)
    sets: list[VertexSet] = []
    if tracker.total == 0:
        return Cover(sets=sets, host_n=host.n), 0
    for row in _rng.trial_rows(seed, _rng.COVER_FLAT, 0, max_t, ps.k):
        mask = sample_independent_set(host, ps.k, row)
        sets.append(VertexSet(host.n, mask))
        tracker.add(mask)
        if tracker.complete:
            break
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
    host: Graph, ps: ParamSet, s: int, t: int, seed: int
) -> PartitionCover:
    """t partitions of s disjoined runs each; empty cells dropped."""
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
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
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    formulas = bound_formulas(ps)
    if s is None:
        s = formulas["s_pdim"]
    if max_t is None:
        max_t = 100 * formulas["t_pdim"]
    if s < 1 or max_t < 1:
        raise ValueError("s and max_t must be >= 1")
    tracker = _CoverageTracker(host)
    partitions: list[list[VertexSet]] = []
    if tracker.total == 0:
        return PartitionCover(partitions=partitions, host_n=host.n), 0
    rows = _rng.trial_rows(seed, _rng.COVER_PART, 0, s * max_t, ps.k)
    for _ in range(max_t):
        cells = _partition(host, ps.k, islice(rows, s))
        partitions.append(cells)
        for cell in cells:
            tracker.add(cell.members)
        if tracker.complete:
            break
    return PartitionCover(partitions=partitions, host_n=host.n), len(partitions)


def _first_edge_inside(host: Graph, mask: int) -> tuple[int, int] | None:
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        inside = host.row(v) & mask
        if inside:
            u = (inside & -inside).bit_length() - 1
            return tuple(sorted((v, u)))
    return None


def verify_cover(
    host: Graph,
    cover: Cover | PartitionCover,
    ps: ParamSet | None = None,
    adaptive_count: int | None = None,
) -> CoverReport:
    """Re-check structure and coverage of a cover object from scratch.

    Raises CoverStructureError naming the offender if any set spans an edge
    or two cells of one partition intersect; otherwise reports coverage.
    bound_comparison is filled only when ps is given.
    """
    if cover.host_n != host.n:
        raise ValueError("cover is for a different host size")

    if isinstance(cover, PartitionCover):
        labeled = [
            (f"partition {i} set {j}", vs)
            for i, part in enumerate(cover.partitions)
            for j, vs in enumerate(part)
        ]
        for i, part in enumerate(cover.partitions):
            union = 0
            for j, vs in enumerate(part):
                overlap = union & vs.members
                if overlap:
                    w = (overlap & -overlap).bit_length() - 1
                    raise CoverStructureError(
                        f"partition {i}: set {j} shares vertex {w} "
                        f"with an earlier set"
                    )
                union |= vs.members
    else:
        labeled = [(f"set {idx}", vs) for idx, vs in enumerate(cover.sets)]

    for name, vs in labeled:
        if vs.n != host.n:
            raise ValueError(f"{name} is for a different host size")
        edge = _first_edge_inside(host, vs.members)
        if edge is not None:
            raise CoverStructureError(f"{name} contains edge {edge}")

    tracker = _CoverageTracker(host)
    for _, vs in labeled:
        tracker.add(vs.members)
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
        total_sets=len(labeled),
        uncovered=uncovered,
        covered_fraction=fraction,
        bound_comparison=comparison,
    )
