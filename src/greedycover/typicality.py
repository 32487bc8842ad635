"""Pseudorandomness checks for a host graph against its parameter set.

Three predicates, each with a quantitative margin:

* degrees within (1 +/- f0/2) pn, exhaustive;
* pairwise codegrees at most delta2, exhaustive up to 20000 vertices and
  sampled (flagged) beyond;
* common non-neighbourhood sizes within (1 +/- f_s) (1-p)^s n for subsets
  of each size up to a cap, sampled: half uniform subsets, half prefixes
  of fresh greedy runs, since prefixes are the sets the process actually
  conditions on.

Margins report the worst consumed-slack fraction even when a check passes:
at desk scale the f-intervals are often wider than the quantity itself, and
the margin says by how much.  `strict_factor` shrinks every slack
(f0, f_s, delta2) by a constant to turn vacuous passes into real ones.

Working memory beyond the host's own packed rows is bounded: the codegree
scan ANDs at most P3_CHUNK_BYTES of rows per operand at a time, whatever n
is, and P1 keeps each tested subset as one n-bit mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, common_non_neighbourhood
from .params import ParamSet, check_host_n, error_f
from .process import run_with_generator

P3_EXHAUSTIVE_LIMIT = 20000
P3_PAIR_SAMPLE = 2_000_000
# Bytes of packed rows one P3 step ANDs per operand (512 rows at n = 2000).
P3_CHUNK_BYTES = 1 << 17


class P1Violation(NamedTuple):
    S: list[int]
    observed: int
    interval: tuple[float, float]


class P2Violation(NamedTuple):
    v: int
    degree: int
    interval: tuple[float, float]


class P3Violation(NamedTuple):
    u: int
    v: int
    codegree: int


@dataclass
class P1Fragment:
    """Sampled non-neighbourhood check; `samples` keeps every (S, observed).

    Each tested S is kept as the `VertexSet` the check built, one n-bit mask,
    so the retained evidence is about n/8 bytes a subset whatever its size.
    """

    subsets_tested: int
    max_size_tested: int
    violations: list[P1Violation]
    margin_min: float | None
    samples: list[tuple[VertexSet, int]] = field(repr=False)
    mode: str = "sampled"


@dataclass
class P2Fragment:
    violations: list[P2Violation]
    margin_min: float


@dataclass
class P3Fragment:
    violations: list[P3Violation]
    max_codegree: int
    delta2: float
    pairs_tested: int
    mode: str = "exhaustive"


@dataclass
class ETableRow:
    """Expected |N^c| at size s and the growth threshold it must clear."""

    s: int
    mu_s: float
    e_s: float
    threshold: float
    threshold_ok: bool


@dataclass
class TypicalityReport:
    p1: P1Fragment
    p2: P2Fragment
    p3: P3Fragment
    typical: bool
    e_table: list[ETableRow]
    strict_factor: float


def _check_strict_factor(strict_factor: float) -> None:
    if not 0 < strict_factor <= 1:
        raise ValueError("strict_factor must be in (0, 1]")


def check_p2(g: Graph, ps: ParamSet, strict_factor: float = 1.0) -> P2Fragment:
    """Exhaustive degree check: |d(v) - pn| <= (f0/2) pn for every v."""
    _check_strict_factor(strict_factor)
    check_host_n(ps, g)
    pn = ps.p * ps.n
    slack = strict_factor * ps.f0 / 2 * pn
    lo, hi = pn - slack, pn + slack
    degs = g.degree_array()
    dev = np.abs(degs - pn)
    bad = np.nonzero(dev > slack)[0]
    violations = [P2Violation(int(v), int(degs[v]), (lo, hi)) for v in bad]
    margin = float(dev.max() / slack) if g.n else 0.0
    return P2Fragment(violations=violations, margin_min=margin)


def check_p3(
    g: Graph,
    ps: ParamSet,
    strict_factor: float = 1.0,
    seed: int = 0,
) -> P3Fragment:
    """Codegree check codeg(u,v) <= delta2 over unordered pairs.

    Exhaustive through n = 20000; above that a seeded sample of
    P3_PAIR_SAMPLE pairs is scanned and the fragment is flagged "sampled".
    Either way each step ANDs at most P3_CHUNK_BYTES of packed rows per
    operand, so beyond the host's own rows the working memory is a few
    P3_CHUNK_BYTES (plus, sampled, the drawn pair indices).
    """
    _check_strict_factor(strict_factor)
    check_host_n(ps, g)
    cap = strict_factor * ps.delta2
    violations: list[P3Violation] = []
    max_codeg = 0

    def fold(anded: np.ndarray, pair) -> None:
        # one slab of ANDed row pairs; pair(off) names the pair at an offset
        # whose codegree exceeds the cap.  int32 sums hold any codegree and
        # reduce faster than int64 ones
        nonlocal max_codeg
        counts = np.bitwise_count(anded).sum(axis=1, dtype=np.int32)
        top = int(counts.max())
        max_codeg = max(max_codeg, top)
        if top > cap:
            for off in np.nonzero(counts > cap)[0]:
                violations.append(P3Violation(*pair(int(off)), int(counts[off])))

    # the host's own word-aligned rows, popcounted a word at a time
    words = g.packed_words()
    slab = max(P3_CHUNK_BYTES // words[0].nbytes, 1)

    if g.n <= P3_EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        pairs = g.n * (g.n - 1) // 2
        for u in range(g.n - 1):
            row = words[u]
            # v ascending slab by slab, so violations come in (u, v) order
            for a in range(u + 1, g.n, slab):
                fold(row & words[a : a + slab], lambda off: (u, a + off))
    else:
        mode = "sampled"
        gen = _rng.stream(seed, _rng.P3_SAMPLE)
        pairs = P3_PAIR_SAMPLE
        us = gen.integers(0, g.n, size=pairs)
        vs = gen.integers(0, g.n - 1, size=pairs)
        vs += vs >= us  # uniform over ordered pairs, u != v
        for a in range(0, pairs, slab):
            cu, cv = us[a : a + slab], vs[a : a + slab]
            fold(
                words[cu] & words[cv],
                lambda off: sorted((int(cu[off]), int(cv[off]))),
            )

    return P3Fragment(
        violations=violations,
        max_codegree=max_codeg,
        delta2=cap,
        pairs_tested=pairs,
        mode=mode,
    )


def e_table(ps: ParamSet, max_size: int) -> list[ETableRow]:
    """Rows (mu_s, E_s, growth threshold 4 s log n) for s = 1..max_size."""
    rows = []
    for s in range(1, max_size + 1):
        shrink = (1 - ps.p) ** s
        mu = shrink * ps.n
        e_s = (ps.n - s) * shrink
        thr = 4 * s * ps.log_n
        rows.append(
            ETableRow(s=s, mu_s=mu, e_s=e_s, threshold=thr, threshold_ok=e_s >= thr)
        )
    return rows


def check_p1(
    g: Graph,
    ps: ParamSet,
    budget: int = 20,
    max_size: int | None = None,
    seed: int = 0,
    strict_factor: float = 1.0,
) -> P1Fragment:
    """Sampled non-neighbourhood check over sizes 1..max_size (default k).

    Per size: ceil(budget/2) uniform subsets from stream (seed, SUBSET, s)
    and one size-s prefix from each of floor(budget/2) greedy runs driven
    by streams (seed, PREFIX, r).  Runs that exhaust early contribute no
    prefixes beyond their length.
    """
    _check_strict_factor(strict_factor)
    check_host_n(ps, g)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_size is None:
        max_size = ps.k
    if not 1 <= max_size <= g.n:
        raise ValueError("max_size must be in 1..n")

    n_uniform = (budget + 1) // 2
    n_prefix = budget // 2
    orders = [
        run_with_generator(g, ps, _rng.stream(seed, _rng.PREFIX, r)).order
        for r in range(n_prefix)
    ]

    samples: list[tuple[VertexSet, int]] = []
    violations: list[P1Violation] = []
    worst = 0.0
    tested = 0

    def consider(subset: VertexSet) -> None:
        nonlocal worst, tested
        s = len(subset)
        obs = common_non_neighbourhood(g, subset).size
        mu = (1 - ps.p) ** s * ps.n
        slack = strict_factor * error_f(ps, s) * mu
        lo, hi = mu - slack, mu + slack
        tested += 1
        samples.append((subset, obs))
        worst = max(worst, abs(obs - mu) / slack)
        if not lo <= obs <= hi:
            violations.append(P1Violation(subset.to_list(), obs, (lo, hi)))

    for s in range(1, max_size + 1):
        gen = _rng.stream(seed, _rng.SUBSET, s)
        for _ in range(n_uniform):
            subset = gen.choice(g.n, size=s)
            consider(VertexSet.from_iterable(g.n, subset))
        for order in orders:
            if len(order) >= s:
                consider(VertexSet.from_iterable(g.n, order[:s]))

    return P1Fragment(
        subsets_tested=tested,
        max_size_tested=max_size,
        violations=violations,
        margin_min=worst if tested else None,
        samples=samples,
    )


def is_typical(
    g: Graph,
    ps: ParamSet,
    budget: int = 20,
    seed: int = 0,
    strict_factor: float = 1.0,
    max_size: int | None = None,
) -> TypicalityReport:
    """Conjunction of the three checks plus the expected-size table.

    P1 is sampled (certifies tested subsets only, flagged in the fragment);
    P2 is exhaustive; P3 is exhaustive up to 20000 vertices.
    """
    p1 = check_p1(
        g, ps, budget=budget, max_size=max_size, seed=seed, strict_factor=strict_factor
    )
    p2 = check_p2(g, ps, strict_factor=strict_factor)
    p3 = check_p3(g, ps, strict_factor=strict_factor, seed=seed)
    typical = not (p1.violations or p2.violations or p3.violations)
    return TypicalityReport(
        p1=p1,
        p2=p2,
        p3=p3,
        typical=typical,
        e_table=e_table(ps, p1.max_size_tested),
        strict_factor=strict_factor,
    )
