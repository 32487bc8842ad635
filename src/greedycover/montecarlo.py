"""Monte Carlo estimators for membership and step probabilities.

Membership frequencies target k/n per vertex and (k/n)^2 per non-edge pair;
the conditional chain estimator follows one (u, v) pair through the events
"still viable for being chosen at steps i and j" and reports per-step
survival frequencies next to their predicted values.  Exact reference
distributions (uniform independent k-set, the two-sided bipartite example)
use integer combinatorics, with Fractions where exactness is the point.

Trial t of an estimator consumes exactly the stream (seed, domain, t) for
its own domain, so any single trial can be reproduced in isolation and
thread count cannot affect results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, bits, complete_bipartite, is_independent
from .graph import mask_bits, non_edge_count, non_edges, vertex_id
from .params import ParamSet, check_host_n, envelope, error_f
from .process import _take, chunked_map, sample_independent_set

PAIR_SAMPLE_DEFAULT = 200
MIN_CELL_TRIALS = 100
REJECTION_CAP = 1_000_000
ENUM_CAP = 4_000_000


def sample_non_edges(host: Graph, count: int, seed: int) -> list[tuple[int, int]]:
    """Up to `count` distinct non-edges, uniform without replacement.

    Hosts with at most `count` non-edges contribute all of them.
    """
    if non_edge_count(host) <= count:
        return list(non_edges(host))
    gen = _rng.stream(seed, _rng.PAIRS)
    picked: set[tuple[int, int]] = set()
    while len(picked) < count:
        u = int(gen.integers(0, host.n))
        v = int(gen.integers(0, host.n - 1))
        if v >= u:
            v += 1
        if not host.has_edge(u, v):
            picked.add((min(u, v), max(u, v)))
    return sorted(picked)


class PairFreq(NamedTuple):
    """One sampled non-edge (u < v): its count, frequency and 3-sigma radius."""

    u: int
    v: int
    count: int
    freq: float
    ci_radius: float


@dataclass
class EstimateReport:
    """Membership frequencies against the k/n and (k/n)^2 targets.

    Counts are kept alongside frequencies so the exact identities
    (sum of vertex counts = sum of set sizes; pair count <= either
    endpoint count) survive serialization round trips.
    """

    trials: int
    predicted_vertex: float
    predicted_pair: float
    per_vertex_count: list[int]
    per_vertex_freq: list[float]
    pair_freq: list[PairFreq]
    ci_vertex: list[float]
    sum_sizes: int


def _membership_chunk(
    host: Graph,
    k: int,
    seed: int,
    us: np.ndarray,
    vs: np.ndarray,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    n = host.n
    vcount = np.zeros(n, dtype=np.int64)
    pcount = np.zeros(len(us), dtype=np.int64)
    sizes = 0
    for row in _rng.trial_rows(seed, _rng.MEMBERSHIP, start, stop, k):
        mask = sample_independent_set(host, k, row)
        bits = mask_bits(mask, n)
        vcount += bits
        pcount += bits[us] & bits[vs]
        sizes += mask.bit_count()
    return vcount, pcount, sizes


_LIGHT_CHUNK = 4096  # light-kernel trials per chunk


def estimate_membership(
    host: Graph,
    ps: ParamSet,
    trials: int,
    seed: int,
    pair_sample: int = PAIR_SAMPLE_DEFAULT,
    threads: int = 1,
) -> EstimateReport:
    """Count final-set membership per vertex and per sampled non-edge.

    Trial t uses stream (seed, MEMBERSHIP, t); the non-edge sample comes
    from (seed, PAIRS, 0).  Counts merge associatively, so results are
    identical for any thread count.
    """
    check_host_n(ps, host)
    pairs = sample_non_edges(host, pair_sample, seed)
    us = np.array([u for u, _ in pairs], dtype=np.intp)
    vs = np.array([v for _, v in pairs], dtype=np.intp)

    args = (host, ps.k, seed, us, vs)
    parts = chunked_map(_membership_chunk, args, trials, _LIGHT_CHUNK, threads)

    vcount, pcount, sizes = map(sum, zip(*parts))

    vfreq = vcount / trials
    pfreq = pcount / trials
    pci = (3 * np.sqrt(pfreq * (1 - pfreq) / trials)).tolist()
    return EstimateReport(
        trials=trials,
        predicted_vertex=ps.k / ps.n,
        predicted_pair=(ps.k / ps.n) ** 2,
        per_vertex_count=vcount.tolist(),
        per_vertex_freq=vfreq.tolist(),
        pair_freq=[
            PairFreq(u, v, c, f, r)
            for (u, v), c, f, r in zip(pairs, pcount.tolist(), pfreq.tolist(), pci)
        ],
        ci_vertex=(3 * np.sqrt(vfreq * (1 - vfreq) / trials)).tolist(),
        sum_sizes=sizes,
    )


@dataclass
class ConditionalEstimate:
    """Per-step survival of the two-vertex viability chain.

    counts[t] is the number of trials satisfying the event after step t
    (counts[0] = trials); freq_chain[t-1] is the step-t conditional
    frequency, None where fewer than 100 trials survived conditioning.
    path is "light" when no envelope rail could bind through step j.
    predictions carry the three-case center value and its error half-width.
    """

    i: int
    j: int
    u: int
    v: int
    trials: int
    path: str
    counts: list[int]
    freq_chain: list[float | None]
    insufficient: list[int]
    predictions: list[dict]
    joint_freq: float
    predicted_joint: float


def _chain_predictions(ps: ParamSet, i: int, j: int) -> list[dict]:
    out = []
    for t in range(1, j + 1):
        f = error_f(ps, t - 1)
        if t == i or t == j:
            center = (1 - ps.p) ** (-t + 1) / ps.n
            band = 3 * f * center
        else:
            mult = 2 if t < i else 1
            center = 1 - mult * ps.p
            band = mult * 3 * f * ps.p
        out.append({"t": t, "center": center, "band": band})
    return out


def _chain_holds(t: int, w: int, pos: list[int], i: int, j: int, u: int, v: int) -> bool:
    """The chain event after step t, from its pick w and `_take`'s pos table."""
    if t < i:
        return pos[u] >= 0 and pos[v] >= 0
    if t == i:
        return w == u and pos[v] >= 0
    if t < j:
        return pos[v] >= 0
    return w == v


def _chain_trial(
    host: Graph, rails: list, draws: np.ndarray, i: int, j: int, u: int, v: int
) -> int:
    """Steps survived by the chain in one trial (0..j).

    rails[t-1] is (the step-t envelope point, the mask of vertices it can
    cut); a step also fails when one of those vertices is active with its
    induced degree outside [lower, upper].
    """
    active = host.full_mask
    ids, pos = host.vertex_ids(), host.vertex_ids()
    # `ids` is never empty at a step: step 1 starts from all n >= 2 vertices,
    # and a chain that held after step t - 1 < j keeps v active
    for t in range(1, j + 1):
        w, removed = _take(host, ids, pos, active, draws[t - 1])
        active &= ~removed
        if not _chain_holds(t, w, pos, i, j, u, v):
            return t - 1
        e, watch = rails[t - 1]
        if not all(
            e.lower <= (host.row(x) & active).bit_count() <= e.upper
            for x in bits(watch & active)
        ):
            return t - 1
    return j


def _chain_chunk(
    host: Graph, rails: list, i: int, j: int, u: int, v: int, seed: int,
    start: int, stop: int,
) -> np.ndarray:
    """survived[t] = trials of the chunk whose chain held through step t >= 1."""
    survived = np.zeros(j + 1, dtype=np.int64)
    for row in _rng.trial_rows(seed, _rng.CHAIN, start, stop, j):
        survived[1 : _chain_trial(host, rails, row, i, j, u, v) + 1] += 1
    return survived


_CHAIN_CHUNK = 1024


def estimate_conditional_chain(
    host: Graph,
    ps: ParamSet,
    i: int,
    j: int,
    u: int,
    v: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> ConditionalEstimate:
    """Estimate the step-survival chain of the pair (u, v) at steps (i, j).

    The chain event after step t: u and v both active for t < i; u chosen
    at step i and v still active through t < j; v chosen at step j; and no
    envelope violation through t.  Each trial walks at most j greedy steps
    and stops at the first one that exhausts the process, breaks the chain
    or leaves the envelope.  `path` is "light" when no rail of steps 1..j
    can bind on this host, so every watch mask is empty.  Trial t reads
    only the first j draws of stream (seed, CHAIN, t).  Per-chunk counts
    are summed, so results are identical for any thread count.
    """
    check_host_n(ps, host)
    if not 1 <= i < j <= ps.k:
        raise ValueError("need 1 <= i < j <= k")
    u, v = vertex_id(host.n, u), vertex_id(host.n, v)
    if u == v:
        raise ValueError("u, v must be distinct vertices of the host")
    if host.has_edge(u, v):
        raise ValueError("(u, v) must be a non-edge")

    # an induced degree lies in [0, host degree], so a rail can cut only the
    # vertices above it in the host, or all of them once lower > 0; when it
    # can cut none at any step, the path is "light"
    degrees = host.degree_array().tolist()
    rails = []
    for t in range(1, j + 1):
        e = envelope(ps, t)
        cut = (x for x, d in enumerate(degrees) if e.lower > 0 or d > e.upper)
        rails.append((e, sum(1 << x for x in cut)))
    light = not any(watch for _, watch in rails)
    args = (host, rails, i, j, u, v, seed)
    survived = sum(chunked_map(_chain_chunk, args, trials, _CHAIN_CHUNK, threads))
    survived[0] = trials

    counts = survived.tolist()
    freq_chain: list[float | None] = []
    insufficient: list[int] = []
    for t in range(1, j + 1):
        if counts[t - 1] < MIN_CELL_TRIALS:
            freq_chain.append(None)
            insufficient.append(t)
        else:
            freq_chain.append(counts[t] / counts[t - 1])
    predictions = _chain_predictions(ps, i, j)
    return ConditionalEstimate(
        i=i,
        j=j,
        u=u,
        v=v,
        trials=trials,
        path="light" if light else "full",
        counts=counts,
        freq_chain=freq_chain,
        insufficient=insufficient,
        predictions=predictions,
        joint_freq=counts[j] / trials,
        predicted_joint=math.prod(p["center"] for p in predictions),
    )


def _complement_clique_parts(host: Graph) -> list[list[int]] | None:
    """Vertex classes if the complement is a disjoint union of cliques.

    Such hosts are exactly the complete multipartite graphs, where an
    independent set is any subset of a single class.  The class of v is
    full & ~row(v), v included; non-adjacency is an equivalence relation
    iff every member of each class has that same class, i.e. v's row.
    """
    seen = 0
    parts = []
    for v in range(host.n):
        if seen >> v & 1:
            continue
        part = host.full_mask & ~host.row(v)
        members = VertexSet(host.n, part).to_list()
        if any(host.row(w) != host.row(v) for w in members):
            return None
        seen |= part
        parts.append(members)
    return parts


def _unrank_combination(items: list[int], k: int, rank: int) -> list[int]:
    """rank-th k-combination of items in lexicographic order."""
    out = []
    a = len(items)
    idx = 0
    for slot in range(k):
        while True:
            below = math.comb(a - idx - 1, k - slot - 1)
            if rank < below:
                out.append(items[idx])
                idx += 1
                break
            rank -= below
            idx += 1
    return out


def _enumerate_independent_ksets(host: Graph, k: int) -> list[int]:
    """All independent k-sets as masks; refuses absurdly large searches."""
    n = host.n
    out: list[int] = []
    work = 0

    def rec(start: int, mask: int, chosen: int, banned: int) -> None:
        nonlocal work
        work += 1
        if work > 5 * ENUM_CAP:
            raise ValueError("exact enumeration too large; host is not desk-scale")
        if chosen == k:
            out.append(mask)
            if len(out) > ENUM_CAP:
                raise ValueError("more than 4e6 independent k-sets; use rejection mode")
            return
        for w in range(start, n):
            if n - w < k - chosen:
                break
            if banned >> w & 1:
                continue
            rec(w + 1, mask | 1 << w, chosen + 1, banned | host.row(w))

    rec(0, 0, 0, 0)
    return out


def uniform_independent_set(
    host: Graph, k: int, seed: int, index: int = 0, mode: str = "exact"
) -> VertexSet:
    """A uniformly random independent k-set of the host.

    Exact mode enumerates (n <= 30) or uses the one-class closed form on
    complete multipartite hosts; rejection mode redraws uniform k-subsets
    until one is independent, capped at 1e6 attempts.  Draw t of a sample
    uses index=t; the same (seed, index) always returns the same set.
    """
    if not 1 <= k <= host.n:
        raise ValueError("k must be in 1..n")
    if mode == "exact":
        rnd = _rng.int_stream(seed, _rng.UNIFORM_SET, index)
        parts = _complement_clique_parts(host)
        if parts is not None:
            total = sum(math.comb(len(part), k) for part in parts)
            if total == 0:
                raise ValueError(f"host has no independent {k}-set")
            rank = rnd.randrange(total)
            for part in parts:
                c = math.comb(len(part), k)
                if rank < c:
                    return VertexSet.from_iterable(
                        host.n, _unrank_combination(part, k, rank)
                    )
                rank -= c
            raise AssertionError("unreachable: rank exhausted the parts")
        if host.n > 30:
            raise ValueError(
                "exact mode needs n <= 30 or a complete multipartite host"
            )
        sets = _enumerate_independent_ksets(host, k)
        if not sets:
            raise ValueError(f"host has no independent {k}-set")
        return VertexSet(host.n, sets[rnd.randrange(len(sets))])
    if mode == "rejection":
        gen = _rng.stream(seed, _rng.UNIFORM_SET, index)
        for _ in range(REJECTION_CAP):
            subset = gen.choice(host.n, size=k)
            vs = VertexSet.from_iterable(host.n, subset)
            if is_independent(host, vs):
                return vs
        raise ValueError("rejection infeasible after 1e6 attempts; try mode='exact'")
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class BipartiteComparison:
    """Uniform vs greedy pair probabilities on a two-class host.

    The pair lives in the size-a class.  Exact values are Fractions, each
    with its float alongside; the Monte Carlo column estimates the greedy
    value independently.
    """

    a: int
    b: int
    k: int
    trials: int
    uniform_exact: Fraction
    greedy_exact: Fraction
    ratio_exact: Fraction
    greedy_estimate: float
    estimate_sigma: float
    ratio_estimate: float
    uniform_exact_float: float = field(init=False)
    greedy_exact_float: float = field(init=False)
    ratio_exact_float: float = field(init=False)

    def __post_init__(self) -> None:
        self.uniform_exact_float = float(self.uniform_exact)
        self.greedy_exact_float = float(self.greedy_exact)
        self.ratio_exact_float = float(self.ratio_exact)


def _bipartite_chunk(host: Graph, k: int, seed: int, start: int, stop: int) -> int:
    hits = 0
    for row in _rng.trial_rows(seed, _rng.BIPARTITE, start, stop, k):
        mask = sample_independent_set(host, k, row)
        if mask & 3 == 3:  # vertices 0 and 1, both in the size-a class
            hits += 1
    return hits


def bipartite_comparison(
    a: int, b: int, k: int, trials: int, seed: int, threads: int = 1
) -> BipartiteComparison:
    """Probability that two fixed same-class vertices land in the output.

    Uniform reference: a k-set drawn uniformly among all independent
    k-sets (each class contributes its k-subsets).  Greedy: the process
    commits to the first vertex's class and is then uniform inside it, so
    Pr = (a/(a+b)) * k(k-1)/(a(a-1)) for a pair in the size-a class.
    Per-chunk hit counts are summed, so the estimate is identical for any
    thread count.
    """
    if not (a >= k >= 2):
        raise ValueError("need a >= k >= 2")
    if b < 1:
        raise ValueError("need b >= 1")

    uniform = Fraction(math.comb(a - 2, k - 2), math.comb(a, k) + math.comb(b, k))
    greedy = Fraction(a, a + b) * Fraction(k * (k - 1), a * (a - 1))

    host = complete_bipartite(a, b)
    args = (host, k, seed)
    hits = sum(chunked_map(_bipartite_chunk, args, trials, _LIGHT_CHUNK, threads))
    est = hits / trials
    p = float(greedy)
    sigma = math.sqrt(p * (1 - p) / trials)
    return BipartiteComparison(
        a=a,
        b=b,
        k=k,
        trials=trials,
        uniform_exact=uniform,
        greedy_exact=greedy,
        ratio_exact=greedy / uniform,
        greedy_estimate=est,
        estimate_sigma=sigma,
        ratio_estimate=est / float(uniform),
    )
