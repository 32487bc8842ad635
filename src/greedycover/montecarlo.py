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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, complete_bipartite, is_independent, non_edges
from .params import ParamSet, error_f, expected_degree
from .process import ProcessRun, sample_independent_set

PAIR_SAMPLE_DEFAULT = 200
MIN_CELL_TRIALS = 100
REJECTION_CAP = 1_000_000
ENUM_CAP = 4_000_000


def _mask_bits(mask: int, n: int) -> np.ndarray:
    """0/1 uint8 vector of length n for an int bit mask."""
    w = max((n + 7) // 8, 1)
    return np.unpackbits(
        np.frombuffer(mask.to_bytes(w, "little"), dtype=np.uint8),
        count=n,
        bitorder="little",
    )


def sample_non_edges(host: Graph, count: int, seed: int) -> list[tuple[int, int]]:
    """Up to `count` distinct non-edges, uniform without replacement.

    Hosts with at most `count` non-edges contribute all of them.
    """
    total = sum(
        ((~host.row(u)) & (host.full_mask >> (u + 1) << (u + 1))).bit_count()
        for u in range(host.n)
    )
    if total <= count:
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
    pairs: list[tuple[int, int]]
    pair_count: list[int]
    pair_freq: list[float]
    ci_vertex: list[float]
    ci_pair: list[float]
    sum_sizes: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "predicted_vertex": self.predicted_vertex,
            "predicted_pair": self.predicted_pair,
            "per_vertex_count": self.per_vertex_count,
            "per_vertex_freq": self.per_vertex_freq,
            "pair_freq": [
                {"u": u, "v": v, "count": c, "freq": f, "ci_radius": r}
                for (u, v), c, f, r in zip(
                    self.pairs, self.pair_count, self.pair_freq, self.ci_pair
                )
            ],
            "ci_vertex": self.ci_vertex,
            "sum_sizes": self.sum_sizes,
        }


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
        bits = _mask_bits(mask, n)
        vcount += bits
        if len(us):
            pcount += bits[us] & bits[vs]
        sizes += mask.bit_count()
    return vcount, pcount, sizes


def _membership_chunk_star(args: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    return _membership_chunk(*args)


_MEMBERSHIP_CHUNK = 4096


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    pairs = sample_non_edges(host, pair_sample, seed)
    us = np.array([u for u, _ in pairs], dtype=np.intp)
    vs = np.array([v for _, v in pairs], dtype=np.intp)

    bounds = [
        (s, min(s + _MEMBERSHIP_CHUNK, trials))
        for s in range(0, trials, _MEMBERSHIP_CHUNK)
    ]
    if threads > 1 and len(bounds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    _membership_chunk_star,
                    [(host, ps.k, seed, us, vs, a, b) for a, b in bounds],
                )
            )
    else:
        parts = [_membership_chunk(host, ps.k, seed, us, vs, a, b) for a, b in bounds]

    vcount = np.zeros(host.n, dtype=np.int64)
    pcount = np.zeros(len(pairs), dtype=np.int64)
    sizes = 0
    for vc, pc, sz in parts:
        vcount += vc
        pcount += pc
        sizes += sz

    vfreq = vcount / trials
    pfreq = pcount / trials
    return EstimateReport(
        trials=trials,
        predicted_vertex=ps.k / ps.n,
        predicted_pair=(ps.k / ps.n) ** 2,
        per_vertex_count=vcount.tolist(),
        per_vertex_freq=vfreq.tolist(),
        pairs=pairs,
        pair_count=pcount.tolist(),
        pair_freq=pfreq.tolist(),
        ci_vertex=(3 * np.sqrt(vfreq * (1 - vfreq) / trials)).tolist(),
        ci_pair=(3 * np.sqrt(pfreq * (1 - pfreq) / trials)).tolist(),
        sum_sizes=sizes,
    )


@dataclass
class ConditionalEstimate:
    """Per-step survival of the two-vertex viability chain.

    counts[t] is the number of trials satisfying the event after step t
    (counts[0] = trials); freq_chain[t-1] is the step-t conditional
    frequency, None where fewer than 100 trials survived conditioning.
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

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "u": self.u,
            "v": self.v,
            "trials": self.trials,
            "path": self.path,
            "counts": self.counts,
            "freq_chain": self.freq_chain,
            "insufficient": self.insufficient,
            "predictions": self.predictions,
            "joint_freq": self.joint_freq,
            "predicted_joint": self.predicted_joint,
        }


def _envelope_vacuous_through(host: Graph, ps: ParamSet, steps: int) -> bool:
    """True when no degree can leave the envelope in steps 1..steps.

    Exact precheck: the lower rail must sit at or below 0 and the upper
    rail at or above the largest host degree, for every step.  Induced
    degrees only shrink, so host degrees bound them all.
    """
    max_deg = max(host.degrees(), default=0)
    for t in range(1, steps + 1):
        d_t = expected_degree(ps, t)
        f_t = error_f(ps, t)
        if (1 - f_t) * d_t > 0 or (1 + f_t) * d_t < max_deg:
            return False
    return True


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


def _chain_trial_light(
    host: Graph, draws: np.ndarray, i: int, j: int, u: int, v: int
) -> int:
    """Steps survived by the viability chain in one trial (0..j)."""
    n = host.n
    active = host.full_mask
    ids = list(range(n))
    pos = list(range(n))
    for t in range(1, j + 1):
        na = len(ids)
        if na == 0:
            return t - 1
        w = ids[min(int(draws[t - 1] * na), na - 1)]
        rm = (host.row(w) | (1 << w)) & active
        active &= ~rm
        while rm:
            low = rm & -rm
            x = low.bit_length() - 1
            rm ^= low
            q = pos[x]
            last = ids[-1]
            ids[q] = last
            pos[last] = q
            ids.pop()
            pos[x] = -1
        if t < i:
            if pos[u] < 0 or pos[v] < 0:
                return t - 1
        elif t == i:
            if w != u or pos[v] < 0:
                return t - 1
        elif t < j:
            if pos[v] < 0:
                return t - 1
        else:
            if w != v:
                return t - 1
    return j


def _steps_in_envelope(prun: ProcessRun) -> int:
    """m such that steps 1..m of the run all kept the envelope.

    tau alone is ambiguous: tau == completed_steps means either a clean run
    or a violation at the last step, so the record at step tau decides.
    """
    m = prun.tau
    if m and not prun.records[m - 1].in_envelope:
        m -= 1
    return m


def estimate_conditional_chain(
    host: Graph,
    ps: ParamSet,
    i: int,
    j: int,
    u: int,
    v: int,
    trials: int,
    seed: int,
) -> ConditionalEstimate:
    """Estimate the step-survival chain of the pair (u, v) at steps (i, j).

    The chain event after step t: u and v both active for t < i; u chosen
    at step i and v still active through t < j; v chosen at step j; and no
    envelope violation through t.  When the envelope cannot be violated at
    all (precheck on the host's degree range), trials skip degree tracking
    entirely; otherwise each trial replays a fully recorded run.
    """
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    if not 1 <= i < j <= ps.k:
        raise ValueError("need 1 <= i < j <= k")
    if u == v or not (0 <= u < host.n and 0 <= v < host.n):
        raise ValueError("u, v must be distinct vertices of the host")
    if host.has_edge(u, v):
        raise ValueError("(u, v) must be a non-edge")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    light = _envelope_vacuous_through(host, ps, j)
    survived = np.zeros(j + 1, dtype=np.int64)
    survived[0] = trials

    if light:
        for row in _rng.trial_rows(seed, _rng.CHAIN, 0, trials, j):
            depth = _chain_trial_light(host, row, i, j, u, v)
            survived[1 : depth + 1] += 1
    else:
        from .process import run_with_generator

        for t in range(trials):
            prun = run_with_generator(host, ps, _rng.stream(seed, _rng.CHAIN, t))
            depth = 0
            for step_t in range(1, min(j, _steps_in_envelope(prun)) + 1):
                if step_t < i:
                    ok = prun.sigma[u] > step_t and prun.sigma[v] > step_t
                elif step_t == i:
                    ok = prun.order[i - 1] == u and prun.sigma[v] > step_t
                elif step_t < j:
                    ok = prun.sigma[v] > step_t
                else:
                    ok = prun.order[j - 1] == v
                if not ok:
                    break
                depth = step_t
            survived[1 : depth + 1] += 1

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
    independent set is any subset of a single class.
    """
    n = host.n
    seen = 0
    parts = []
    for v in range(n):
        if seen >> v & 1:
            continue
        # component of v in the complement, grown by closure
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                nxt |= (~host.row(w)) & host.full_mask & ~(1 << w)
            frontier = nxt & ~comp
            comp |= frontier
        # the component must be a clique in the complement: every member
        # non-adjacent (in host) to every other member
        mm = comp
        while mm:
            low = mm & -mm
            w = low.bit_length() - 1
            mm ^= low
            if host.row(w) & comp:
                return None
        seen |= comp
        parts.append(VertexSet(n, comp).to_list())
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
            subset = gen.choice(host.n, size=k, replace=False)
            vs = VertexSet.from_iterable(host.n, (int(x) for x in subset))
            if is_independent(host, vs):
                return vs
        raise ValueError("rejection infeasible after 1e6 attempts; try mode='exact'")
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class BipartiteComparison:
    """Uniform vs greedy pair probabilities on a two-class host.

    The pair lives in the size-a class.  Exact values are Fractions; the
    Monte Carlo column estimates the greedy value independently.
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

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "k": self.k,
            "trials": self.trials,
            "uniform_exact": str(self.uniform_exact),
            "uniform_exact_float": float(self.uniform_exact),
            "greedy_exact": str(self.greedy_exact),
            "greedy_exact_float": float(self.greedy_exact),
            "ratio_exact": str(self.ratio_exact),
            "ratio_exact_float": float(self.ratio_exact),
            "greedy_estimate": self.greedy_estimate,
            "estimate_sigma": self.estimate_sigma,
            "ratio_estimate": self.ratio_estimate,
        }


def bipartite_comparison(
    a: int, b: int, k: int, trials: int, seed: int
) -> BipartiteComparison:
    """Probability that two fixed same-class vertices land in the output.

    Uniform reference: a k-set drawn uniformly among all independent
    k-sets (each class contributes its k-subsets).  Greedy: the process
    commits to the first vertex's class and is then uniform inside it, so
    Pr = (a/(a+b)) * k(k-1)/(a(a-1)) for a pair in the size-a class.
    """
    if not (a >= k >= 2):
        raise ValueError("need a >= k >= 2")
    if b < 1:
        raise ValueError("need b >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    uniform = Fraction(math.comb(a - 2, k - 2), math.comb(a, k) + math.comb(b, k))
    greedy = Fraction(a, a + b) * Fraction(k * (k - 1), a * (a - 1))

    host = complete_bipartite(a, b)
    hits = 0
    for row in _rng.trial_rows(seed, _rng.BIPARTITE, 0, trials, k):
        mask = sample_independent_set(host, k, row)
        if mask & 3 == 3:  # vertices 0 and 1, both in the size-a class
            hits += 1
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
