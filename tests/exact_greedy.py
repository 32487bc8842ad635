"""Exact laws of the greedy process on a small host.

Each step picks a uniformly random active vertex and drops its closed
neighbourhood from the active set; the process stops after k picks or when
nothing is active.  What is still to come depends only on (active mask,
steps taken or left), so each law is a recursion over those states,
memoised.  `inclusion_law` is the value oracle for the membership
estimator (exact in floats, cheap on hosts of up to about twenty
vertices); `chain_law` is the one for the conditional-chain estimator
(exact rationals over pick sequences of at most j steps).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

from greedycover.graph import Graph, bits
from greedycover.params import ParamSet, envelope


def inclusion_law(host: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """P(v in I) as an n-vector and P(u, v in I) as an n x n matrix.

    I is the set that k greedy steps choose on `host`; the matrix is
    symmetric with a zero diagonal.
    """
    n = host.n
    closed = [host.row(v) | 1 << v for v in range(n)]

    @cache
    def law(active: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        vertex, pair = np.zeros(n), np.zeros((n, n))
        if steps == 0 or not active:
            return vertex, pair
        picks = list(bits(active))
        for w in picks:
            later, later_pair = law(active & ~closed[w], steps - 1)
            vertex += later
            vertex[w] += 1
            pair += later_pair
            pair[w] += later  # w now, the other one at a later step
            pair[:, w] += later
        return vertex / len(picks), pair / len(picks)

    return law(host.full_mask, k)


def chain_law(
    host: Graph, ps: ParamSet, i: int, j: int, u: int, v: int
) -> list[Fraction]:
    """P(the chain and the envelope hold through step t), for t = 1..j.

    The chain after step t: u and v both active for t < i; u picked at step
    i and v active for i <= t < j; v picked at step j.  The envelope after
    step t: every active vertex has its induced degree within the lower and
    upper rails of `envelope(ps, t)`.  A step on an empty active set fails.
    """
    closed = [host.row(x) | 1 << x for x in range(host.n)]
    rails = [envelope(ps, t) for t in range(1, j + 1)]

    def holds(t: int, w: int, active: int) -> bool:
        if t < i:
            chain = active >> u & 1 and active >> v & 1
        elif t == i:
            chain = w == u and active >> v & 1
        elif t < j:
            chain = active >> v & 1
        else:
            chain = w == v
        e = rails[t - 1]
        return bool(chain) and all(
            e.lower <= (host.row(x) & active).bit_count() <= e.upper
            for x in bits(active)
        )

    @cache
    def law(active: int, t: int) -> list[Fraction]:
        # the event held through step t; P(it holds through t+1, ..., j)
        out = [Fraction(0)] * (j - t)
        if t == j or not active:
            return out
        picks = list(bits(active))
        for w in picks:
            after = active & ~closed[w]
            if holds(t + 1, w, after):
                out[0] += 1
                for s, p in enumerate(law(after, t + 1), start=1):
                    out[s] += p
        return [p / len(picks) for p in out]

    return law(host.full_mask, 0)
