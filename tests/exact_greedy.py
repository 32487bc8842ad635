"""Exact inclusion law of the greedy process on a small host.

Each step picks a uniformly random active vertex and drops its closed
neighbourhood from the active set; the process stops after k picks or when
nothing is active.  What is still to come depends only on (active mask,
steps left), so the law is a recursion over those states, memoised.  It is
the value oracle for the membership estimator: exact in floats, and cheap
on hosts of up to about twenty vertices.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from greedycover.graph import Graph, bits


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
