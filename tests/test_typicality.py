"""Typicality checker tests.

P2/P3 are checked against complete brute-force recomputation with Python
sets on small hosts; P1 samples are re-verified by neighbourhood union,
deliberately avoiding the graph-core operator.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from greedycover import rng, typicality
from greedycover.cli import plain
from greedycover.graph import (
    Graph,
    VertexSet,
    complete_bipartite,
    gnp_sample,
    is_independent,
)
from greedycover.params import ParamSet, error_f
from greedycover.typicality import (
    check_p1,
    check_p2,
    check_p3,
    e_table,
    is_typical,
)
from numpy_oracle import numpy_stream

TOL = 1e-12


def star(n):
    return Graph.from_rows([((1 << n) - 2)] + [1] * (n - 1))


def complete(n):
    return Graph.from_rows([((1 << n) - 1) ^ (1 << v) for v in range(n)])


def circulant(n, offsets):
    rows = []
    for v in range(n):
        m = 0
        for d in offsets:
            m |= 1 << ((v + d) % n)
            m |= 1 << ((v - d) % n)
        rows.append(m)
    return Graph.from_rows(rows)


class TestP2:
    def test_regular_graph_margin_zero(self):
        # 10-regular circulant at pn = 10: every degree dead on target
        g = circulant(100, range(1, 6))
        frag = check_p2(g, ParamSet(100, 0.1))
        assert frag.violations == []
        assert frag.margin_min == 0.0

    def test_star_center_violates(self):
        n = 2000
        frag = check_p2(star(n), ParamSet(n, 0.05))
        assert [v for v, _, _ in frag.violations] == [0]
        v, d, (lo, hi) = frag.violations[0]
        assert d == n - 1 and d > hi
        assert frag.margin_min > 1

    def test_gnp_passes_with_margin(self):
        g = gnp_sample(2000, 0.05, seed=5)
        frag = check_p2(g, ParamSet(2000, 0.05))
        assert frag.violations == []
        assert 0 < frag.margin_min < 1

    def test_brute_force_oracle_with_strict_factor(self):
        g = gnp_sample(150, 0.2, seed=2)
        ps = ParamSet(150, 0.2)
        factor = 0.02
        frag = check_p2(g, ps, strict_factor=factor)
        pn = ps.p * ps.n
        slack = factor * ps.f0 / 2 * pn
        want = [v for v in range(150) if abs(g.degree(v) - pn) > slack]
        assert want, "test host must produce violations at this factor"
        assert [v for v, _, _ in frag.violations] == want
        worst = max(abs(g.degree(v) - pn) for v in range(150)) / slack
        assert abs(frag.margin_min - worst) < TOL

    def test_margin_scales_inversely_with_factor(self):
        g = gnp_sample(150, 0.2, seed=2)
        ps = ParamSet(150, 0.2)
        m1 = check_p2(g, ps).margin_min
        m2 = check_p2(g, ps, strict_factor=0.5).margin_min
        assert abs(m2 - 2 * m1) < 1e-9

    def test_factor_validation(self):
        g = gnp_sample(20, 0.2, seed=0)
        with pytest.raises(ValueError):
            check_p2(g, ParamSet(20, 0.2), strict_factor=0.0)
        with pytest.raises(ValueError):
            check_p2(g, ParamSet(20, 0.2), strict_factor=1.5)


class TestP3:
    def test_empty_graph(self):
        g = Graph.from_rows([0] * 50)
        frag = check_p3(g, ParamSet(50, 0.1))
        assert frag.violations == []
        assert frag.max_codegree == 0
        assert frag.pairs_tested == 50 * 49 // 2
        assert frag.mode == "exhaustive"

    def test_bipartite_codegree(self):
        g = complete_bipartite(10, 20)
        ps = ParamSet(30, 0.1)
        frag = check_p3(g, ps)
        # two vertices in the small side share the whole large side
        assert frag.max_codegree == 20
        assert frag.violations == []
        assert frag.delta2 == ps.delta2 > 20

    def test_complete_graph_violates(self):
        n = 2000
        frag = check_p3(complete(n), ParamSet(n, 0.01))
        assert frag.max_codegree == n - 2
        assert len(frag.violations) == n * (n - 1) // 2

    def test_exhaustive_mode_makes_no_copy_of_rows(self):
        for n in (2000, 4000):
            g = gnp_sample(n, 0.05, seed=5)
            g.packed_words()  # the host's own rows are not the check's memory
            tracemalloc.start()
            try:
                frag = check_p3(g, ParamSet(n, 0.05))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert frag.mode == "exhaustive"
            assert frag.pairs_tested == n * (n - 1) // 2
            # one slab's AND, popcounts and sums whatever n is (0.2 MB measured)
            assert peak < 4 * typicality.P3_CHUNK_BYTES

    def test_brute_force_oracle_with_strict_factor(self):
        g = gnp_sample(120, 0.2, seed=7)
        ps = ParamSet(120, 0.2)
        factor = 0.01
        frag = check_p3(g, ps, strict_factor=factor)
        nbr = [set(g.neighbors(v)) for v in range(120)]
        cap = factor * ps.delta2
        want = [
            (u, v, len(nbr[u] & nbr[v]))
            for u in range(120)
            for v in range(u + 1, 120)
            if len(nbr[u] & nbr[v]) > cap
        ]
        assert want, "test host must produce violations at this factor"
        assert sorted(frag.violations) == sorted(want)
        assert frag.max_codegree == max(
            len(nbr[u] & nbr[v]) for u in range(120) for v in range(u + 1, 120)
        )

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    @pytest.mark.parametrize("chunk_bytes", [8, 200])
    def test_exhaustive_slabs_keep_violation_order(self, monkeypatch, n, chunk_bytes):
        # one-row slabs, and slabs that split the rows after u mid-host
        # (25 rows of one word, 12 of two, 8 of three); the cap is the
        # median codegree, so some slabs hold violations and some none
        monkeypatch.setattr(typicality, "P3_CHUNK_BYTES", chunk_bytes)
        g = gnp_sample(n, 0.3, seed=n)
        ps = ParamSet(n, 0.3)
        nbr = [set(g.neighbors(v)) for v in range(n)]
        codeg = [
            (u, v, len(nbr[u] & nbr[v])) for u in range(n) for v in range(u + 1, n)
        ]
        counts = sorted(c for _, _, c in codeg)
        factor = counts[len(counts) // 2] / ps.delta2
        frag = check_p3(g, ps, strict_factor=factor)
        want = [c for c in codeg if c[2] > factor * ps.delta2]
        assert 0 < len(want) < len(codeg)
        assert frag.violations == want
        assert frag.max_codegree == counts[-1]
        assert frag.pairs_tested == len(codeg)

    def test_sampled_mode_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(typicality, "P3_PAIR_SAMPLE", 5000)
        n = 20001
        g = Graph.from_rows([0] * n)
        frag = check_p3(g, ParamSet(n, 0.001))
        assert frag.mode == "sampled"
        assert frag.pairs_tested == 5000
        assert frag.max_codegree == 0 and frag.violations == []


    def test_sampled_mode_matches_oracle_across_chunks(self, monkeypatch):
        # the draws, counts and violation order of the sampled scan, with
        # chunks of a few pairs, against numpy's Generator and set codegrees;
        # the cap is below almost every codegree, so the violation list
        # checks almost every pair
        monkeypatch.setattr(typicality, "P3_EXHAUSTIVE_LIMIT", 50)
        monkeypatch.setattr(typicality, "P3_CHUNK_BYTES", 64)
        monkeypatch.setattr(typicality, "P3_PAIR_SAMPLE", 3001)
        g = gnp_sample(120, 0.3, seed=4)
        ps = ParamSet(120, 0.3)
        factor = 0.001
        frag = check_p3(g, ps, strict_factor=factor, seed=6)
        gen = numpy_stream(6, rng.P3_SAMPLE)
        us = gen.integers(0, 120, size=3001)
        vs = gen.integers(0, 119, size=3001)
        nbr = [set(g.neighbors(v)) for v in range(120)]
        counts = []
        for u, v in zip(us.tolist(), vs.tolist()):
            v += v >= u
            counts.append((min(u, v), max(u, v), len(nbr[u] & nbr[v])))
        want = [c for c in counts if c[2] > factor * ps.delta2]
        assert want, "test host must produce violations at this factor"
        assert frag.mode == "sampled" and frag.pairs_tested == 3001
        assert frag.violations == want
        assert frag.max_codegree == max(c[2] for c in counts)

    def test_sampled_mode_memory_is_bounded(self, monkeypatch):
        # 20000 pairs of 2504-byte rows: gathering both operands at once
        # would take 100 MB; 0.88 MB was measured: the drawn pairs' indices
        # (0.32 MB) and one slab's gathered rows, AND and popcounts
        n = 20001
        monkeypatch.setattr(typicality, "P3_PAIR_SAMPLE", 20000)
        g = complete_bipartite(10000, 10001)
        g.packed_rows()  # the host's own rows are not the check's memory
        tracemalloc.start()
        try:
            frag = check_p3(g, ParamSet(n, 0.5), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frag.mode == "sampled" and frag.pairs_tested == 20000
        assert frag.max_codegree == 10001
        assert peak < 1.1e6  # measured + 25%


class TestP1:
    def test_empty_graph_closed_form(self):
        n = 60
        g = Graph.from_rows([0] * n)
        ps = ParamSet(n, 0.1)
        frag = check_p1(g, ps, budget=6, max_size=5, seed=3)
        for subset, obs in frag.samples:
            assert obs == n - len(subset)

    def test_complete_graph_singleton(self):
        # N^c({v}) is empty in the complete graph; passes only because
        # f_1 > 1 widens the interval through zero at this scale
        g = complete(100)
        ps = ParamSet(100, 0.1)
        frag = check_p1(g, ps, budget=4, max_size=1, seed=0)
        assert all(obs == 0 for _, obs in frag.samples)
        assert error_f(ps, 1) > 1  # slack exceeds the target itself
        assert frag.violations == []
        assert 0 < frag.margin_min <= 1  # vacuous pass, margin quantifies it

    def test_samples_match_neighbourhood_union(self):
        g = gnp_sample(300, 0.1, seed=11)
        ps = ParamSet(300, 0.1)
        frag = check_p1(g, ps, budget=10, seed=4)
        nbr = [set(g.neighbors(v)) for v in range(300)]
        for subset, obs in frag.samples:
            union = set(subset)
            for v in subset:
                union |= nbr[v]
            assert obs == 300 - len(union)

    def test_samples_are_masks_and_violations_their_members(self):
        g = gnp_sample(300, 0.1, seed=11)
        ps = ParamSet(300, 0.1)
        factor = 0.0002  # 15 of the 170 subsets fall outside
        frag = check_p1(g, ps, budget=10, seed=4, strict_factor=factor)
        flagged = []
        for subset, obs in frag.samples:
            assert isinstance(subset, VertexSet) and subset.n == 300
            assert isinstance(obs, int)
            mu = (1 - ps.p) ** len(subset) * ps.n
            slack = factor * error_f(ps, len(subset)) * mu
            if not mu - slack <= obs <= mu + slack:
                flagged.append((sorted(subset), obs))
        assert flagged, "test host must produce violations at this factor"
        assert [(v.S, v.observed) for v in frag.violations] == flagged

    def test_retained_fragment_size(self):
        # 920 subsets at n = 2000 (k = 46): one 2000-bit mask each, 331 KB
        # measured, where tuples of their members took 461 KB
        g = gnp_sample(2000, 0.05, seed=9)
        ps = ParamSet(2000, 0.05)
        check_p1(g, ps, budget=20, seed=2)  # the host's lazy caches
        tracemalloc.start()
        try:
            frag = check_p1(g, ps, budget=20, seed=2)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert frag.subsets_tested == 920
        assert retained < 365_000  # measured + 10%

    def test_prefix_samples_are_independent_sets(self):
        g = gnp_sample(200, 0.1, seed=6)
        ps = ParamSet(200, 0.1)
        budget = 8
        frag = check_p1(g, ps, budget=budget, max_size=6, seed=9)
        per_size: dict[int, list] = {}
        for subset, _ in frag.samples:
            per_size.setdefault(len(subset), []).append(subset)
        from greedycover.graph import VertexSet

        for s, subs in per_size.items():
            for subset in subs[(budget + 1) // 2 :]:
                assert is_independent(g, VertexSet.from_iterable(200, subset))

    def test_budget_accounting(self):
        g = gnp_sample(200, 0.1, seed=6)
        frag = check_p1(g, ParamSet(200, 0.1), budget=7, max_size=5, seed=1)
        # 4 uniform + 3 prefixes per size, no early exhaustion at this scale
        assert frag.subsets_tested == 7 * 5
        assert frag.max_size_tested == 5

    def test_gnp_large_budget_zero_violations(self):
        g = gnp_sample(2000, 0.05, seed=9)
        frag = check_p1(g, ParamSet(2000, 0.05), budget=200, max_size=20, seed=2)
        assert frag.violations == []
        assert frag.subsets_tested == 200 * 20
        assert frag.mode == "sampled"

    def test_determinism(self):
        g = gnp_sample(150, 0.1, seed=3)
        ps = ParamSet(150, 0.1)
        a = check_p1(g, ps, budget=9, seed=5)
        b = check_p1(g, ps, budget=9, seed=5)
        assert a.samples == b.samples and a.margin_min == b.margin_min
        c = check_p1(g, ps, budget=9, seed=6)
        assert a.samples != c.samples

    def test_validation(self):
        g = gnp_sample(50, 0.1, seed=0)
        ps = ParamSet(50, 0.1)
        with pytest.raises(ValueError):
            check_p1(g, ps, budget=0)
        with pytest.raises(ValueError):
            check_p1(g, ps, max_size=0)
        with pytest.raises(ValueError):
            check_p1(g, ps, max_size=51)


class TestETable:
    def test_identities_and_monotonicity(self):
        ps = ParamSet(1000, 0.05)
        rows = e_table(ps, 30)
        for row in rows:
            gap = row.s * (1 - ps.p) ** row.s
            assert abs((row.mu_s - row.e_s) - gap) < TOL
            assert row.e_s >= 0
        assert all(a.e_s > b.e_s for a, b in zip(rows, rows[1:]))

    def test_threshold_crossover(self):
        # E_s >= 4 s log n holds through s = 15 and fails from s = 16 here
        rows = e_table(ParamSet(1000, 0.05), 20)
        flags = [row.threshold_ok for row in rows]
        assert flags[14] and not flags[15]
        assert flags == [True] * 15 + [False] * 5


class TestIsTypical:
    def test_gnp_typical(self):
        g = gnp_sample(2000, 0.05, seed=4)
        report = is_typical(g, ParamSet(2000, 0.05), budget=10, seed=1)
        assert report.typical
        assert report.p1.mode == "sampled"
        assert report.p3.mode == "exhaustive"
        assert len(report.e_table) == report.p1.max_size_tested
        d = plain(report)
        assert d["typical"] is True
        assert set(d) == {"p1", "p2", "p3", "typical", "e_table", "strict_factor"}

    def test_builds_int_rows_only_for_the_greedy_picks(self):
        # P2, P3 and every N^c(S) of P1 read the packed words; only P1's
        # recording runs read rows, one per picked vertex
        g = gnp_sample(2000, 0.05, seed=0)
        ps = ParamSet(2000, 0.05)
        is_typical(g, ps)
        built = {v for v, r in enumerate(g._rows) if r is not None}
        picked = {
            v
            for r in range(10)
            for v in typicality.run_with_generator(
                gnp_sample(2000, 0.05, seed=0), ps, rng.stream(0, rng.PREFIX, r)
            ).order
        }
        assert built == picked
        assert len(built) <= 10 * ps.k

    def test_star_fails_via_p2(self):
        report = is_typical(star(2000), ParamSet(2000, 0.05), budget=4, seed=0)
        assert not report.typical
        assert report.p2.violations

    def test_complete_fails_via_p3(self):
        # codegree n-2 = 1998 clears delta2 ~ 974 at this scale
        report = is_typical(complete(2000), ParamSet(2000, 0.01), budget=4, seed=0)
        assert not report.typical
        assert report.p3.violations

    def test_typical_iff_no_violations(self):
        g = gnp_sample(300, 0.1, seed=8)
        report = is_typical(g, ParamSet(300, 0.1), budget=6, seed=2)
        empty = not (
            report.p1.violations or report.p2.violations or report.p3.violations
        )
        assert report.typical == empty

    def test_strict_factor_can_flip(self):
        g = gnp_sample(400, 0.1, seed=5)
        ps = ParamSet(400, 0.1)
        loose = is_typical(g, ps, budget=6, seed=3)
        tight = is_typical(g, ps, budget=6, seed=3, strict_factor=0.01)
        assert loose.typical and not tight.typical

    def test_determinism(self):
        g = gnp_sample(300, 0.1, seed=8)
        ps = ParamSet(300, 0.1)
        a = plain(is_typical(g, ps, budget=6, seed=2))
        b = plain(is_typical(g, ps, budget=6, seed=2))
        assert a == b
