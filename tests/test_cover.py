"""Cover builder and verifier tests.

Coverage results are checked against a plain-set oracle that enumerates
the pairs inside every cover set and compares with all non-edges.
"""

from __future__ import annotations

import itertools
import pickle
import tracemalloc

import pytest

from greedycover import rng
from greedycover.cli import plain
from greedycover.cover import (
    Cover,
    CoverStructureError,
    PartitionCover,
    build_pdim_adaptive,
    build_pdim_cover,
    build_theta1_adaptive,
    build_theta1_cover,
    verify_cover,
)
from greedycover.graph import Graph, VertexSet, gnp_sample, is_independent, non_edges
from greedycover.params import ParamSet, bound_formulas
from greedycover.process import sample_independent_set
from numpy_oracle import numpy_stream


def complete(n):
    return Graph.from_rows([((1 << n) - 1) ^ (1 << v) for v in range(n)])


def coverage_oracle(host, vertex_sets):
    """(covered pairs, all non-edge pairs) via plain set arithmetic."""
    nonedge = {
        (u, v)
        for u, v in itertools.combinations(range(host.n), 2)
        if not host.has_edge(u, v)
    }
    covered = set()
    for vs in vertex_sets:
        for u, v in itertools.combinations(sorted(vs.to_list()), 2):
            covered.add((u, v))
    return covered & nonedge, nonedge


class TestTheta1Fixed:
    def test_sets_are_independent_runs(self):
        host = gnp_sample(120, 0.1, seed=3)
        ps = ParamSet(120, 0.1)
        cover = build_theta1_cover(host, ps, t=7, seed=5)
        assert len(cover.sets) == 7 and cover.host_n == 120
        for vs in cover.sets:
            assert is_independent(host, vs)
            assert 1 <= vs.size <= ps.k
        again = build_theta1_cover(host, ps, t=7, seed=5)
        assert cover.sets == again.sets
        assert cover.sets != build_theta1_cover(host, ps, t=7, seed=6).sets

    def test_complete_graph_trivial_cover(self):
        host = complete(40)
        ps = ParamSet(40, 0.1)
        cover = build_theta1_cover(host, ps, t=3, seed=0)
        report = verify_cover(host, cover)
        assert report.covered_fraction == 1.0
        assert report.uncovered == []
        assert report.total_sets == 3

    def test_empty_graph_single_full_run(self):
        # k_coef chosen so k = n: one run picks every vertex
        ps = ParamSet(30, 0.5, k_coef=5.6)
        assert ps.k == 30
        host = Graph.from_rows([0] * 30)
        cover = build_theta1_cover(host, ps, t=1, seed=4)
        assert cover.sets[0].size == 30
        report = verify_cover(host, cover)
        assert report.covered_fraction == 1.0 and report.uncovered == []

    def test_validation(self):
        host = gnp_sample(30, 0.2, seed=0)
        with pytest.raises(ValueError):
            build_theta1_cover(host, ParamSet(30, 0.2), t=0, seed=0)
        with pytest.raises(ValueError):
            build_theta1_cover(host, ParamSet(40, 0.2), t=1, seed=0)


class TestTheta1Adaptive:
    def test_complete_graph_needs_nothing(self):
        host = complete(25)
        cover, count = build_theta1_adaptive(host, ParamSet(25, 0.2), seed=1)
        assert count == 0 and cover.sets == []
        assert verify_cover(host, cover).covered_fraction == 1.0

    def test_empty_graph_one_run(self):
        ps = ParamSet(30, 0.5, k_coef=5.6)
        host = Graph.from_rows([0] * 30)
        cover, count = build_theta1_adaptive(host, ps, seed=4)
        assert count == 1 and len(cover.sets) == 1

    def test_gnp_complete_coverage_within_budget(self):
        host = gnp_sample(300, 0.1, seed=2)
        ps = ParamSet(300, 0.1)
        cover, count = build_theta1_adaptive(host, ps, seed=2)
        assert count <= bound_formulas(ps)["t_theta1"]
        report = verify_cover(host, cover, ps=ps, adaptive_count=count)
        assert report.uncovered == [] and report.covered_fraction == 1.0
        assert report.bound_comparison["adaptive_count"] == count

    def test_adaptive_is_prefix_of_fixed(self):
        host = gnp_sample(150, 0.1, seed=9)
        ps = ParamSet(150, 0.1)
        cover, count = build_theta1_adaptive(host, ps, seed=7)
        fixed = build_theta1_cover(host, ps, t=count, seed=7)
        assert cover.sets == fixed.sets

    def test_max_t_truncation_reported_by_verify(self):
        host = gnp_sample(200, 0.1, seed=1)
        ps = ParamSet(200, 0.1)
        cover, count = build_theta1_adaptive(host, ps, seed=1, max_t=2)
        assert count == 2
        report = verify_cover(host, cover)
        assert report.uncovered and report.covered_fraction < 1.0

    @pytest.mark.parametrize(
        "build, budget, msg",
        [
            (build_theta1_adaptive, {"max_t": 0}, "max_t must be >= 1"),
            (build_pdim_adaptive, {"max_t": 0}, "s and max_t must be >= 1"),
            (build_pdim_adaptive, {"s": 0}, "s and max_t must be >= 1"),
        ],
        ids=["theta1_max_t", "pdim_max_t", "pdim_s"],
    )
    def test_adaptive_budget_validation(self, build, budget, msg):
        host = gnp_sample(30, 0.2, seed=0)
        with pytest.raises(ValueError, match=msg):
            build(host, ParamSet(30, 0.2), seed=0, **budget)


class TestPdim:
    def test_single_cell(self):
        host = gnp_sample(60, 0.2, seed=5)
        ps = ParamSet(60, 0.2)
        pc = build_pdim_cover(host, ps, s=1, t=1, seed=3)
        assert len(pc.partitions) == 1 and len(pc.partitions[0]) == 1
        assert is_independent(host, pc.partitions[0][0])

    def test_s_defaults_to_s_pdim(self):
        host = gnp_sample(60, 0.2, seed=5)
        ps = ParamSet(60, 0.2)
        s = bound_formulas(ps)["s_pdim"]
        default = build_pdim_cover(host, ps, t=2, seed=3)
        assert plain(default) == plain(build_pdim_cover(host, ps, s=s, t=2, seed=3))

    def test_disjointification_matches_oracle(self):
        host = gnp_sample(100, 0.1, seed=8)
        ps = ParamSet(100, 0.1)
        s, t, seed = 5, 3, 11
        pc = build_pdim_cover(host, ps, s=s, t=t, seed=seed)
        for i in range(t):
            raw = [
                sample_independent_set(
                    host, ps.k, numpy_stream(seed, rng.COVER_PART, i * s + j).random(ps.k)
                )
                for j in range(s)
            ]
            union = 0
            want = []
            for mask in raw:
                cell = mask & ~union
                union |= mask
                if cell:
                    want.append(cell)
            assert [vs.members for vs in pc.partitions[i]] == want

    def test_cells_disjoint_and_independent(self):
        host = gnp_sample(150, 0.1, seed=4)
        ps = ParamSet(150, 0.1)
        pc = build_pdim_cover(host, ps, s=8, t=4, seed=9)
        for part in pc.partitions:
            seen = 0
            for vs in part:
                assert is_independent(host, vs)
                assert seen & vs.members == 0
                seen |= vs.members
        verify_cover(host, pc)  # must not raise

    def test_adaptive_covers_everything(self):
        host = gnp_sample(150, 0.1, seed=6)
        ps = ParamSet(150, 0.1)
        pc, count = build_pdim_adaptive(host, ps, seed=5)
        assert count == len(pc.partitions) >= 1
        report = verify_cover(host, pc)
        assert report.uncovered == [] and report.covered_fraction == 1.0

    def test_adaptive_is_prefix_of_fixed(self):
        host = gnp_sample(120, 0.1, seed=3)
        ps = ParamSet(120, 0.1)
        pc, count = build_pdim_adaptive(host, ps, seed=4, s=3)
        assert count == len(pc.partitions) >= 2
        fixed = build_pdim_cover(host, ps, t=count, seed=4, s=3)
        assert pc.partitions == fixed.partitions
        # the stop rule fires on the first complete prefix, not later
        short = verify_cover(host, PartitionCover(pc.partitions[:-1], host.n))
        assert short.uncovered

    def test_adaptive_builders_draw_nothing_on_complete_host(self):
        host = complete(25)
        ps = ParamSet(25, 0.2)
        pc, count = build_pdim_adaptive(host, ps, seed=1)
        assert count == 0 and pc.partitions == []
        cover, count = build_theta1_adaptive(host, ps, seed=1)
        assert count == 0 and cover.sets == []

    def test_singleton_count(self):
        pc = PartitionCover(
            partitions=[
                [VertexSet.from_iterable(10, [3]), VertexSet.from_iterable(10, [1, 2])]
            ],
            host_n=10,
        )
        assert pc.singleton_count == 1

    def test_validation(self):
        host = gnp_sample(30, 0.2, seed=0)
        ps = ParamSet(30, 0.2)
        with pytest.raises(ValueError):
            build_pdim_cover(host, ps, s=0, t=1, seed=0)
        with pytest.raises(ValueError):
            build_pdim_cover(host, ps, s=1, t=0, seed=0)


class TestVerify:
    def test_coverage_matches_set_oracle(self):
        host = gnp_sample(80, 0.2, seed=12)
        ps = ParamSet(80, 0.2)
        cover = build_theta1_cover(host, ps, t=5, seed=2)
        report = verify_cover(host, cover)
        covered, nonedge = coverage_oracle(host, cover.sets)
        assert sorted(report.uncovered) == sorted(nonedge - covered)
        assert report.covered_fraction == len(covered) / len(nonedge)
        assert (report.covered_fraction == 1.0) == (report.uncovered == [])

    def test_monotone_in_added_sets(self):
        host = gnp_sample(100, 0.15, seed=3)
        ps = ParamSet(100, 0.15)
        cover = build_theta1_cover(host, ps, t=12, seed=8)
        fractions = [
            verify_cover(host, Cover(sets=cover.sets[:i], host_n=100)).covered_fraction
            for i in range(1, 13)
        ]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_edge_inside_set_raises(self):
        host = gnp_sample(40, 0.3, seed=1)
        u, v = next((u, v) for u in range(40) for v in range(u + 1, 40)
                    if host.has_edge(u, v))
        bad = Cover(sets=[VertexSet.from_iterable(40, [u, v])], host_n=40)
        with pytest.raises(CoverStructureError, match=f"set 0 contains edge .{u}, {v}."):
            verify_cover(host, bad)

    def test_partition_overlap_raises(self):
        host = Graph.from_rows([0] * 10)
        bad = PartitionCover(
            partitions=[
                [
                    VertexSet.from_iterable(10, [0, 1]),
                    VertexSet.from_iterable(10, [1, 2]),
                ]
            ],
            host_n=10,
        )
        with pytest.raises(CoverStructureError, match="partition 0: set 1 shares vertex 1"):
            verify_cover(host, bad)

    def test_edge_inside_partition_cell_raises(self):
        host = gnp_sample(40, 0.3, seed=1)
        u, v = next((u, v) for u in range(40) for v in range(u + 1, 40)
                    if host.has_edge(u, v))
        x = next(x for x in range(40) if x not in (u, v))
        bad = PartitionCover(
            partitions=[
                [VertexSet.from_iterable(40, [x])],
                [VertexSet.from_iterable(40, [x]), VertexSet.from_iterable(40, [u, v])],
            ],
            host_n=40,
        )
        with pytest.raises(
            CoverStructureError, match=f"^partition 1 set 1 contains edge .{u}, {v}.$"
        ):
            verify_cover(host, bad)

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_set_for_other_host_size_raises(self, partitioned):
        host = Graph.from_rows([0] * 10)
        sets = [VertexSet.from_iterable(10, [0, 1]), VertexSet.from_iterable(11, [2, 3])]
        if partitioned:
            bad, name = PartitionCover(partitions=[[], sets], host_n=10), "partition 1 set 1"
        else:
            bad, name = Cover(sets=sets, host_n=10), "set 1"
        with pytest.raises(ValueError, match=f"^{name} is for a different host size$") as err:
            verify_cover(host, bad)
        assert err.type is ValueError

    def test_disjointness_checked_before_independence(self):
        # the edge sits in partition 0, the overlap only in partition 1
        host = Graph.from_rows([0b10, 0b01] + [0] * 8)
        bad = PartitionCover(
            partitions=[
                [VertexSet.from_iterable(10, [0, 1])],
                [VertexSet.from_iterable(10, [2, 3]), VertexSet.from_iterable(10, [3, 4])],
            ],
            host_n=10,
        )
        with pytest.raises(CoverStructureError, match="^partition 1: set 1 shares vertex 3"):
            verify_cover(host, bad)

    def test_verify_makes_no_object_per_cell(self):
        host = gnp_sample(300, 0.1, 0)
        cover, _ = build_pdim_adaptive(host, ParamSet(300, 0.1), seed=0)
        data = pickle.dumps(cover)
        del cover  # the traced copy below is the one verified
        tracemalloc.start()
        try:
            cover = pickle.loads(data)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = verify_cover(host, cover)
            peak = tracemalloc.get_traced_memory()[1] - size
        finally:
            tracemalloc.stop()
        assert report.total_sets == sum(map(len, cover.partitions)) > 4000
        # n coverage masks of n bits, about 23 KB against a cover of about 1 MB
        assert peak < 0.1 * size

    def test_host_size_mismatch(self):
        host = Graph.from_rows([0] * 10)
        with pytest.raises(ValueError):
            verify_cover(host, Cover(sets=[], host_n=11))

    def test_bound_comparison_block(self):
        host = gnp_sample(60, 0.2, seed=0)
        ps = ParamSet(60, 0.2)
        cover = build_theta1_cover(host, ps, t=2, seed=0)
        plain = verify_cover(host, cover)
        assert plain.bound_comparison is None
        full = verify_cover(host, cover, ps=ps, adaptive_count=17)
        formulas = bound_formulas(ps)
        assert full.bound_comparison == {
            "t_formula": formulas["t_theta1"],
            "mrss_lower": formulas["mrss_lower"],
            "adaptive_count": 17,
        }

    def test_report_serialization(self):
        host = Graph.from_rows([0] * 6)
        cover = Cover(sets=[VertexSet.from_iterable(6, range(6))], host_n=6)
        d = plain(verify_cover(host, cover))
        assert d["covered_fraction"] == 1.0
        assert d["uncovered"] == [] and d["total_sets"] == 1
