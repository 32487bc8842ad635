"""Graph core: constructors, set operators, edge-list round trip.

The oracles here are deliberately independent of the bit-vector code:
neighbor dicts of Python sets, rebuilt from the edge-list text.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from greedycover import (
    EdgeListError,
    Graph,
    VertexSet,
    codegree,
    common_non_neighbourhood,
    complete_bipartite,
    from_edge_list,
    gnp_sample,
    is_independent,
    non_edges,
    to_edge_list,
)
from greedycover import rng as grng
from greedycover.graph import _SYMMETRY_BLOCK


def neighbor_sets(g: Graph) -> dict[int, set[int]]:
    """Independent adjacency oracle: parse the serialized edge list."""
    text = to_edge_list(g)
    lines = text.strip().splitlines()
    n, m = map(int, lines[0].split())
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for line in lines[1:]:
        u, v = map(int, line.split())
        adj[u].add(v)
        adj[v].add(u)
    assert sum(len(s) for s in adj.values()) == 2 * m
    return adj


class TestVertexSet:
    def test_size_is_popcount(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        for _ in range(200):
            n = int(rng.integers(0, 70))
            mask = int(rng.integers(0, 2**63)) & ((1 << n) - 1)
            s = VertexSet(n, mask)
            assert s.size == bin(mask).count("1")
            assert sorted(s) == s.to_list()
            assert len(s.to_list()) == s.size

    def test_membership_and_roundtrip(self):
        s = VertexSet.from_iterable(10, [0, 3, 9])
        assert 3 in s and 4 not in s and 10 not in s
        assert s.to_list() == [0, 3, 9]
        assert VertexSet.from_iterable(10, s.to_list()) == s

    def test_validation(self):
        with pytest.raises(ValueError):
            VertexSet(4, 1 << 4)
        with pytest.raises(ValueError):
            VertexSet(4, -1)
        with pytest.raises(ValueError):
            VertexSet.from_iterable(4, [4])
        assert VertexSet.empty(5).size == 0
        assert VertexSet.full(5).size == 5


class TestConstructors:
    def test_complete_bipartite_structure(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7
        assert g.edge_count == 12
        for u in range(3):
            assert g.degree(u) == 4
            assert g.neighbors(u) == [3, 4, 5, 6]
        for v in range(3, 7):
            assert g.degree(v) == 3
            assert g.neighbors(v) == [0, 1, 2]
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 3)

    def test_from_rows_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_rows([0b001, 0b000, 0b000])
        with pytest.raises(ValueError, match="outside"):
            Graph.from_rows([0b1000, 0, 0])
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_rows([0b010, 0b000, 0b000])

    def test_from_rows_rejects_asymmetry_with_even_popcount(self):
        # 0 -> 1 and 1 -> 2 without the reverse bits: two bits in total, so
        # a parity check alone accepts these rows
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_rows([0b010, 0b100, 0b000])

    def test_from_rows_symmetry_across_blocks(self):
        # asymmetry far from the diagonal on a host larger than one block
        # of the check, and the symmetric version of the same host
        n = 2 * _SYMMETRY_BLOCK + 5
        g = gnp_sample(n, 0.01, 3)
        rows = [g.row(v) for v in range(n)]
        assert Graph.from_rows(rows) == g
        u, v = 3, n - 2
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        assert Graph.from_rows(rows).has_edge(u, v) != g.has_edge(u, v)
        # two one-way flips keep the total popcount even
        rows[u] ^= 1 << v
        rows[n - 1] ^= 1 << 7
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_rows(rows)

    def test_gnp_extremes(self):
        g0 = gnp_sample(20, 0.0, 7)
        assert g0.edge_count == 0
        g1 = gnp_sample(20, 1.0, 7)
        assert g1.edge_count == 20 * 19 // 2
        assert all(g1.degree(v) == 19 for v in range(20))
        tiny = gnp_sample(0, 0.5, 1)
        assert tiny.n == 0 and tiny.edge_count == 0
        one = gnp_sample(1, 1.0, 1)
        assert one.n == 1 and one.edge_count == 0

    def test_gnp_determinism_and_seed_sensitivity(self):
        a = gnp_sample(60, 0.3, 42)
        b = gnp_sample(60, 0.3, 42)
        c = gnp_sample(60, 0.3, 43)
        assert a == b
        assert a != c

    def test_gnp_symmetric_no_self_loops(self):
        g = gnp_sample(80, 0.2, 5)
        adj = neighbor_sets(g)
        for u in range(g.n):
            assert u not in adj[u]
            for v in adj[u]:
                assert u in adj[v]
                assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_gnp_pair_by_pair_stream_semantics(self):
        # The sampler must consume one uniform per upper-triangle pair in
        # row-major order; replicate that literally and compare.
        n, p = 40, 0.23
        for seed in (0, 1, 9):
            gen = grng.stream(seed, grng.GRAPH)
            rows = [0] * n
            for u in range(n - 1):
                for v in range(u + 1, n):
                    if gen.random() < p:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            expect = Graph.from_rows(rows)
            assert gnp_sample(n, p, seed) == expect

    def test_gnp_edge_count_statistics(self):
        # Frozen oracle: Binomial(C(1000,2), 0.05) has mean 24975,
        # sigma = sqrt(499500 * 0.05 * 0.95) = 154.03; use a 5-sigma window.
        g = gnp_sample(1000, 0.05, 21)
        assert abs(g.edge_count - 24975) < 5 * 154.03
        # Degree of one vertex ~ Binomial(999, 0.05): mean 49.95, sigma 6.89.
        assert abs(g.degree(0) - 49.95) < 5 * 6.89

    def test_gnp_p_validation(self):
        with pytest.raises(ValueError):
            gnp_sample(10, -0.1, 0)
        with pytest.raises(ValueError):
            gnp_sample(10, 1.1, 0)
        with pytest.raises(ValueError):
            gnp_sample(-1, 0.5, 0)


class TestEdgeList:
    def test_roundtrip(self):
        g = gnp_sample(50, 0.2, 3)
        text = to_edge_list(g)
        h = from_edge_list(text)
        assert h == g
        assert to_edge_list(h) == text

    def test_empty_graph_roundtrip(self):
        g = gnp_sample(5, 0.0, 0)
        assert from_edge_list(to_edge_list(g)) == g
        assert to_edge_list(g) == "5 0\n"

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("", 1, "empty"),
            ("3\n", 1, "header"),
            ("a b\n", 1, "non-integer"),
            ("3 1\n0 0\n", 2, "0 <= u < v"),
            ("3 1\n1 0\n", 2, "0 <= u < v"),
            ("3 1\n0 3\n", 2, "0 <= u < v"),
            ("3 2\n0 1\n0 1\n", 3, "duplicate"),
            ("3 1\n0 1\n1 2\n", 3, "more than m"),
            ("3 2\n0 1\n", 2, "found 1"),
            ("3 1\n0 1 2\n", 2, "expected 'u v'"),
            ("3 1\n\n0 1\n", 2, "blank line"),
        ]
        for text, line, frag in cases:
            with pytest.raises(EdgeListError, match=frag) as err:
                from_edge_list(text)
            assert err.value.line == line, text

    def test_trailing_blank_lines_ok(self):
        g = from_edge_list("3 1\n0 2\n\n\n")
        assert g.has_edge(0, 2) and g.edge_count == 1


class TestOperators:
    def test_common_non_neighbourhood_against_set_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for trial in range(30):
            n = int(rng.integers(2, 60))
            g = gnp_sample(n, float(rng.random() * 0.5), trial)
            adj = neighbor_sets(g)
            k = int(rng.integers(0, min(n, 6) + 1))
            subset = sorted(rng.choice(n, size=k, replace=False).tolist())
            s = VertexSet.from_iterable(n, subset)
            expect = set(range(n))
            for v in subset:
                expect -= {v}
                expect -= adj[v]
            got = common_non_neighbourhood(g, s)
            assert got.to_list() == sorted(expect)

    def test_common_non_neighbourhood_empty_set_is_everything(self):
        g = gnp_sample(12, 0.4, 2)
        assert common_non_neighbourhood(g, VertexSet.empty(12)).size == 12

    def test_codegree_against_set_oracle(self):
        g = gnp_sample(40, 0.3, 4)
        adj = neighbor_sets(g)
        rng = np.random.Generator(np.random.Philox(key=12))
        for _ in range(100):
            u, v = rng.choice(40, size=2, replace=False).tolist()
            assert codegree(g, u, v) == len(adj[u] & adj[v])
        with pytest.raises(ValueError):
            codegree(g, 3, 3)

    def test_is_independent(self):
        g = complete_bipartite(4, 5)
        assert is_independent(g, VertexSet.from_iterable(9, [0, 1, 2, 3]))
        assert is_independent(g, VertexSet.from_iterable(9, [4, 8]))
        assert not is_independent(g, VertexSet.from_iterable(9, [0, 4]))
        assert is_independent(g, VertexSet.empty(9))
        # singletons are always independent
        assert is_independent(g, VertexSet.from_iterable(9, [6]))

    def test_non_edges_matches_complement(self):
        g = gnp_sample(30, 0.35, 8)
        adj = neighbor_sets(g)
        expect = {
            (u, v)
            for u in range(30)
            for v in range(u + 1, 30)
            if v not in adj[u]
        }
        got = list(non_edges(g))
        assert len(got) == len(set(got))
        assert set(got) == expect
        assert len(got) == 30 * 29 // 2 - g.edge_count

    def test_non_edges_complete_graph_empty(self):
        assert list(non_edges(gnp_sample(10, 1.0, 0))) == []


class TestPackedRows:
    def test_packed_matches_rows(self):
        g = gnp_sample(37, 0.3, 17)
        packed = g.packed_rows()
        assert packed.shape == (37, (37 + 7) // 8)
        for v in range(g.n):
            assert int.from_bytes(packed[v].tobytes(), "little") == g.row(v)

    def test_degree_sum_matches_edge_count(self):
        g = gnp_sample(64, 0.5, 9)
        assert sum(g.degrees()) == 2 * g.edge_count
        counts = np.bitwise_count(g.packed_rows()).sum()
        assert int(counts) == 2 * g.edge_count


def test_pickle_roundtrip():
    import pickle

    g = gnp_sample(25, 0.3, 6)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.edge_count == g.edge_count


def test_stream_domain_separation():
    a = grng.stream(7, grng.GRAPH).random(4)
    b = grng.stream(7, grng.RUN).random(4)
    c = grng.stream(7, grng.RUN, 1).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)
    with pytest.raises(ValueError):
        grng.stream(7, grng.RUN, 1 << 48)


def test_int_stream_deterministic():
    r1 = grng.int_stream(7, grng.UNIFORM_SET, 3)
    r2 = grng.int_stream(7, grng.UNIFORM_SET, 3)
    big = math.comb(300, 40)
    assert r1.randrange(big) == r2.randrange(big)
