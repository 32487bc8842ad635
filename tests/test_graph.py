"""Graph core: constructors, set operators, edge-list round trip.

The oracles here are deliberately independent of the bit-vector code:
neighbor dicts of Python sets, rebuilt from the edge-list text.
"""

from __future__ import annotations

import copy
import math
import pickle
import tracemalloc
import weakref

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
from greedycover.graph import (
    _SYMMETRY_BLOCK,
    bits,
    first_edge_inside,
    mask_bits,
    non_edge_count,
    vertex_id,
)
from greedycover.params import ParamSet
from greedycover.typicality import check_p3
from numpy_oracle import numpy_stream


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

    def test_numpy_vertex_ids(self):
        # a numpy integer v >= 64 must not be shifted into a big int as a C long
        s = VertexSet.from_iterable(200, [3, 64, 150, 199])
        for t in (np.int64, np.int32, np.uint16):
            assert all(t(v) in s for v in (3, 64, 150, 199))
            assert t(65) not in s and t(200) not in s
        assert np.int64(150) in VertexSet.full(200)
        assert np.int64(-1) not in VertexSet.full(200)

    def test_numpy_ids_build_every_member(self):
        # a numpy id shifted as a C long overflows: 70 and 99 were lost
        for ids in (np.array([1, 70, 99]), [np.int64(1), np.int32(70), np.uint16(99)]):
            s = VertexSet.from_iterable(100, ids)
            assert s.to_list() == [1, 70, 99]
            assert type(s.members) is int
        assert VertexSet.from_iterable(100, [np.int64(70)]).to_list() == [70]
        with pytest.raises(ValueError, match=r"^vertex 100 out of range 0\.\.99$"):
            VertexSet.from_iterable(100, np.array([5, 100]))

    def test_vertex_id_is_a_checked_python_int(self):
        for v in (7, np.int64(7), np.uint8(7), np.intp(7)):
            assert vertex_id(10, v) == 7 and type(vertex_id(10, v)) is int
        for bad in (-1, 10, np.int64(10)):
            with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.9$"):
                vertex_id(10, bad)
        with pytest.raises(TypeError):
            vertex_id(10, 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VertexSet(4, 1 << 4)
        with pytest.raises(ValueError):
            VertexSet(4, -1)
        with pytest.raises(ValueError):
            VertexSet.from_iterable(4, [4])
        assert VertexSet.empty(5).size == 0
        assert VertexSet.full(5).size == 5

    @pytest.mark.parametrize(
        "call, msg",
        [
            (lambda: VertexSet(-1, 0), "n must be non-negative"),
            (lambda: complete_bipartite(-1, 3), "part sizes must be non-negative"),
            (lambda: complete_bipartite(3, -1), "part sizes must be non-negative"),
            (
                lambda: common_non_neighbourhood(complete_bipartite(2, 3), VertexSet.empty(4)),
                "vertex set is for a different n",
            ),
            (
                lambda: is_independent(complete_bipartite(2, 3), VertexSet.empty(6)),
                "vertex set is for a different n",
            ),
        ],
        ids=["negative_n", "negative_a", "negative_b", "cnn_other_n", "independent_other_n"],
    )
    def test_size_validation(self, call, msg):
        with pytest.raises(ValueError, match=msg):
            call()

    def test_slotted_reading_size_stores_nothing(self):
        s = VertexSet(70, (1 << 69) | 0b1011)
        assert not hasattr(s, "__dict__")
        assert s.size == 4
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.members = 0
        # a frozen slotted dataclass raises TypeError here on Python 3.11
        with pytest.raises((AttributeError, TypeError)):
            s.extra = 1
        with pytest.raises(TypeError):
            weakref.ref(s)

    def test_pickle_and_deepcopy_roundtrip(self):
        s = VertexSet.from_iterable(130, [0, 5, 64, 129])
        for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert t == s and hash(t) == hash(s)
            assert t.to_list() == [0, 5, 64, 129] and t.size == 4
        assert s != VertexSet.from_iterable(131, [0, 5, 64, 129])
        assert len({s, copy.deepcopy(s), VertexSet.empty(130)}) == 2


def _naive_bits(m: int) -> list[int]:
    return [v for v in range(m.bit_length()) if m >> v & 1]


class TestBitHelpers:
    def test_bits_edge_cases(self):
        assert list(bits(0)) == []
        assert list(bits(1 << 200)) == [200]
        assert list(bits((1 << 70) - 1)) == list(range(70))

    def test_bits_against_naive_on_random_masks(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(300):
            width = int(rng.integers(1, 400))
            m = int.from_bytes(rng.bytes((width + 7) // 8), "little") >> (-width % 8)
            assert list(bits(m)) == _naive_bits(m)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65])
    def test_mask_bits_against_naive(self, n):
        rng = np.random.Generator(np.random.Philox(key=n))
        masks = [0, (1 << n) - 1] + [
            int.from_bytes(rng.bytes(9), "little") & ((1 << n) - 1) for _ in range(50)
        ]
        for m in masks:
            got = mask_bits(m, n)
            assert got.dtype == np.uint8 and got.shape == (n,)
            assert got.tolist() == [m >> v & 1 for v in range(n)]


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

    def test_has_edge_takes_numpy_vertex_ids(self):
        g = gnp_sample(200, 0.1, 1)
        adj = neighbor_sets(g)
        edges = [(u, max(adj[u])) for u in (3, 64, 150)]
        assert all(v >= 64 for _, v in edges)
        for u, v in [(3, 150), (150, 3), (64, 65), (0, 199), (199, 64)] + edges:
            for t in (np.int64, np.int32):
                assert g.has_edge(t(u), t(v)) == (v in adj[u])

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
        # row-major order; replicate that literally and compare.  At n = 200
        # the 19900 draws cross a block of the sampler's reads.
        for n, p, seed in ((40, 0.23, 0), (40, 0.23, 1), (40, 0.23, 9), (200, 0.05, 2)):
            gen = numpy_stream(seed, grng.GRAPH)
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

    def test_gnp_memory_is_bounded(self):
        # the C(2000, 2) draws are read in bounded blocks; reading them at
        # once would hold 16 MB of uniforms.  The peak, 1.33 MB, is one
        # block's Philox evaluation beside the 512 KB of packed words.
        tracemalloc.start()
        try:
            g = gnp_sample(2000, 0.05, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 2000 and g.edge_count > 0
        assert peak <= 1.46e6

    def test_gnp_host_holds_only_its_packed_words(self):
        # no int rows until a row is read: 516 KB kept where the rows doubled it
        tracemalloc.start()
        try:
            g = gnp_sample(2000, 0.05, 3)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.packed_words().nbytes == 2000 * 32 * 8
        assert kept <= 1.02 * g.packed_words().nbytes

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
            ("-1 0\n", 1, "non-negative"),
            ("3 -1\n", 1, "non-negative"),
            ("3 1\n0 x\n", 2, "non-integer vertex ids"),
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

    def test_first_edge_inside_is_least_edge(self):
        g = gnp_sample(30, 0.1, 5)
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(200):
            size = int(rng.integers(0, 12))
            members = sorted(rng.choice(30, size=size, replace=False).tolist())
            inside = [
                (u, v) for u in members for v in members if u < v and g.has_edge(u, v)
            ]
            mask = sum(1 << v for v in members)
            assert first_edge_inside(g, mask) == min(inside, default=None)

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

    def test_non_edge_count_matches_enumeration(self):
        import pickle

        hosts = [
            Graph.from_rows([]),
            Graph.from_rows([0]),
            Graph.from_rows([0] * 9),
            gnp_sample(10, 1.0, 0),
            complete_bipartite(3, 5),
            complete_bipartite(1, 7),
            complete_bipartite(0, 4),
            gnp_sample(40, 0.2, 1),
            gnp_sample(33, 0.5, 2),
            gnp_sample(17, 0.9, 3),
            pickle.loads(pickle.dumps(gnp_sample(29, 0.3, 4))),
        ]
        for g in hosts:
            assert non_edge_count(g) == len(list(non_edges(g)))


def gnp_rows(n: int) -> list[int]:
    g = gnp_sample(n, 0.3, n)
    return [g.row(v) for v in range(n)]


# every constructor, gnp_sample's packed words and the others' int rows
LAYOUT_SIZES = [0, 1, 63, 64, 65, 130]
MAKERS = [
    lambda n: gnp_sample(n, 0.3, n),
    lambda n: Graph.from_rows(gnp_rows(n)),
    lambda n: complete_bipartite(n // 3, n - n // 3),
    lambda n: from_edge_list(to_edge_list(gnp_sample(n, 0.3, n))),
    lambda n: pickle.loads(pickle.dumps(gnp_sample(n, 0.3, n))),
]
MAKER_IDS = ["gnp_sample", "from_rows", "complete_bipartite", "edge_list", "unpickled"]


def holds_rows(g: Graph) -> bool:
    """Whether g has built its int rows."""
    return g._rows is not None


def built_rows(g: Graph) -> list[int]:
    """The vertices whose int rows g has built, ascending."""
    return [v for v, r in enumerate(g._rows or ()) if r is not None]


def cnn_fold(g: Graph, s: VertexSet) -> VertexSet:
    """N^c(S) folded over the int rows of S: the oracle of the word-level OR."""
    mask = g.full_mask & ~s.members
    for v in bits(s.members):
        mask &= ~g.row(v)
    return VertexSet(g.n, mask)


class TestPackedRows:
    def test_packed_matches_rows(self):
        g = gnp_sample(37, 0.3, 17)
        packed = g.packed_rows()
        assert packed.shape == (37, (37 + 7) // 8)
        for v in range(g.n):
            assert int.from_bytes(packed[v].tobytes(), "little") == g.row(v)

    @pytest.mark.parametrize("n", LAYOUT_SIZES)
    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_word_aligned_layout(self, make, n):
        g = make(n)
        rows, words = g.packed_rows(), g.packed_words()
        assert rows.shape == (n, (n + 7) // 8) and rows.dtype == np.uint8
        assert words.shape == (n, (n + 63) // 64) and words.dtype == np.uint64
        assert not rows.flags.writeable and not words.flags.writeable
        assert n == 0 or np.shares_memory(rows, words)
        for v in range(n):
            assert int.from_bytes(rows[v].tobytes(), "little") == g.row(v)
            assert words[v].tobytes() == g.row(v).to_bytes(words.shape[1] * 8, "little")
        if n < 63:
            return  # ParamSet needs p * n > e
        # the exhaustive codegree scan reads the words in place
        ps = ParamSet(n, 0.3)
        frag = check_p3(g, ps, strict_factor=0.01)
        nbr = [set(g.neighbors(v)) for v in range(n)]
        codeg = [(u, v, len(nbr[u] & nbr[v])) for u in range(n) for v in range(u + 1, n)]
        assert frag.mode == "exhaustive" and frag.pairs_tested == len(codeg)
        assert frag.violations == [c for c in codeg if c[2] > 0.01 * ps.delta2]
        assert frag.max_codegree == max(c for _, _, c in codeg)

    @pytest.mark.parametrize("n", LAYOUT_SIZES)
    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_rows_and_words_read_the_same(self, make, n):
        # every read, on fresh graphs that read the rows, the words or the
        # degrees first
        def rows(g):
            return [g.row(v) for v in range(n)]

        def words(g):
            return g.packed_words().tobytes()

        def degrees(g):
            return g.degrees(), g.degree_array().tolist(), [g.degree(v) for v in range(n)]

        def edges(g):
            return [[g.has_edge(u, v) for v in range(n)] for u in range(n)]

        def neighbors(g):
            return [g.neighbors(v) for v in range(n)]

        reads = {"rows": rows, "words": words, "degrees": degrees}
        seen = []
        for first in reads:
            g = make(n)
            got = {first: reads[first](g)}
            got.update((name, read(g)) for name, read in reads.items() if name != first)
            got.update(edges=edges(g), neighbors=neighbors(g), hash=hash(g),
                       pickle=pickle.dumps(g))
            seen.append((g, got))
        (g, want), *others = seen
        for h, got in others:
            assert got == want and h == g
        width = (n + 63) // 64 * 8
        assert want["words"] == b"".join(r.to_bytes(width, "little") for r in want["rows"])
        assert want["degrees"] == ([r.bit_count() for r in want["rows"]],) * 3
        assert want["edges"] == [[(r >> v) & 1 == 1 for v in range(n)] for r in want["rows"]]
        assert want["neighbors"] == [list(bits(r)) for r in want["rows"]]
        # the same graph built from int rows equals it, hash and pickle included
        twin = Graph.from_rows(want["rows"])
        assert twin == g and hash(twin) == want["hash"]
        assert pickle.dumps(twin) == want["pickle"]

    @pytest.mark.parametrize("n", [1, 65])
    def test_gnp_host_builds_rows_only_when_one_is_read(self, n):
        g = gnp_sample(n, 0.3, 1)
        g.packed_rows(), g.degrees(), g.degree_array(), g.degree(0)
        assert not holds_rows(g)
        row = g.row(0)
        assert holds_rows(g) and built_rows(g) == [0] and g.row(0) is row
        h = gnp_sample(n, 0.3, 1)
        assert h.has_edge(0, 0) is False
        assert h.has_edge(n - 1, 0) is (row >> (n - 1) & 1 == 1)
        assert not holds_rows(h)  # has_edge reads one byte of the words
        assert h.row(0) == row
        h.neighbors(n - 1)
        assert built_rows(h) == sorted({0, n - 1})

    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_whole_graph_reads_build_no_rows(self, make):
        g, h = make(130), make(130)
        assert g == h and hash(g) == hash(h)
        back = pickle.loads(pickle.dumps(g))
        assert back == h and not back.packed_words().flags.writeable
        g.degree_array(), g.degrees(), g.degree(5), g.packed_rows(), g.packed_words()
        g.has_edge(0, 129), g.has_edge(129, 64)
        common_non_neighbourhood(g, VertexSet.from_iterable(130, [0, 64, 129]))
        assert not holds_rows(g) and not holds_rows(h) and not holds_rows(back)

    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_vertex_ids_outside_the_host_raise(self, make):
        # unchecked, a negative id reads vertex n + v and has_edge(0, n) a pad bit
        g = make(10)
        for bad in (-1, 10):
            with pytest.raises(ValueError, match="out of range"):
                g.has_edge(bad, 2)
            with pytest.raises(ValueError, match="out of range"):
                g.has_edge(0, bad)
            with pytest.raises(ValueError, match="out of range"):
                g.neighbors(bad)
            with pytest.raises(ValueError, match="out of range"):
                g.degree(bad)
            with pytest.raises(ValueError, match="out of range"):
                codegree(g, bad, 2)
            with pytest.raises(ValueError, match="out of range"):
                codegree(g, 2, bad)
        assert not holds_rows(g)

    @pytest.mark.parametrize("n", LAYOUT_SIZES)
    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_common_non_neighbourhood_against_row_fold(self, make, n):
        g, oracle = make(n), make(n)
        rng = np.random.Generator(np.random.Philox(key=n))
        masks = [0, (1 << n) - 1]
        if n:
            masks.append(1 << int(rng.integers(n)))
            masks += [
                sum(1 << int(v) for v in np.flatnonzero(rng.random(n) < q))
                for q in (0.02, 0.1, 0.5, 0.9)
            ]
        for members in masks:
            s = VertexSet(n, members)
            assert common_non_neighbourhood(g, s) == cnn_fold(oracle, s)
        assert not holds_rows(g)

    def test_degree_sum_matches_edge_count(self):
        g = gnp_sample(64, 0.5, 9)
        assert sum(g.degrees()) == 2 * g.edge_count
        counts = np.bitwise_count(g.packed_rows()).sum()
        assert int(counts) == 2 * g.edge_count

    def test_degree_array_cached_read_only_unpickled(self):
        import pickle

        g = gnp_sample(45, 0.3, 8)
        sent = pickle.dumps(g)
        degs = g.degree_array()
        assert degs.dtype == np.int64 and degs.tolist() == g.degrees()
        assert g.degree_array() is degs and not degs.flags.writeable
        assert pickle.dumps(g) == sent


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
