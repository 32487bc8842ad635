"""Estimator tests.

Statistical assertions use exact reference probabilities (symmetry or
closed-form combinatorics) with wide sigma guards; identity assertions
(count conservation, chain products) are exact on integers.  The chain
walker is cross-checked trial by trial against fully recorded runs driven
from the same streams, and in distribution against the exact chain law.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import exact_greedy
from exact_greedy import chain_law, inclusion_law
from greedycover import montecarlo as mc
from greedycover import rng
from greedycover.cli import plain
from greedycover.graph import (
    Graph,
    VertexSet,
    complete_bipartite,
    gnp_sample,
    is_independent,
    non_edges,
)
from greedycover.montecarlo import (
    bipartite_comparison,
    estimate_conditional_chain,
    estimate_membership,
    sample_non_edges,
    uniform_independent_set,
)
from greedycover.params import ParamSet, envelope
from greedycover.process import ensemble_run, run_with_generator
from numpy_oracle import numpy_stream


def empty_graph(n):
    return Graph.from_rows([0] * n)


def complete(n):
    full = (1 << n) - 1
    return Graph.from_rows([full ^ (1 << v) for v in range(n)])


def disjoint_cliques(*sizes):
    rows, start = [], 0
    for size in sizes:
        mask = ((1 << size) - 1) << start
        rows += [mask ^ (1 << v) for v in range(start, start + size)]
        start += size
    return Graph.from_rows(rows)


# K20 ∪ K4 ∪ K3 ∪ K2 with u = 20 in the K4 and v = 24 in the K3: at (i, j) =
# (2, 3) the chain keeps a step-1 pick in the K20 or the K2, picks u at step 2
# and v at step 3.  Under CLIQUES_FULL the step-1 upper rail (16.33) sits
# below the K20's degree 19, so it cuts the trials that pick in the K2.
CLIQUES = (20, 4, 3, 2)
CLIQUES_LIGHT = ParamSet(29, 0.05, k_coef=1.0)
CLIQUES_FULL = ParamSet(29, 0.045, k_coef=1.5)


class TestSampleNonEdges:
    def test_small_host_returns_all(self):
        host = empty_graph(8)
        pairs = sample_non_edges(host, 100, seed=0)
        assert pairs == list(non_edges(host))
        assert len(pairs) == 28

    def test_complete_host_has_none(self):
        assert sample_non_edges(complete(9), 50, seed=0) == []

    def test_sampled_pairs_are_distinct_non_edges(self):
        host = gnp_sample(100, 0.3, seed=1)
        pairs = sample_non_edges(host, 60, seed=3)
        assert len(pairs) == 60
        assert len(set(pairs)) == 60
        assert pairs == sorted(pairs)
        for u, v in pairs:
            assert u < v
            assert not host.has_edge(u, v)

    def test_deterministic(self):
        host = gnp_sample(100, 0.3, seed=1)
        assert sample_non_edges(host, 40, seed=9) == sample_non_edges(
            host, 40, seed=9
        )


class TestMembership:
    def test_empty_host_symmetry(self):
        # k = 3 here; every trial returns exactly 3 of the 20 vertices,
        # uniformly, so vertex frequency is 3/20 and pair frequency is
        # the hypergeometric 3*2/(20*19).
        host = empty_graph(20)
        ps = ParamSet(20, 0.1)
        assert ps.k == 3
        rep = estimate_membership(host, ps, trials=20_000, seed=4)
        assert rep.sum_sizes == 3 * rep.trials
        assert sum(rep.per_vertex_count) == rep.sum_sizes
        sig_v = math.sqrt(0.15 * 0.85 / rep.trials)
        assert max(abs(f - 0.15) for f in rep.per_vertex_freq) < 5 * sig_v
        assert len(rep.pair_freq) == 190
        p_pair = 3 * 2 / (20 * 19)
        sig_p = math.sqrt(p_pair * (1 - p_pair) / rep.trials)
        assert max(abs(p.freq - p_pair) for p in rep.pair_freq) < 5 * sig_p
        assert rep.predicted_vertex == pytest.approx(3 / 20)
        assert rep.predicted_pair == pytest.approx((3 / 20) ** 2)

    def test_complete_host_one_vertex_per_trial(self):
        host = complete(30)
        ps = ParamSet(30, 0.5)
        rep = estimate_membership(host, ps, trials=3_000, seed=0)
        assert rep.sum_sizes == rep.trials
        assert sum(rep.per_vertex_count) == rep.trials
        assert rep.pair_freq == []

    def test_count_identity_and_pair_caps(self):
        host = gnp_sample(200, 0.1, seed=3)
        ps = ParamSet(200, 0.1)
        rep = estimate_membership(host, ps, trials=1_500, seed=7, pair_sample=50)
        assert sum(rep.per_vertex_count) == rep.sum_sizes
        for u, v, c, f, r in rep.pair_freq:
            assert c <= min(rep.per_vertex_count[u], rep.per_vertex_count[v])
            assert f == c / rep.trials
            assert r == 3 * math.sqrt(f * (1 - f) / rep.trials)
        for f, c in zip(rep.per_vertex_freq, rep.per_vertex_count):
            assert f == c / rep.trials

    def test_thread_count_invisible(self):
        host = gnp_sample(120, 0.1, seed=2)
        ps = ParamSet(120, 0.1)
        a = estimate_membership(host, ps, trials=4_097, seed=5, threads=1)
        b = estimate_membership(host, ps, trials=4_097, seed=5, threads=2)
        assert a == b

    def test_no_pair_sample(self):
        # empty pair index arrays count nothing and leave the vertex counts
        host = gnp_sample(120, 0.1, seed=2)
        ps = ParamSet(120, 0.1)
        full = estimate_membership(host, ps, trials=4_097, seed=5)
        for threads in (1, 2):
            rep = estimate_membership(host, ps, trials=4_097, seed=5, pair_sample=0,
                                      threads=threads)
            assert rep.pair_freq == []
            assert rep.per_vertex_count == full.per_vertex_count
            assert rep.sum_sizes == full.sum_sizes

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no pool without os.fork")
    def test_pooled_run_leaves_the_parent_only_the_tested_rows(self):
        # past one chunk the forked workers run every trial, and the pairs
        # sample_non_edges tests are read from the packed words, so the
        # parent builds no int row
        host = gnp_sample(500, 0.05, seed=3)
        ps = ParamSet(500, 0.05)
        rep = estimate_membership(host, ps, trials=mc._LIGHT_CHUNK + 1, seed=7, threads=2)
        assert len(rep.pair_freq) == mc.PAIR_SAMPLE_DEFAULT
        assert host._rows is None

    def test_validation(self):
        host = empty_graph(20)
        with pytest.raises(ValueError, match="trials"):
            estimate_membership(host, ParamSet(20, 0.1), trials=0, seed=0)
        with pytest.raises(ValueError, match="n=30"):
            estimate_membership(host, ParamSet(30, 0.1), trials=10, seed=0)


class TestExactInclusionLaw:
    """`estimate_membership` against the exact law of `exact_greedy`."""

    def test_oracle_closed_forms(self):
        vertex, pair = inclusion_law(empty_graph(20), 3)
        assert vertex == pytest.approx(np.full(20, 3 / 20))
        off = ~np.eye(20, dtype=bool)
        assert pair[off] == pytest.approx(np.full(380, 6 / 380))
        assert not pair.diagonal().any()
        vertex, pair = inclusion_law(complete_bipartite(10, 20), 3)
        assert pair[0, 1] == pytest.approx(1 / 45)  # greedy_exact of K_10,20
        assert pair[0, 10] == 0.0  # an edge
        assert vertex.sum() == pytest.approx(3.0)

    @pytest.mark.parametrize("n, p, seed, k", [(16, 0.3, 3, 5), (18, 0.25, 4, 6)])
    def test_membership_within_five_sigma(self, n, p, seed, k):
        host = gnp_sample(n, p, seed)
        ps = ParamSet(n, p, k_coef=1.0)
        assert ps.k == k
        vertex, pair = inclusion_law(host, k)
        rep = estimate_membership(host, ps, trials=20_000, seed=7)
        assert [(q.u, q.v) for q in rep.pair_freq] == list(non_edges(host))
        cells = [(f, vertex[v]) for v, f in enumerate(rep.per_vertex_freq)]
        cells += [(q.freq, pair[q.u, q.v]) for q in rep.pair_freq]
        for freq, exact in cells:
            assert 0.0 < exact < 1.0
            sigma = math.sqrt(exact * (1 - exact) / rep.trials)
            assert abs(freq - exact) <= 5 * sigma, (freq, exact)


class TestConditionalChain:
    def test_empty_host_first_step(self):
        # i = 1: the chain event at step 1 is exactly {v_1 = u}, a 1/n draw.
        host = empty_graph(10)
        ps = ParamSet(10, 0.5, k_coef=2.0)
        assert ps.k >= 3
        est = estimate_conditional_chain(
            host, ps, i=1, j=2, u=3, v=7, trials=30_000, seed=11
        )
        assert est.path == "light"
        assert est.counts[0] == est.trials
        assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))
        sig1 = math.sqrt(0.1 * 0.9 / est.trials)
        assert abs(est.counts[1] / est.trials - 0.1) < 4 * sig1
        # conditioned on v_1 = u, step 2 picks v from the 9 leftovers
        assert est.counts[1] >= 100
        sig2 = math.sqrt((1 / 9) * (8 / 9) / est.counts[1])
        assert abs(est.freq_chain[1] - 1 / 9) < 4 * sig2
        # identities, exact on counts
        for t in range(1, est.j + 1):
            assert est.freq_chain[t - 1] == est.counts[t] / est.counts[t - 1]
        assert est.joint_freq == est.counts[est.j] / est.trials
        assert est.insufficient == []

    def test_empty_host_survival_cells(self):
        # i = 2: step 1 keeps the trial alive iff the pick misses {u, v}.
        host = empty_graph(10)
        ps = ParamSet(10, 0.5, k_coef=2.0)
        est = estimate_conditional_chain(
            host, ps, i=2, j=3, u=0, v=9, trials=30_000, seed=2
        )
        sig1 = math.sqrt(0.8 * 0.2 / est.trials)
        assert abs(est.freq_chain[0] - 0.8) < 4 * sig1
        sig2 = math.sqrt((1 / 9) * (8 / 9) / est.counts[1])
        assert abs(est.freq_chain[1] - 1 / 9) < 4 * sig2
        sig3 = math.sqrt((1 / 8) * (7 / 8) / est.counts[2])
        assert abs(est.freq_chain[2] - 1 / 8) < 4 * sig3

    def test_prediction_table_shape(self):
        host = empty_graph(10)
        ps = ParamSet(10, 0.5, k_coef=2.0)
        est = estimate_conditional_chain(
            host, ps, i=2, j=4, u=0, v=9, trials=200, seed=0
        )
        ts = [p["t"] for p in est.predictions]
        assert ts == [1, 2, 3, 4]
        # before i: both survive, center 1 - 2p; between: center 1 - p;
        # at i and j: center (1-p)^(1-t) / n
        assert est.predictions[0]["center"] == pytest.approx(1 - 2 * 0.5)
        assert est.predictions[1]["center"] == pytest.approx((0.5 ** -1) / 10)
        assert est.predictions[2]["center"] == pytest.approx(1 - 0.5)
        assert est.predictions[3]["center"] == pytest.approx((0.5 ** -3) / 10)
        assert est.predicted_joint == pytest.approx(
            math.prod(p["center"] for p in est.predictions)
        )

    @pytest.mark.parametrize(
        "make_host,ps,i,j,pair,trials,seed,path",
        [
            (lambda: gnp_sample(100, 0.3, seed=6), ParamSet(100, 0.3), 2, 4, None,
             400, 13, "light"),
            # the full path on a host far denser than its ParamSet: runs
            # exhaust after 1-3 of the k = 6 steps
            (lambda: gnp_sample(40, 0.9, seed=1), ParamSet(40, 0.05), 1, 2, None,
             1500, 5, "full"),
            # the full path where every trial leaves the envelope at step 1
            (lambda: disjoint_cliques(100, 100), ParamSet(200, 0.02), 1, 2, None,
             300, 3, "full"),
            # the full path where the step-1 rail cuts some chain-holding
            # trials (a K2 pick) but not all (a K20 pick)
            (lambda: disjoint_cliques(*CLIQUES), CLIQUES_FULL, 2, 3, (20, 24),
             1500, 4, "full"),
        ],
        ids=["gnp100-light", "gnp40-dense-full", "two-cliques-full", "cliques-full"],
    )
    def test_light_walker_matches_recorded_runs(
        self, make_host, ps, i, j, pair, trials, seed, path
    ):
        # Same streams, two engines: the chain walker must agree with the
        # event evaluated on fully recorded runs, trial by trial.
        host = make_host()
        assert ps.k >= j
        u, v = pair or next(iter(non_edges(host)))
        est = estimate_conditional_chain(host, ps, i, j, u, v, trials, seed)
        assert est.path == path
        counts = [trials] + [0] * j
        for t in range(trials):
            prun = run_with_generator(host, ps, numpy_stream(seed, rng.CHAIN, t))
            for step_t in range(1, j + 1):
                if step_t > prun.completed_steps:
                    break
                if not all(r.in_envelope for r in prun.records[:step_t]):
                    break
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
                counts[step_t] += 1
        assert est.counts == counts

    @pytest.mark.parametrize(
        "ps,lower,path,law,seed",
        [
            # step 1 keeps 22 of 29 picks; u is then one of 9 active vertices
            # after a K20 pick (20/29) or of 27 after a K2 pick (2/29), and v
            # one of 5 or of 23
            (CLIQUES_LIGHT, None, "light",
             [Fraction(22, 29), Fraction(62, 783), Fraction(278, 18009)], 31),
            # the rail cuts the K2 picks, so only the K20 branch is left
            (CLIQUES_FULL, None, "full",
             [Fraction(20, 29), Fraction(20, 261), Fraction(4, 261)], 32),
            # a lower rail above 0 (a ParamSet reaches one only with n >= 700
            # and pn within about 1e-4 of 1) cuts every trial that leaves the
            # K2 active: the K2 branch is left
            (CLIQUES_LIGHT, 1.5, "full",
             [Fraction(2, 29), Fraction(2, 783), Fraction(2, 18009)], 33),
        ],
        ids=["light", "full", "lower-rail"],
    )
    def test_counts_match_exact_chain_law(
        self, monkeypatch, ps, lower, path, law, seed
    ):
        if lower is not None:
            def lifted(ps, t):
                return dataclasses.replace(envelope(ps, t), lower=lower)

            monkeypatch.setattr(mc, "envelope", lifted)
            monkeypatch.setattr(exact_greedy, "envelope", lifted)
        host = disjoint_cliques(*CLIQUES)
        assert chain_law(host, ps, 2, 3, 20, 24) == law
        trials = 100_000
        est = estimate_conditional_chain(host, ps, 2, 3, 20, 24, trials, seed)
        assert est.path == path
        for count, p in zip(est.counts[1:], law):
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(count - trials * p) <= 5 * sigma, (count, float(p))

    def test_insufficient_cells_flagged(self):
        host = empty_graph(10)
        ps = ParamSet(10, 0.5, k_coef=2.0)
        est = estimate_conditional_chain(
            host, ps, i=1, j=2, u=3, v=7, trials=50, seed=0
        )
        assert est.freq_chain[0] is None
        assert 1 in est.insufficient

    def test_stopping_condition_zeroes_chain(self):
        # Two disjoint cliques: step 1 always leaves a clique whose common
        # degree tops the envelope, so the no-violation requirement kills
        # every trial at step 1 regardless of which vertex was chosen.
        host = disjoint_cliques(100, 100)
        ps = ParamSet(200, 0.02)
        est = estimate_conditional_chain(
            host, ps, i=1, j=2, u=0, v=100, trials=300, seed=3
        )
        assert est.path == "full"
        assert est.counts == [300, 0, 0]
        assert est.freq_chain[0] == 0.0
        assert est.freq_chain[1] is None
        assert est.insufficient == [2]
        assert est.joint_freq == 0.0

    def test_determinism(self):
        host = empty_graph(12)
        ps = ParamSet(12, 0.5, k_coef=2.0)
        a = estimate_conditional_chain(host, ps, 1, 2, 0, 1, 500, seed=8)
        b = estimate_conditional_chain(host, ps, 1, 2, 0, 1, 500, seed=8)
        assert plain(a) == plain(b)

    def test_validation(self):
        host = gnp_sample(50, 0.2, seed=0)
        ps = ParamSet(50, 0.2)
        u, v = next(iter(non_edges(host)))
        eu, ev = next(
            (a, b) for a in range(50) for b in range(50) if host.has_edge(a, b)
        )
        with pytest.raises(ValueError, match="1 <= i < j <= k"):
            estimate_conditional_chain(host, ps, 0, 2, u, v, 10, 0)
        with pytest.raises(ValueError, match="1 <= i < j <= k"):
            estimate_conditional_chain(host, ps, 2, 2, u, v, 10, 0)
        with pytest.raises(ValueError, match="1 <= i < j <= k"):
            estimate_conditional_chain(host, ps, 1, ps.k + 1, u, v, 10, 0)
        with pytest.raises(ValueError, match="non-edge"):
            estimate_conditional_chain(host, ps, 1, 2, eu, ev, 10, 0)
        with pytest.raises(ValueError, match="distinct"):
            estimate_conditional_chain(host, ps, 1, 2, u, u, 10, 0)
        for bad in (-1, 50):
            with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.49$"):
                estimate_conditional_chain(host, ps, 1, 2, u, bad, 10, 0)
        with pytest.raises(ValueError, match="trials"):
            estimate_conditional_chain(host, ps, 1, 2, u, v, 0, 0)


    def test_numpy_pair_serializes(self):
        host = gnp_sample(50, 0.2, seed=0)
        ps = ParamSet(50, 0.2)
        u, v = next(iter(non_edges(host)))
        est = estimate_conditional_chain(host, ps, 1, 2, np.int64(u), np.int64(v), 200, 3)
        assert type(est.u) is int and type(est.v) is int
        json.dumps(plain(est))
        assert plain(est) == plain(estimate_conditional_chain(host, ps, 1, 2, u, v, 200, 3))


# the four pooled estimators; each takes (host, ps, u, v, trials, threads)
POOLED = {
    "ensemble_run": lambda h, ps, u, v, trials, threads: ensemble_run(
        h, ps, trials, 0, threads=threads
    ),
    "estimate_membership": lambda h, ps, u, v, trials, threads: estimate_membership(
        h, ps, trials, 0, threads=threads
    ),
    "estimate_conditional_chain": lambda h, ps, u, v, trials, threads: (
        estimate_conditional_chain(h, ps, 1, 2, u, v, trials, 0, threads=threads)
    ),
    "bipartite_comparison": lambda h, ps, u, v, trials, threads: bipartite_comparison(
        5, 5, 2, trials, 0, threads=threads
    ),
}


@pytest.mark.parametrize("call", POOLED.values(), ids=POOLED.keys())
def test_pooled_estimators_reject_zero_trials_before_forking(call, monkeypatch):
    # chunked_map holds the one check of the trial and thread counts
    host = gnp_sample(50, 0.2, seed=0)
    ps = ParamSet(50, 0.2)
    u, v = next(iter(non_edges(host)))

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        call(host, ps, u, v, trials=0, threads=2)
    for threads in (0, -3):
        with pytest.raises(ValueError, match=r"^threads must be >= 1$"):
            call(host, ps, u, v, trials=10, threads=threads)


class TestUniformIndependentSet:
    def test_two_class_host_closed_form(self):
        # 1260 independent triples; a uniform sampler must hit all of them
        # and put the right mass on the smaller class.
        host = complete_bipartite(10, 20)
        draws = 25_200
        seen: dict[int, int] = {}
        class_a = 0
        for t in range(draws):
            vs = uniform_independent_set(host, 3, seed=1, index=t)
            assert vs.size == 3
            seen[vs.members] = seen.get(vs.members, 0) + 1
            if vs.members < (1 << 10):
                class_a += 1
        assert len(seen) == 1260
        assert all(is_independent(host, VertexSet(30, m)) for m in seen)
        expect_a = draws * 120 / 1260
        sigma_a = math.sqrt(draws * (120 / 1260) * (1140 / 1260))
        assert abs(class_a - expect_a) < 4.5 * sigma_a

    def test_empty_host_uniform_over_triples(self):
        host = empty_graph(10)
        draws = 6_000
        counts: dict[int, int] = {}
        for t in range(draws):
            vs = uniform_independent_set(host, 3, seed=2, index=t)
            counts[vs.members] = counts.get(vs.members, 0) + 1
        assert len(counts) == 120
        assert all(abs(c - 50) < 35 for c in counts.values())

    def test_enumeration_matches_bruteforce(self):
        host = gnp_sample(12, 0.3, seed=5)
        oracle = {
            sum(1 << v for v in trip)
            for trip in itertools.combinations(range(12), 3)
            if is_independent(host, VertexSet.from_iterable(12, trip))
        }
        assert len(oracle) > 10
        seen = set()
        for t in range(3_000):
            vs = uniform_independent_set(host, 3, seed=4, index=t)
            assert vs.members in oracle
            seen.add(vs.members)
        assert seen == oracle

    def test_rejection_mode(self):
        host = gnp_sample(40, 0.2, seed=1)
        vs = uniform_independent_set(host, 4, seed=6, mode="rejection")
        assert vs.size == 4
        assert is_independent(host, vs)
        again = uniform_independent_set(host, 4, seed=6, mode="rejection")
        assert vs == again

    def test_rejection_cap(self, monkeypatch):
        monkeypatch.setattr(mc, "REJECTION_CAP", 50)
        with pytest.raises(ValueError, match="rejection infeasible"):
            uniform_independent_set(complete(8), 2, seed=0, mode="rejection")

    def test_exact_errors(self):
        with pytest.raises(ValueError, match="no independent 2-set"):
            uniform_independent_set(complete(6), 2, seed=0)
        with pytest.raises(ValueError, match="n <= 30"):
            uniform_independent_set(gnp_sample(40, 0.2, seed=1), 3, seed=0)
        with pytest.raises(ValueError, match="unknown mode"):
            uniform_independent_set(empty_graph(5), 2, seed=0, mode="magic")
        with pytest.raises(ValueError, match="k must be"):
            uniform_independent_set(empty_graph(5), 0, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            uniform_independent_set(empty_graph(5), 6, seed=0)

    @pytest.mark.parametrize(
        "cap, k, msg",
        [
            (None, 3, "no independent 3-set"),
            (1, 3, "exact enumeration too large"),
            (2, 2, "independent k-sets; use rejection mode"),
        ],
        ids=["no_kset", "work_cap", "set_cap"],
    )
    def test_enumeration_errors(self, cap, k, msg, monkeypatch):
        # C5 is not complete multipartite, so exact mode enumerates its k-sets
        if cap is not None:
            monkeypatch.setattr(mc, "ENUM_CAP", cap)
        c5 = Graph.from_rows([(1 << ((v + 1) % 5)) | (1 << ((v - 1) % 5)) for v in range(5)])
        with pytest.raises(ValueError, match=msg):
            uniform_independent_set(c5, k, seed=0)

    def test_index_separates_draws(self):
        host = empty_graph(20)
        a = uniform_independent_set(host, 5, seed=3, index=0)
        b = uniform_independent_set(host, 5, seed=3, index=1)
        c = uniform_independent_set(host, 5, seed=3, index=0)
        assert a == c
        assert a != b


def _non_adjacency_classes(host):
    """Oracle: the classes of u ~ v iff u == v or uv is not an edge, when
    that relation is an equivalence relation (checked over all triples);
    None otherwise."""
    n = host.n
    same = [[u == v or not host.has_edge(u, v) for v in range(n)] for u in range(n)]
    for u, v, w in itertools.product(range(n), repeat=3):
        if same[u][v] and same[v][w] and not same[u][w]:
            return None
    parts = []
    for v in range(n):
        if not any(v in part for part in parts):
            parts.append([w for w in range(n) if same[v][w]])
    return parts


def _graph_from(n, adjacent):
    return Graph.from_rows(
        [sum(1 << w for w in range(n) if w != v and adjacent(v, w)) for v in range(n)]
    )


class TestComplementCliqueParts:
    def test_matches_equivalence_oracle(self):
        # three families on n <= 12: G(n, p); complete multipartite hosts
        # with shuffled class labels; those hosts with one pair toggled
        hosts = []
        for t in range(150):
            r = random.Random(t)
            n = r.randint(1, 12)
            hosts.append(gnp_sample(n, r.choice([0.1, 0.3, 0.5, 0.7, 0.9]), seed=t))
            label = [r.randrange(r.randint(1, n)) for _ in range(n)]
            multi = _graph_from(n, lambda v, w: label[v] != label[w])
            hosts.append(multi)
            if n >= 2:
                a, b = r.sample(range(n), 2)
                hosts.append(
                    _graph_from(
                        n, lambda v, w: multi.has_edge(v, w) != ({v, w} == {a, b})
                    )
                )
        found = 0
        for host in hosts:
            want = _non_adjacency_classes(host)
            assert mc._complement_clique_parts(host) == want
            found += want is not None
        assert 0 < found < len(hosts)


class TestBipartiteComparison:
    def test_exact_values_asymmetric(self):
        rep = bipartite_comparison(10, 20, 3, trials=40_000, seed=5)
        assert rep.uniform_exact == Fraction(8, 1260)
        assert rep.greedy_exact == Fraction(1, 45)
        assert rep.ratio_exact == Fraction(7, 2)
        assert abs(rep.greedy_estimate - 1 / 45) < 4 * rep.estimate_sigma
        assert rep.ratio_estimate == pytest.approx(
            rep.greedy_estimate / float(rep.uniform_exact)
        )

    def test_equal_classes_ratio_one(self):
        rep = bipartite_comparison(12, 12, 4, trials=100, seed=0)
        assert rep.ratio_exact == 1
        assert rep.uniform_exact == rep.greedy_exact

    def test_tiny_class_amplification(self):
        # a = 2, b = 20, k = 2: the uniform chance of the unique in-class
        # pair is 1/191, greedy lifts it to 1/11.
        rep = bipartite_comparison(2, 20, 2, trials=30_000, seed=7)
        assert rep.uniform_exact == Fraction(1, 191)
        assert rep.greedy_exact == Fraction(1, 11)
        assert rep.ratio_exact == Fraction(191, 11)
        assert abs(rep.greedy_estimate - 1 / 11) < 4 * rep.estimate_sigma

    def test_serialization(self):
        rep = bipartite_comparison(10, 20, 3, trials=200, seed=1)
        d = plain(rep)
        assert d["uniform_exact"] == "2/315"
        assert d["ratio_exact_float"] == pytest.approx(3.5)
        assert d["trials"] == 200

    def test_validation(self):
        with pytest.raises(ValueError, match="a >= k >= 2"):
            bipartite_comparison(3, 5, 4, 10, 0)
        with pytest.raises(ValueError, match="a >= k >= 2"):
            bipartite_comparison(5, 5, 1, 10, 0)
        with pytest.raises(ValueError, match="b >= 1"):
            bipartite_comparison(5, 0, 2, 10, 0)
        with pytest.raises(ValueError, match="trials"):
            bipartite_comparison(5, 5, 2, 0, 0)
