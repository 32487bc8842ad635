"""Estimator tests.

Statistical assertions use exact reference probabilities (symmetry or
closed-form combinatorics) with wide sigma guards; identity assertions
(count conservation, chain products) are exact on integers.  The light
chain walker is cross-checked trial by trial against fully recorded runs
driven from the same streams.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from greedycover import montecarlo as mc
from greedycover import rng
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
from greedycover.params import ParamSet
from greedycover.process import run_with_generator


def empty_graph(n):
    return Graph.from_rows([0] * n)


def complete(n):
    full = (1 << n) - 1
    return Graph.from_rows([full ^ (1 << v) for v in range(n)])


def two_cliques(half):
    n = 2 * half
    mask_a = (1 << half) - 1
    mask_b = ((1 << n) - 1) ^ mask_a
    rows = [(mask_a if v < half else mask_b) ^ (1 << v) for v in range(n)]
    return Graph.from_rows(rows)


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
        assert len(rep.pairs) == 190
        p_pair = 3 * 2 / (20 * 19)
        sig_p = math.sqrt(p_pair * (1 - p_pair) / rep.trials)
        assert max(abs(f - p_pair) for f in rep.pair_freq) < 5 * sig_p
        assert rep.predicted_vertex == pytest.approx(3 / 20)
        assert rep.predicted_pair == pytest.approx((3 / 20) ** 2)

    def test_complete_host_one_vertex_per_trial(self):
        host = complete(30)
        ps = ParamSet(30, 0.5)
        rep = estimate_membership(host, ps, trials=3_000, seed=0)
        assert rep.sum_sizes == rep.trials
        assert sum(rep.per_vertex_count) == rep.trials
        assert rep.pairs == []
        assert rep.pair_freq == []

    def test_count_identity_and_pair_caps(self):
        host = gnp_sample(200, 0.1, seed=3)
        ps = ParamSet(200, 0.1)
        rep = estimate_membership(host, ps, trials=1_500, seed=7, pair_sample=50)
        assert sum(rep.per_vertex_count) == rep.sum_sizes
        for (u, v), c in zip(rep.pairs, rep.pair_count):
            assert c <= min(rep.per_vertex_count[u], rep.per_vertex_count[v])
        for f, c in zip(rep.per_vertex_freq, rep.per_vertex_count):
            assert f == c / rep.trials

    def test_thread_count_invisible(self):
        host = gnp_sample(120, 0.1, seed=2)
        ps = ParamSet(120, 0.1)
        a = estimate_membership(host, ps, trials=4_097, seed=5, threads=1)
        b = estimate_membership(host, ps, trials=4_097, seed=5, threads=2)
        assert a.to_dict() == b.to_dict()

    def test_validation(self):
        host = empty_graph(20)
        with pytest.raises(ValueError, match="trials"):
            estimate_membership(host, ParamSet(20, 0.1), trials=0, seed=0)
        with pytest.raises(ValueError, match="n=30"):
            estimate_membership(host, ParamSet(30, 0.1), trials=10, seed=0)


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

    def test_light_walker_matches_recorded_runs(self):
        # Same streams, two engines: the light walker must agree with the
        # event evaluated on fully recorded runs, trial by trial.
        host = gnp_sample(100, 0.3, seed=6)
        ps = ParamSet(100, 0.3)
        assert ps.k >= 4
        u, v = next(iter(non_edges(host)))
        trials, seed, i, j = 400, 13, 2, 4
        est = estimate_conditional_chain(host, ps, i, j, u, v, trials, seed)
        assert est.path == "light"
        counts = [trials] + [0] * j
        for t in range(trials):
            prun = run_with_generator(host, ps, rng.stream(seed, rng.CHAIN, t))
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

    def test_insufficient_cells_flagged(self):
        host = empty_graph(10)
        ps = ParamSet(10, 0.5, k_coef=2.0)
        est = estimate_conditional_chain(
            host, ps, i=1, j=2, u=3, v=7, trials=50, seed=0
        )
        assert est.freq_chain[0] is None
        assert 1 in est.insufficient

    @pytest.mark.parametrize(
        "flags,tau,expect",
        [
            ([], 0, 0),  # no step completed
            ([True, True, True], 3, 3),  # no violation: tau = completed
            ([True, True, False], 3, 2),  # violation at the last step
            ([True, False, True, True], 2, 1),  # violation before the end
            ([False, False], 1, 0),
        ],
    )
    def test_steps_in_envelope_reads_tau(self, flags, tau, expect):
        # tau == completed_steps is ambiguous on its own: the last record
        # decides whether it is a violation or the end of a clean run
        records = [SimpleNamespace(in_envelope=f) for f in flags]
        prun = SimpleNamespace(tau=tau, completed_steps=len(flags), records=records)
        assert mc._steps_in_envelope(prun) == expect
        assert expect == next(
            (s for s, r in enumerate(records) if not r.in_envelope), len(records)
        )

    def test_stopping_condition_zeroes_chain(self):
        # Two disjoint cliques: step 1 always leaves a clique whose common
        # degree tops the envelope, so the no-violation requirement kills
        # every trial at step 1 regardless of which vertex was chosen.
        host = two_cliques(100)
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
        assert a.to_dict() == b.to_dict()

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
        with pytest.raises(ValueError, match="trials"):
            estimate_conditional_chain(host, ps, 1, 2, u, v, 0, 0)


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

    def test_index_separates_draws(self):
        host = empty_graph(20)
        a = uniform_independent_set(host, 5, seed=3, index=0)
        b = uniform_independent_set(host, 5, seed=3, index=1)
        c = uniform_independent_set(host, 5, seed=3, index=0)
        assert a == c
        assert a != b


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
        d = rep.to_dict()
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
