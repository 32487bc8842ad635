"""Process engine tests.

The main oracle replays a recorded choice order with plain Python sets,
recomputing the active set and every induced degree from scratch after each
step, and checks the engine's incremental bookkeeping against it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from greedycover import rng
from greedycover.cli import plain
from greedycover.graph import (
    Graph,
    VertexSet,
    complete_bipartite,
    gnp_sample,
    is_independent,
)
from greedycover.params import ParamSet, envelope, error_f, expected_degree
from greedycover.process import (
    chunked_map,
    ensemble_run,
    increment_bound,
    increment_diagnostics,
    init,
    run,
    sample_independent_set,
    step,
)
from numpy_oracle import numpy_stream

TOL = 1e-9


def replay(host, order):
    """Snapshots (active set, degree dict) after each step of `order`."""
    active = set(range(host.n))
    out = []
    for v in order:
        assert v in active, "chosen vertex was not active"
        active -= {v} | set(host.neighbors(v))
        degs = {w: len(set(host.neighbors(w)) & active) for w in active}
        out.append((set(active), degs))
    return out


def empty_graph(n):
    return Graph.from_rows([0] * n)


def two_cliques(half):
    """Disjoint union of two cliques on `half` vertices each."""
    n = 2 * half
    mask_a = (1 << half) - 1
    mask_b = ((1 << n) - 1) ^ mask_a
    rows = [
        (mask_a if v < half else mask_b) ^ (1 << v) for v in range(n)
    ]
    return Graph.from_rows(rows)


class TestStepMechanics:
    def test_against_replay_oracle(self):
        host = gnp_sample(80, 0.2, seed=7)
        ps = ParamSet(80, 0.2)
        r = run(host, ps, seed=11)
        snaps = replay(host, r.order)
        assert len(snaps) == r.completed_steps == len(r.records)
        for rec, (active, degs) in zip(r.records, snaps):
            assert rec.active_size == len(active)
            if active:
                assert rec.deg_min == min(degs.values())
                assert rec.deg_max == max(degs.values())
                assert abs(rec.deg_mean - sum(degs.values()) / len(degs)) < TOL
            else:
                assert rec.deg_min is None and rec.deg_max is None

    def test_incremental_state_matches_oracle(self):
        host = gnp_sample(60, 0.25, seed=3)
        ps = ParamSet(60, 0.25)
        state = init(host, ps)
        order = []
        for u in numpy_stream(5, rng.RUN, 0).random(ps.k):
            rec = step(state, u)
            if rec is None:
                break
            order.append(rec.chosen_vertex)
            active, degs = replay(host, order)[-1]
            assert set(state.active) == active
            assert set(state.ids) == active
            for w in active:
                assert state.pos[w] >= 0 and state.ids[state.pos[w]] == w
                assert state.degrees[w] == degs[w]
            assert state.chosen == tuple(order)

    def test_forced_first_pick_star(self):
        # leaf first: removes the leaf and the centre, isolating the rest
        n = 20
        rows = [((1 << n) - 2)] + [1] * (n - 1)
        host = Graph.from_rows(rows)
        ps = ParamSet(n, 0.1)
        state = init(state_host := host, ps)
        rec = step(state, (3 + 0.5) / n)
        assert rec.chosen_vertex == 3
        assert rec.active_size == n - 2
        assert rec.deg_min == rec.deg_max == 0
        assert 0 not in state.active and 3 not in state.active

        # centre first: one step exhausts the graph
        state = init(state_host, ps)
        rec = step(state, 0.5 / n)
        assert rec.chosen_vertex == 0
        assert rec.active_size == 0
        assert rec.deg_min is None and rec.in_envelope
        assert step(state, 0.5) is None

    def test_complete_graph_one_step(self):
        half = 12
        n = 2 * half
        rows = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
        host = Graph.from_rows(rows)
        ps = ParamSet(n, 0.1)
        r = run(host, ps, seed=0)
        assert r.completed_steps == 1
        assert r.chosen.size == 1
        assert r.records[0].active_size == 0
        assert r.records[0].in_envelope

    def test_empty_graph_trajectory(self):
        n = 40
        host = empty_graph(n)
        ps = ParamSet(n, 0.2)
        r = run(host, ps, seed=2)
        assert r.completed_steps == ps.k
        for t, rec in enumerate(r.records, start=1):
            assert rec.active_size == n - t
            assert rec.deg_min == rec.deg_max == 0
            assert rec.in_envelope  # f_0 > 1 here, interval straddles 0
        assert r.tau == ps.k


class TestRunContract:
    def test_determinism_and_stream_separation(self):
        host = gnp_sample(70, 0.15, seed=1)
        ps = ParamSet(70, 0.15)
        a = run(host, ps, seed=9)
        b = run(host, ps, seed=9)
        assert a.order == b.order and a.records == b.records
        assert a.order != run(host, ps, seed=10).order
        assert a.order != run(host, ps, seed=9, index=1).order

    def test_chosen_is_independent(self):
        for seed in range(5):
            host = gnp_sample(90, 0.2, seed=seed)
            r = run(host, ParamSet(90, 0.2), seed=seed + 100)
            assert is_independent(host, r.chosen)
            assert r.chosen.size == r.completed_steps
            assert list(r.order) == sorted(r.order, key=r.order.index)
            assert r.chosen.members == sum(1 << v for v in r.order)

    def test_active_size_strictly_decreasing(self):
        host = gnp_sample(100, 0.1, seed=4)
        r = run(host, ParamSet(100, 0.1), seed=4)
        sizes = [host.n] + [rec.active_size for rec in r.records]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_sigma_semantics(self):
        host = gnp_sample(50, 0.3, seed=8)
        ps = ParamSet(50, 0.3)
        r = run(host, ps, seed=8)
        snaps = replay(host, r.order)
        for v in range(host.n):
            firsts = [i + 1 for i, (act, _) in enumerate(snaps) if v not in act]
            expected = firsts[0] if firsts else r.completed_steps + 1
            assert r.sigma[v] == expected

    def test_tau_without_violation(self):
        host = gnp_sample(50, 0.3, seed=8)
        r = run(host, ParamSet(50, 0.3), seed=8)
        assert all(rec.in_envelope for rec in r.records)
        assert r.tau == r.completed_steps

    def test_tau_on_violation(self):
        # two disjoint half-size cliques: after step one the surviving clique
        # has induced degree half-1, far above the (1+f_1) d_tilde_1 ceiling
        host = two_cliques(100)
        ps = ParamSet(200, 0.02)
        r = run(host, ps, seed=3)
        assert r.completed_steps == 2
        assert not r.records[0].in_envelope
        assert r.tau == 1
        assert r.records[0].deg_max == 99
        env_hi = (1 + error_f(ps, 1)) * expected_degree(ps, 1)
        assert r.records[0].deg_max > env_hi

    @pytest.mark.parametrize(
        "host, ps, violates",
        [
            (gnp_sample(50, 0.3, seed=8), ParamSet(50, 0.3), False),
            (two_cliques(100), ParamSet(200, 0.02), True),
        ],
    )
    def test_records_read_params_envelope(self, host, ps, violates):
        r = run(host, ps, seed=3)
        assert any(not rec.in_envelope for rec in r.records) == violates
        for rec in r.records:
            e = envelope(ps, rec.i)
            assert (rec.d_tilde, rec.f_i) == (e.d_tilde, e.f_i)
            inside = rec.deg_min is None or (
                e.lower <= rec.deg_min and rec.deg_max <= e.upper
            )
            assert rec.in_envelope == inside

    def test_param_host_mismatch_rejected(self):
        host = gnp_sample(30, 0.2, seed=0)
        with pytest.raises(ValueError):
            run(host, ParamSet(40, 0.2), seed=0)

    def test_run_payload_shape(self):
        host = gnp_sample(30, 0.2, seed=0)
        d = plain(run(host, ParamSet(30, 0.2), seed=0))
        assert d["n"] == 30 and len(d["sigma"]) == 30
        assert d["completed_steps"] == len(d["records"])
        assert set(d["records"][0]) >= {
            "i", "chosen_vertex", "active_size", "deg_min", "deg_max",
            "d_tilde", "f_i", "in_envelope",
        }


class TestLightRunner:
    def test_matches_recording_engine(self):
        cases = [
            (gnp_sample(n, p, seed=seed), ParamSet(n, p), seed, False)
            for n, p, seed in [(60, 0.2, 0), (60, 0.2, 5), (120, 0.1, 2), (35, 0.4, 7)]
        ]
        # hosts on which the active set runs out before k steps
        complete = Graph.from_rows([((1 << 12) - 1) ^ (1 << v) for v in range(12)])
        star = Graph.from_rows([(1 << 20) - 2] + [1] * 19)  # at most 19 steps
        k35 = complete_bipartite(3, 5)  # at most 5 steps
        for seed in range(4):
            cases += [
                (complete, ParamSet(12, 0.5, k_coef=2.0), seed, True),  # k = 7
                (star, ParamSet(20, 0.1, k_coef=3.0), seed, True),  # k = 20
                (k35, ParamSet(8, 0.5, k_coef=3.0), seed, True),  # k = 8
            ]
        for host, ps, seed, exhausts in cases:
            full = run(host, ps, seed=seed + 50)
            light = sample_independent_set(
                host, ps.k, numpy_stream(seed + 50, rng.RUN, 0).random(ps.k)
            )
            assert light == full.chosen.members
            if exhausts:
                assert full.completed_steps < ps.k
                assert full.records[-1].active_size == 0

    def test_independent_output(self):
        host = gnp_sample(60, 0.2, seed=1)
        mask = sample_independent_set(host, 10, numpy_stream(4, rng.RUN, 0).random(10))
        vs = [v for v in range(60) if mask >> v & 1]
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                assert not host.has_edge(u, v)


class TestIncrements:
    def test_empty_graph_closed_form(self):
        # with no edges every degree stays 0, so each live increment is the
        # deterministic drift p*dt_{i-1}*(1 -/+ 16 f_{i-1})
        n, p = 40, 0.2
        host = empty_graph(n)
        ps = ParamSet(n, p)
        tracked = [35, 36, 37, 38, 39]
        stats = increment_diagnostics(host, tracked, run(host, ps, seed=6))
        assert stats.completed_steps == ps.k
        for ti, v in enumerate(tracked):
            if stats.rho[ti] != ps.k:
                continue  # v was chosen at some step; frozen thereafter
            for i in range(1, ps.k + 1):
                dt = expected_degree(ps, i - 1)
                f = error_f(ps, i - 1)
                assert abs(stats.dx_minus[ti, i - 1] - p * dt * (1 - 16 * f)) < TOL
                assert abs(stats.dx_plus[ti, i - 1] - p * dt * (1 + 16 * f)) < TOL

    def test_frozen_after_rho(self):
        host = gnp_sample(80, 0.2, seed=9)
        ps = ParamSet(80, 0.2)
        tracked = list(range(0, 80, 7))
        stats = increment_diagnostics(host, tracked, run(host, ps, seed=12))
        for ti in range(len(tracked)):
            r = stats.rho[ti]
            assert np.all(stats.dx_minus[ti, r:] == 0.0)
            assert np.all(stats.dx_plus[ti, r:] == 0.0)

    def test_rho_is_min_of_tau_and_departure(self):
        host = gnp_sample(80, 0.2, seed=9)
        ps = ParamSet(80, 0.2)
        tracked = list(range(80))
        prun = run(host, ps, seed=12)
        stats = increment_diagnostics(host, tracked, prun)
        for ti, v in enumerate(tracked):
            assert stats.rho[ti] == min(prun.tau, prun.sigma[v] - 1)

    def test_tracked_ids_any_integer_form(self):
        host = gnp_sample(80, 0.2, seed=9)
        ps = ParamSet(80, 0.2)
        prun = run(host, ps, seed=12)
        want = increment_diagnostics(host, [3, 40, 77], prun)
        for tracked in (VertexSet.from_iterable(80, [3, 40, 77]), np.array([3, 40, 77])):
            got = increment_diagnostics(host, tracked, prun)
            assert got.tracked == [3, 40, 77]
            assert all(type(v) is int for v in got.tracked)
            assert np.array_equal(got.dx_minus, want.dx_minus)
            assert np.array_equal(got.rho, want.rho)
        for bad in (-1, 80):
            with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.79$"):
                increment_diagnostics(host, [3, bad], prun)

    def test_violation_freezes_survivors(self):
        host = two_cliques(100)
        ps = ParamSet(200, 0.02)
        tracked = [10, 110]
        prun = run(host, ps, seed=3)
        stats = increment_diagnostics(host, tracked, prun)
        assert prun.tau == 1
        first = prun.order[0]
        survivor, victim = (1, 0) if first < 100 else (0, 1)
        # the surviving clique's vertex records the live step-1 increment,
        # then freezes at rho = tau = 1
        assert stats.rho[survivor] == 1
        dt0, f0 = expected_degree(ps, 0), error_f(ps, 0)
        drift = ps.p * dt0
        slack = 16 * ps.p * f0 * dt0
        assert abs(stats.dx_minus[survivor, 0] - (drift - slack)) < TOL
        assert abs(stats.dx_plus[survivor, 0] - (drift + slack)) < TOL
        assert np.all(stats.dx_minus[survivor, 1:] == 0.0)
        # the removed clique's vertex left at step 1: rho = 0, all frozen
        assert stats.rho[victim] == 0
        assert np.all(stats.dx_minus[victim] == 0.0)
        assert np.all(stats.dx_plus[victim] == 0.0)

    def test_x_update_matches_degree_definition(self):
        # a G(n, p) host; two cliques, which violate at step 1; K_{3,5} with
        # k above the 5 steps it can take; the empty graph.  On two_cliques(80)
        # the survivors' X^- after step 1 rounds differently if computed as
        # d - (dt + f * dt), so the float order is pinned too.
        cases = [
            (gnp_sample(60, 0.25, seed=14), ParamSet(60, 0.25), 21),
            (two_cliques(100), ParamSet(200, 0.02), 3),
            (two_cliques(80), ParamSet(160, 0.02), 3),
            (complete_bipartite(3, 5), ParamSet(8, 0.5, k_coef=3.0), 1),
            (empty_graph(40), ParamSet(40, 0.2), 6),
        ]
        for host, ps, seed in cases:
            tracked = list(range(host.n))
            prun = run(host, ps, seed=seed)
            stats = increment_diagnostics(host, tracked, prun)
            snaps = replay(host, prun.order)
            d0, f0 = expected_degree(ps, 0), error_f(ps, 0)
            for ti, v in enumerate(tracked):
                # x recomputed from the snapshots in the engine's float order
                x_m = host.degree(v) - d0 - f0 * d0
                x_p = host.degree(v) - d0 + f0 * d0
                assert stats.x0_minus[ti] == x_m
                assert stats.x0_plus[ti] == x_p
                rho = stats.rho[ti]
                for i in range(1, rho + 1):
                    _, degs = snaps[i - 1]
                    dt, f = expected_degree(ps, i), error_f(ps, i)
                    new_m = degs[v] - dt - f * dt
                    new_p = degs[v] - dt + f * dt
                    assert stats.dx_minus[ti, i - 1] == new_m - x_m
                    assert stats.dx_plus[ti, i - 1] == new_p - x_p
                    x_m, x_p = new_m, new_p
                assert np.all(stats.dx_minus[ti, rho:] == 0.0)
                assert np.all(stats.dx_plus[ti, rho:] == 0.0)
        # the cases reach what they are here for
        for host, ps, seed in cases[1:3]:
            assert run(host, ps, seed=seed).tau == 1
        k35 = run(*cases[3][:2], seed=1)
        assert k35.completed_steps < cases[3][1].k
        assert k35.records[-1].active_size == 0

    def test_mq_diagnostics(self):
        cases = [
            (gnp_sample(40, 0.3, seed=5), ParamSet(40, 0.3), [0, 17, 33]),
            (complete_bipartite(3, 5), ParamSet(8, 0.5, k_coef=3.0), list(range(8))),
        ]
        for host, ps, tracked in cases:
            n = host.n
            prun = run(host, ps, seed=5)
            stats = increment_diagnostics(host, tracked, prun, collect_mq=True)
            assert stats.m_vj.shape == (len(tracked), stats.completed_steps)
            snaps = [(set(range(n)), {w: host.degree(w) for w in range(n)})]
            snaps += replay(host, prun.order)
            for ti, v in enumerate(tracked):
                for j in range(stats.completed_steps):
                    act, degs = snaps[j]
                    if v not in act:
                        assert math.isnan(stats.m_vj[ti, j])
                        continue
                    outside = act - {v} - set(host.neighbors(v))
                    m = sum(
                        len(set(host.neighbors(u)) & set(host.neighbors(v)) & act)
                        for u in outside
                    )
                    assert stats.m_vj[ti, j] == m
                    assert abs(
                        stats.q_vj[ti, j] - (1 - (degs[v] + 1) / len(act))
                    ) < TOL

    def test_bound_abs_value(self):
        ps = ParamSet(1000, 0.05)
        want = 6 * 0.05**2 * 1000 + 128 * math.log(1000)
        assert abs(increment_bound(ps) - want) < TOL

    def test_tracked_validation(self):
        host = gnp_sample(30, 0.2, seed=0)
        with pytest.raises(ValueError):
            increment_diagnostics(host, [30], run(host, ParamSet(30, 0.2), seed=0))

    def test_run_of_another_size_rejected(self):
        prun = run(gnp_sample(30, 0.2, seed=0), ParamSet(30, 0.2), seed=0)
        with pytest.raises(ValueError, match="n=30"):
            increment_diagnostics(gnp_sample(31, 0.2, seed=0), [0], prun)

    def test_no_tracked_vertices(self):
        # an empty tracked list runs the derivation on empty arrays
        host = gnp_sample(40, 0.3, seed=5)
        prun = run(host, ParamSet(40, 0.3), seed=5)
        stats = increment_diagnostics(host, [], prun, collect_mq=True)
        steps = prun.completed_steps
        for arr in (stats.dx_minus, stats.dx_plus, stats.m_vj, stats.q_vj):
            assert arr.shape == (0, steps)
        assert stats.x0_minus.shape == stats.x0_plus.shape == (0,)
        assert stats.tracked == stats.rho == []
        assert stats.max_abs_increment == stats.mean_abs_increment == 0.0
        assert stats.bound_mean.shape == (steps,)


class TestEnsemble:
    def test_matches_individual_runs(self):
        host = gnp_sample(50, 0.2, seed=6)
        ps = ParamSet(50, 0.2)
        trials = 70  # three chunks
        summ = ensemble_run(host, ps, trials, seed=17)
        runs = [run(host, ps, 17, index=t) for t in range(trials)]
        assert summ.completed_steps == [r.completed_steps for r in runs]
        assert summ.set_sizes == [r.chosen.size for r in runs]
        assert summ.violation_runs == sum(
            any(not rec.in_envelope for rec in r.records) for r in runs
        )
        k = ps.k
        for i in range(1, k + 1):
            ratios = [
                rec.deg_mean / (ps.p * (rec.active_size - 1))
                for r in runs
                for rec in r.records
                if rec.i == i and rec.active_size > 1
            ]
            if not ratios:
                assert summ.step_counts[i - 1] == 0
                continue
            assert summ.step_counts[i - 1] == len(ratios)
            assert abs(summ.ratio_mean[i - 1] - sum(ratios) / len(ratios)) < TOL
            assert summ.ratio_min[i - 1] == min(ratios)
            assert summ.ratio_max[i - 1] == max(ratios)

    def test_thread_count_is_invisible(self):
        host = gnp_sample(50, 0.2, seed=6)
        ps = ParamSet(50, 0.2)
        one = ensemble_run(host, ps, 70, seed=3, tracked=(1, 2), threads=1)
        two = ensemble_run(host, ps, 70, seed=3, tracked=(1, 2), threads=2)
        assert plain(one) == plain(two)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no pool without os.fork")
    def test_pooled_ensemble_leaves_the_parent_host_packed(self, forks):
        # only the forked workers read rows, so each builds its own and the
        # parent keeps the packed words alone
        host = gnp_sample(60, 0.2, seed=6)
        ps = ParamSet(60, 0.2)
        two = ensemble_run(host, ps, 70, seed=3, tracked=(1, 2), threads=2)
        assert len(forks) == 2
        assert host._rows is None
        one = ensemble_run(gnp_sample(60, 0.2, seed=6), ps, 70, seed=3, tracked=(1, 2))
        assert plain(one) == plain(two)

    def test_drift_pooling(self):
        host = gnp_sample(50, 0.2, seed=6)
        ps = ParamSet(50, 0.2)
        tracked = (0, 10, 20)
        summ = ensemble_run(host, ps, 20, seed=5, tracked=tracked)
        pooled = []
        for t in range(20):
            stats = increment_diagnostics(host, tracked, run(host, ps, seed=5, index=t))
            for ti in range(len(tracked)):
                lim = min(stats.rho[ti], stats.completed_steps)
                pooled.extend(stats.dx_minus[ti, :lim])
        assert summ.dx_count == len(pooled) > 0
        assert abs(summ.dx_minus_mean - np.mean(pooled)) < TOL
        se = np.sqrt(
            max(np.mean(np.square(pooled)) - np.mean(pooled) ** 2, 0) / len(pooled)
        )
        assert abs(summ.dx_minus_se - se) < TOL

    def test_numpy_tracked_ids_serialize(self):
        host = gnp_sample(50, 0.2, seed=6)
        ps = ParamSet(50, 0.2)
        summ = ensemble_run(host, ps, 4, 1, tracked=np.arange(3))
        assert summ.tracked == [0, 1, 2]
        assert all(type(v) is int for v in summ.tracked)
        json.dumps(plain(summ))
        assert plain(summ) == plain(ensemble_run(host, ps, 4, 1, tracked=(0, 1, 2)))

    def test_all_violations_counted(self):
        host = two_cliques(100)
        ps = ParamSet(200, 0.02)
        summ = ensemble_run(host, ps, 10, seed=1)
        assert summ.violation_runs == 10
        assert summ.tau_equals_completed_fraction == 0.0

    def test_violation_on_last_step_keeps_tau_equal_completed(self):
        # k = 1: each run's one step violates, so tau == completed_steps == 1
        host = two_cliques(100)
        ps = ParamSet(200, 0.02, k_coef=0.02)
        summ = ensemble_run(host, ps, 10, seed=1)
        runs = [run(host, ps, 1, index=t) for t in range(10)]
        assert all(r.tau == r.completed_steps == 1 for r in runs)
        assert summ.violation_runs == 10
        assert summ.tau_equals_completed_fraction == 1.0

    def test_trials_validation(self):
        host = gnp_sample(30, 0.2, seed=0)
        with pytest.raises(ValueError):
            ensemble_run(host, ParamSet(30, 0.2), 0, seed=0)


def _span(start, stop):
    return start, stop


class _Counted:
    """Counts the times it is pickled in this process."""

    reductions = 0

    def __reduce__(self):
        _Counted.reductions += 1
        return (_Counted, ())


def _span_of(arg, start, stop):
    # the worker's own count: a pickle of the arguments on the way in
    return type(arg).__name__, _Counted.reductions, start, stop


def _fails_from_32(start, stop):
    if start >= 32:
        raise ValueError(f"chunk at {start} failed")
    return start


def _killed_at_32(start, stop):
    if start == 32:
        os.kill(os.getpid(), signal.SIGKILL)
    return start


def _sleeps(start, stop):
    time.sleep(60)


class _Unpicklable(Exception):
    def __init__(self, a, b):  # pickle rebuilds it with one argument
        super().__init__(f"{a} {b}")


def _raises_unpicklable(start, stop):
    raise _Unpicklable("lost", start)


def _megabytes(start, stop):
    # more than a pipe buffer (64 KiB) from every worker
    return bytes(range(start % 256, 256)) * 5000


def _pid_span(start, stop):
    return os.getpid(), start, stop


class _FirstChunk(Exception):
    pass


def _first_chunk(start, stop):
    raise _FirstChunk(start, stop)


def _past_the_stream_range():
    """chunked_map's message for 2**48 + 1 trials and the bytes it allocated."""
    tracemalloc.start()
    try:
        chunked_map(_span, (), trials=2**48 + 1, chunk=32, threads=2)
    except ValueError as exc:
        return str(exc), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _start_of_the_whole_range():
    """The first chunk chunked_map runs of 2**48 trials, the most it takes."""
    try:
        chunked_map(_first_chunk, (), trials=2**48, chunk=32, threads=1)
    except _FirstChunk as exc:
        return list(exc.args)


def _in_capped_child(call, headroom=1 << 28):
    """call()'s JSON result, or [type, message] of what it raised, from a
    forked child whose address space may grow by `headroom` bytes only, so
    a call that allocates without bound ends in MemoryError, not in the
    machine's memory running out."""
    import resource

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open("/proc/self/status") as fh:
                size = next(int(x.split()[1]) << 10 for x in fh if x.startswith("VmSize:"))
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = size + headroom
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
            try:
                out = call()
            except Exception as exc:
                out = [type(exc).__name__, str(exc)]
            with open(w, "w") as pipe:
                pipe.write(json.dumps(out))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with open(r) as pipe:
        got = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(got)


@contextlib.contextmanager
def _alarm(seconds, exc):
    """Raise `exc` in the test if the block is still running after `seconds`."""

    def ring(signum, frame):
        raise exc(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def forks(monkeypatch):
    """The pids chunked_map forks; at teardown each is reaped and no file
    descriptor is left open."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == fds


class TestChunkedMap:
    def test_pool_has_no_more_workers_than_chunks(self, forks):
        two = [(0, 32), (32, 40)]
        four = [(0, 32), (32, 64), (64, 96), (96, 100)]
        assert chunked_map(_span, (), trials=40, chunk=32, threads=64) == two
        assert len(forks) == 2
        assert chunked_map(_span, (), trials=100, chunk=32, threads=3) == four
        assert len(forks) == 5
        assert chunked_map(_span, (), trials=100, chunk=32, threads=1) == four
        assert chunked_map(_span, (), trials=30, chunk=32, threads=4) == [(0, 30)]
        assert len(forks) == 5

    def test_shared_args_never_pickled(self, forks, monkeypatch):
        monkeypatch.setattr(_Counted, "reductions", 0)
        args = (_Counted(),)
        pooled = chunked_map(_span_of, args, trials=256, chunk=32, threads=2)
        assert _Counted.reductions == 0
        assert pooled == chunked_map(_span_of, args, trials=256, chunk=32, threads=1)
        assert len(forks) == 2

    def test_worker_error_reraised_with_its_type_and_message(self, forks):
        # chunks 32 (worker 1) and 64 (worker 0) both fail; the in-process
        # loop would stop at 32
        with pytest.raises(ValueError, match="^chunk at 32 failed$"):
            chunked_map(_fails_from_32, (), trials=100, chunk=32, threads=2)
        assert len(forks) == 2

    def test_unpicklable_error_arrives_as_runtime_error(self, forks):
        with pytest.raises(RuntimeError, match="_Unpicklable: lost 0"):
            chunked_map(_raises_unpicklable, (), trials=64, chunk=32, threads=2)

    def test_killed_worker_names_the_signal(self, forks):
        with _alarm(60, TimeoutError):
            with pytest.raises(RuntimeError, match="killed by SIGKILL"):
                chunked_map(_killed_at_32, (), trials=100, chunk=32, threads=2)
        assert len(forks) == 2

    def test_interrupt_kills_and_reaps_every_worker(self, forks):
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt), _alarm(0.5, KeyboardInterrupt):
            chunked_map(_sleeps, (), trials=64, chunk=32, threads=2)
        assert time.monotonic() - t0 < 30  # the workers sleep for 60 s
        assert len(forks) == 2

    def test_results_larger_than_a_pipe_buffer(self, forks):
        with _alarm(60, TimeoutError):  # a worker blocks on a pipe not drained
            pooled = chunked_map(_megabytes, (), trials=6, chunk=1, threads=3)
        assert min(len(r) for r in pooled) >= 1 << 20
        assert pooled == chunked_map(_megabytes, (), trials=6, chunk=1, threads=1)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc"
    )
    def test_trial_counts_past_the_stream_range_fail_at_once(self):
        # trial t reads stream index t < 2**48.  Past that the call fails
        # before it allocates; at 2**48 the first chunk starts at once, as the
        # chunk starts are a range, never a list of 2**43 bounds
        msg, peak = _in_capped_child(_past_the_stream_range)
        assert msg == "trials must be <= 281474976710656" and peak < 10_000
        assert _in_capped_child(_start_of_the_whole_range) == [0, 32]

    def test_runs_in_process_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        here = os.getpid()
        pooled = chunked_map(_pid_span, (), trials=100, chunk=32, threads=3)
        assert pooled == chunked_map(_pid_span, (), trials=100, chunk=32, threads=1)
        assert {pid for pid, _, _ in pooled} == {here}


class TestStateSurface:
    def test_active_property_and_degrees(self):
        host = complete_bipartite(4, 5)
        ps = ParamSet(9, 0.3)
        state = init(host, ps)
        assert state.step == 0
        assert set(state.active) == set(range(9))
        assert list(state.degrees) == [5] * 4 + [4] * 5
        rec = step(state, 0.5 / 9)  # picks vertex 0 (side A)
        assert rec.chosen_vertex == 0
        # side B gone, side A survivors isolated
        assert set(state.active) == {1, 2, 3}
        assert list(state.active_degrees()) == [0, 0, 0]
        assert state.step == 1
