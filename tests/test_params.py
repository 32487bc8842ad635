"""Parameter derivations and bound evaluators against frozen oracles.

The frozen constants below were computed by an independent mpmath script at
40 decimal digits before params.py was written; the float64 implementation
must reproduce them to 12 significant digits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from greedycover.params import (
    EnvelopePoint,
    ParamSet,
    bound_formulas,
    chernoff_bound,
    envelope,
    error_f,
    expected_degree,
    failure_prob_bound,
    freedman_bound,
    variation_cap,
)


def rel_err(got: float, expect: float) -> float:
    if expect == 0:
        return abs(got)
    return abs(got - expect) / abs(expect)


TOL = 1e-12

# mpmath at mp.dps=40, frozen 2026-08-19 before implementation.
FROZEN = {
    "f0_1000_005": 9.8948557772032078275,
    "delta2_1000_005": 894.19267570971354377,
    "dt_1000_005_1": 47.500000000000002498,
    "f1_1000_005": 18.748147788385025875,
    "f5_1000_005": 241.63173238185792846,
    "freedman_10_100_1": 0.63473641894028185533,
    "chernoff_100_30": 0.039959201906904350038,
    "varcap_1000_005": 240838.53514194272901,
    "failprob_1000_005": 0.98689170246481565078,
    "mrss_1000_005": 4.3367666522132708111,
    "f0_2000_0005": 14.746801047165107144,
}


class TestDeriveParams:
    def test_frozen_desk_scale_point(self):
        ps = ParamSet(1000, 0.05, 0.5)
        assert ps.k == 39
        assert rel_err(ps.f0, FROZEN["f0_1000_005"]) < TOL
        assert rel_err(ps.delta2, FROZEN["delta2_1000_005"]) < TOL

    def test_frozen_k_values(self):
        assert ParamSet(100, 0.1, 0.5).k == 11
        assert ParamSet(300, 0.1, 0.5).k == 17
        assert ParamSet(500, 0.05, 0.5).k == 32
        assert ParamSet(2000, 0.05, 0.5).k == 46
        assert rel_err(ParamSet(2000, 0.005, 0.087).f0, FROZEN["f0_2000_0005"]) < TOL
        assert ParamSet(2000, 0.005, 0.087).k == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            ParamSet(1, 0.5)
        with pytest.raises(ValueError, match=r"p must lie"):
            ParamSet(100, 0.0)
        with pytest.raises(ValueError, match=r"p must lie"):
            ParamSet(100, 1.0)
        with pytest.raises(ValueError, match=r"p\*n"):
            ParamSet(100, 0.005)
        with pytest.raises(ValueError, match="k_coef"):
            ParamSet(100, 0.1, k_coef=0.0)
        with pytest.raises(ValueError, match="k = 0"):
            ParamSet(100, 0.1, k_coef=0.01)

    @pytest.mark.parametrize("k_coef", [math.inf, math.nan, 1e308])
    def test_non_finite_length_rejected(self, k_coef):
        # 1e308 / p overflows to inf; math.floor would raise OverflowError
        with pytest.raises(ValueError, match="must be finite"):
            ParamSet(1000, 0.05, k_coef=k_coef)

    def test_epsilon_mode_records_and_overrides(self):
        # epsilon * 2^-10 is far too small at desk scale -> k = 0 rejected.
        with pytest.raises(ValueError, match="k ="):
            ParamSet(1000, 0.05, epsilon=0.5)
        # The override arithmetic itself: pick k_coef equal to eps * 2^-10
        # at a point where it stays feasible, and compare.
        eps = 0.9
        coef = eps * 2.0**-10
        n, p = 10**6, 0.0004  # pn = 400, k = floor(coef/p * log 400) ~ 13
        a = ParamSet(n, p, k_coef=coef)
        b = ParamSet(n, p, epsilon=eps)
        assert a.k == b.k and a.k_coef == b.k_coef
        assert b.epsilon == eps and a.epsilon is None

    def test_immutability(self):
        ps = ParamSet(100, 0.1)
        with pytest.raises(Exception):
            ps.n = 200  # type: ignore[misc]


class TestTrajectory:
    def test_frozen_points(self):
        ps = ParamSet(1000, 0.05, 0.5)
        assert rel_err(expected_degree(ps, 0), 50.0) < TOL
        assert rel_err(expected_degree(ps, 1), FROZEN["dt_1000_005_1"]) < TOL
        assert rel_err(error_f(ps, 0), FROZEN["f0_1000_005"]) < TOL
        assert rel_err(error_f(ps, 1), FROZEN["f1_1000_005"]) < TOL
        assert rel_err(error_f(ps, 5), FROZEN["f5_1000_005"]) < TOL

    def test_monotonicity_random_points(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        for _ in range(300):
            n = int(rng.integers(10, 100000))
            p = float(rng.uniform(0.001, 0.5))
            if p * n <= 1.5:
                continue
            try:
                ps = ParamSet(n, p)
            except ValueError:
                continue
            i = int(rng.integers(0, 60))
            assert expected_degree(ps, i + 1) < expected_degree(ps, i)
            assert error_f(ps, i + 1) > error_f(ps, i)
            assert expected_degree(ps, i) > 0
            assert error_f(ps, i) > 0

    def test_envelope_structure(self):
        ps = ParamSet(1000, 0.05)
        pt = envelope(ps, 3)
        assert isinstance(pt, EnvelopePoint)
        assert pt.lower <= pt.d_tilde <= pt.upper
        assert pt.lower == (1 - pt.f_i) * pt.d_tilde
        assert pt.upper == (1 + pt.f_i) * pt.d_tilde
        mu = (1 - ps.p) ** 3 * ps.n
        assert rel_err(pt.active_upper, (1 + pt.f_i) * mu) < TOL
        assert rel_err(pt.active_lower, (1 - pt.f_i) * mu) < TOL


class TestTailBounds:
    def test_frozen_points(self):
        assert rel_err(freedman_bound(10, 100, 1), FROZEN["freedman_10_100_1"]) < TOL
        assert rel_err(chernoff_bound(100, 30), FROZEN["chernoff_100_30"]) < TOL

    def test_degenerate_and_clamped(self):
        assert freedman_bound(0, 0, 0) == 1.0
        assert freedman_bound(5, 0, 0) == 0.0
        assert freedman_bound(0, 10, 1) == 1.0
        assert chernoff_bound(0, 0) == 1.0
        assert chernoff_bound(100, 0) == 1.0  # 2*exp(0) clamped
        assert rel_err(chernoff_bound(0, 5), 2 * math.exp(-5)) < TOL
        with pytest.raises(ValueError):
            freedman_bound(-1, 1, 1)
        with pytest.raises(ValueError):
            chernoff_bound(1, -1)

    def test_monotonicity_random_triples(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(1000):
            t = float(rng.uniform(0.1, 50))
            s = float(rng.uniform(0.1, 500))
            r = float(rng.uniform(0.1, 20))
            dt = float(rng.uniform(0.01, 10))
            b = freedman_bound(t, s, r)
            assert 0.0 <= b <= 1.0
            assert freedman_bound(t + dt, s, r) <= b
            assert freedman_bound(t, s + dt, r) >= b
            assert freedman_bound(t, s, r + dt) >= b
            mean = float(rng.uniform(0.1, 500))
            c = chernoff_bound(mean, t)
            assert 0.0 <= c <= 1.0
            assert chernoff_bound(mean, t + dt) <= c
            assert chernoff_bound(mean + dt, t) >= c


class TestBudgets:
    def test_frozen_points(self):
        ps = ParamSet(1000, 0.05)
        assert rel_err(variation_cap(ps), FROZEN["varcap_1000_005"]) < TOL
        assert rel_err(failure_prob_bound(ps), FROZEN["failprob_1000_005"]) < TOL
        bf = bound_formulas(ps)
        assert rel_err(bf["mrss_lower"], FROZEN["mrss_1000_005"]) < TOL

    def test_bound_formulas_300_01(self):
        ps = ParamSet(300, 0.1, 0.5)
        bf = bound_formulas(ps, c_eps=1.0)
        assert bf["s_pdim"] == 18
        assert bf["t_pdim"] == 101
        assert bf["t_theta1"] == 10658
        for c_eps in (0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="c_eps"):
                bound_formulas(ps, c_eps=c_eps)

    def test_c_eps_scales_t_pdim(self):
        ps = ParamSet(300, 0.1, 0.5)
        t1 = bound_formulas(ps, c_eps=1.0)["t_pdim"]
        t3 = bound_formulas(ps, c_eps=3.0)["t_pdim"]
        assert t3 == math.ceil(3.0 * 300 * math.log(300) / ps.k)
        assert t3 >= 3 * t1 - 3
