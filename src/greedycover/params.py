"""Parameter derivations, degree envelopes, and tail-bound evaluators.

Everything downstream of the process is driven by one ParamSet: the process
length k, the expected-degree trajectory, the widening error envelope around
it, and the codegree cap.  The tail-bound evaluators (martingale and binomial
forms) and the cover-budget formulas live here too so that every numeric
constant in the package has a single home.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ParamSet:
    """Derived parameters for an (n, p) host.

    Args:
        n: host vertex count, >= 2.
        p: density parameter in (0, 1), with p*n > 1.
        k_coef: coefficient c in k = floor(c * p^-1 * log(pn)); default 0.5.
        epsilon: optional; when given, k_coef is overridden by epsilon * 2^-10
            and epsilon is recorded.  At desk scale this yields k = 0 and is
            rejected (the process needs k >= 1); the field exists so that
            asymptotic-faithful coefficients remain expressible.

    Derived fields: k (process length), f0 (initial error), delta2 (codegree
    cap), log_n and log_pn; the two logs stay out of the repr, and so out of
    the CLI payload.
    """

    n: int
    p: float
    k_coef: float = 0.5
    epsilon: float | None = None
    k: int = field(init=False)
    f0: float = field(init=False)
    delta2: float = field(init=False)
    log_n: float = field(init=False, repr=False)
    log_pn: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        try:
            pn = self.p * self.n
        except OverflowError:
            raise ValueError("n is too large: p*n does not fit in a float") from None
        if pn <= 1.0:
            raise ValueError(f"p*n must exceed 1 (log pn must be positive), got {pn}")
        coef = self.k_coef
        if self.epsilon is not None:
            if not 0.0 < self.epsilon < 1.0:
                raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
            coef = self.epsilon * 2.0**-10
            object.__setattr__(self, "k_coef", coef)
        if coef <= 0.0:
            raise ValueError(f"k_coef must be positive, got {coef}")
        log_n = math.log(self.n)
        log_pn = math.log(pn)
        x = coef / self.p * log_pn
        if not math.isfinite(x):
            raise ValueError(f"k_coef / p * log(pn) must be finite, got {x}")
        k = math.floor(x)
        if k < 1:
            raise ValueError(
                f"derived process length k = {k} < 1; increase k_coef or p*n"
            )
        f0 = 4.0 * log_n * math.sqrt(log_pn / pn + self.p)
        delta2 = 4.0 * self.p**2 * self.n + 128.0 * log_n
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "delta2", delta2)
        object.__setattr__(self, "log_n", log_n)
        object.__setattr__(self, "log_pn", log_pn)


def check_host_n(ps: ParamSet, host) -> None:
    """Reject a host whose vertex count differs from the ParamSet's n."""
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")


def expected_degree(ps: ParamSet, i: int) -> float:
    """Expected-degree trajectory after i steps: (1-p)^i * p * n."""
    if i < 0:
        raise ValueError("step index must be non-negative")
    return (1.0 - ps.p) ** i * ps.p * ps.n


def error_f(ps: ParamSet, i: int) -> float:
    """Envelope error factor after i steps: ((1+16p)/(1-p))^i * f0."""
    if i < 0:
        raise ValueError("step index must be non-negative")
    return ((1.0 + 16.0 * ps.p) / (1.0 - ps.p)) ** i * ps.f0


@dataclass(frozen=True)
class EnvelopePoint:
    """Degree and active-set envelopes at one step."""

    i: int
    d_tilde: float
    f_i: float
    lower: float
    upper: float
    active_lower: float
    active_upper: float


def envelope(ps: ParamSet, i: int) -> EnvelopePoint:
    """Envelope point at step i: degrees (1±f_i)·d_tilde, active (1±f_i)·(1-p)^i·n."""
    d = expected_degree(ps, i)
    f = error_f(ps, i)
    mu = (1.0 - ps.p) ** i * ps.n
    return EnvelopePoint(
        i=i,
        d_tilde=d,
        f_i=f,
        lower=(1.0 - f) * d,
        upper=(1.0 + f) * d,
        active_lower=(1.0 - f) * mu,
        active_upper=(1.0 + f) * mu,
    )


def freedman_bound(t: float, s: float, r: float) -> float:
    """Martingale tail bound exp(-t^2 / (2(s + R*t))), clamped to [0, 1].

    Args:
        t: deviation.
        s: quadratic-variation bound.
        r: increment cap.
    """
    if t < 0 or s < 0 or r < 0:
        raise ValueError("freedman_bound arguments must be non-negative")
    denom = 2.0 * (s + r * t)
    if denom == 0.0:
        return 1.0 if t == 0.0 else 0.0
    return min(1.0, math.exp(-(t * t) / denom))


def chernoff_bound(mean: float, t: float) -> float:
    """Binomial tail bound 2*exp(-t^2 / (2*mean + t)), clamped to [0, 1]."""
    if mean < 0 or t < 0:
        raise ValueError("chernoff_bound arguments must be non-negative")
    denom = 2.0 * mean + t
    if denom == 0.0:
        return 1.0 if t == 0.0 else 0.0
    return min(1.0, 2.0 * math.exp(-(t * t) / denom))


def variation_cap(ps: ParamSet) -> float:
    """Quadratic-variation budget 2^9 * (p^3 n^2 + p n log n)."""
    return 512.0 * (ps.p**3 * ps.n**2 + ps.p * ps.n * ps.log_n)


def failure_prob_bound(ps: ParamSet) -> float:
    """Trajectory-failure probability budget n^(-2^-11 * log pn), clamped."""
    return min(1.0, math.exp(-ps.log_n * ps.log_pn / 2048.0))


def bound_formulas(ps: ParamSet, c_eps: float = 1.0) -> dict:
    """Cover-size budgets and the lower-bound comparator.

    Returns a dict with:
        s_pdim: sets per partition, ceil(n / k).
        t_pdim: partitions, ceil(c_eps * n * log n / k).  The theory only
            fixes this up to a large constant; c_eps is the knob (default 1.0)
            and the adaptive builder reports the empirically sufficient value.
        t_theta1: flat-cover budget, ceil(6 * k^-2 * n^2 * log n).
        mrss_lower: known lower-bound comparator p*n*log(1/p) / (5 log n).
    A budget that is not finite (n or c_eps too large) raises ValueError.
    """
    if not 0 < c_eps < math.inf:
        raise ValueError(f"c_eps must be positive and finite, got {c_eps}")
    n, k = ps.n, ps.k
    out = {
        "s_pdim": n / k,
        "t_pdim": c_eps * n * ps.log_n / k,
        "t_theta1": 6.0 * n * n * ps.log_n / (k * k),
    }
    for name, budget in out.items():
        if not math.isfinite(budget):
            raise ValueError(f"{name} budget is not finite; lower n or c_eps")
        out[name] = math.ceil(budget)
    out["mrss_lower"] = ps.p * n * math.log(1.0 / ps.p) / (5.0 * ps.log_n)
    return out
