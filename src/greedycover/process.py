"""The random greedy independent-set process with full trajectory recording.

One step: draw a vertex uniformly from the active set (the common
non-neighbourhood of everything chosen so far), add it to the chosen set,
and remove its closed neighbourhood from the active set.  The engine keeps
the active set three ways at once - a bit-vector for set algebra, a dense
id array with swap-removal for O(1) uniform draws, and a numpy degree vector
updated incrementally - so a step costs O(|removed| * n / 64) instead of a
recomputation from scratch.

`run` records one trajectory against the analytics envelope;
`increment_diagnostics` additionally tracks the shifted degree deviations
X^-, X^+ of chosen vertices with the stopping-time freezing rule;
`ensemble_run` aggregates many runs.  All of it is deterministic in
(host, params, seed): trial t consumes the Philox stream keyed
(seed, RUN domain, t) and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet
from .params import ParamSet, error_f, expected_degree


@dataclass
class StepRecord:
    """Snapshot after one step; i is 1-based."""

    i: int
    chosen_vertex: int
    active_size: int
    deg_min: int | None
    deg_max: int | None
    deg_mean: float | None
    d_tilde: float
    f_i: float
    in_envelope: bool

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "chosen_vertex": self.chosen_vertex,
            "active_size": self.active_size,
            "deg_min": self.deg_min,
            "deg_max": self.deg_max,
            "deg_mean": self.deg_mean,
            "d_tilde": self.d_tilde,
            "f_i": self.f_i,
            "in_envelope": self.in_envelope,
        }


class ProcessState:
    """Mutable state of one running process.

    Exposed invariant surface: `step` (steps completed), `active` (V_i),
    `chosen` (ordered picks), `degrees` (induced degrees, valid for active
    vertices only; stale elsewhere).
    """

    __slots__ = (
        "host",
        "ps",
        "step",
        "active_mask",
        "ids",
        "pos",
        "degrees",
        "chosen_list",
        "chosen_mask",
        "sigma_raw",
        "_act_words",
    )

    def __init__(self, host: Graph, ps: ParamSet):
        n = host.n
        self.host = host
        self.ps = ps
        self.step = 0
        self.active_mask = host.full_mask
        self.ids = list(range(n))
        self.pos = list(range(n))
        self.degrees = np.array(host.degrees(), dtype=np.int64)
        self.chosen_list: list[int] = []
        self.chosen_mask = 0
        self.sigma_raw = [0] * n  # step at which v left active; 0 = still in
        self._act_words = max((n + 7) // 8, 1)

    @property
    def active(self) -> VertexSet:
        return VertexSet(self.host.n, self.active_mask)

    @property
    def chosen(self) -> Sequence[int]:
        return tuple(self.chosen_list)

    def active_degrees(self) -> np.ndarray:
        """Induced degrees of the currently active vertices."""
        idx = np.fromiter(self.ids, dtype=np.int64, count=len(self.ids))
        return self.degrees[idx]


def init(host: Graph, ps: ParamSet) -> ProcessState:
    """Fresh state: nothing chosen, everything active, host degrees."""
    return ProcessState(host, ps)


def step(state: ProcessState, gen: np.random.Generator) -> StepRecord | None:
    """Perform one step; None signals natural exhaustion (empty active set)."""
    na = len(state.ids)
    if na == 0:
        return None
    host = state.host
    n = host.n
    u = gen.random()
    v = state.ids[min(int(u * na), na - 1)]
    i = state.step + 1

    rm_mask = (host.row(v) | (1 << v)) & state.active_mask
    new_active = state.active_mask & ~rm_mask

    removed = []
    m = rm_mask
    ids, pos = state.ids, state.pos
    while m:
        low = m & -m
        w = low.bit_length() - 1
        m ^= low
        removed.append(w)
        state.sigma_raw[w] = i
        j = pos[w]
        last = ids[-1]
        ids[j] = last
        pos[last] = j
        ids.pop()
        pos[w] = -1

    state.active_mask = new_active
    state.chosen_list.append(v)
    state.chosen_mask |= 1 << v
    state.step = i

    # degrees[w] -= |N(w) ∩ removed| for surviving w, computed as the column
    # sums of the removed rows restricted to the new active set
    if new_active and removed:
        act = np.frombuffer(
            new_active.to_bytes(state._act_words, "little"), dtype=np.uint8
        )
        rows = host.packed_rows()[np.array(removed, dtype=np.intp)] & act
        state.degrees -= np.unpackbits(
            rows, axis=1, count=n, bitorder="little"
        ).sum(axis=0, dtype=np.int64)

    if state.ids:
        d_act = state.active_degrees()
        deg_min = int(d_act.min())
        deg_max = int(d_act.max())
        deg_mean = float(d_act.mean())
    else:
        deg_min = deg_max = deg_mean = None

    d_t = expected_degree(state.ps, i)
    f_i = error_f(state.ps, i)
    if deg_min is None:
        in_env = True
    else:
        in_env = deg_min >= (1.0 - f_i) * d_t and deg_max <= (1.0 + f_i) * d_t

    return StepRecord(
        i=i,
        chosen_vertex=v,
        active_size=len(state.ids),
        deg_min=deg_min,
        deg_max=deg_max,
        deg_mean=deg_mean,
        d_tilde=d_t,
        f_i=f_i,
        in_envelope=in_env,
    )


@dataclass
class ProcessRun:
    """One recorded trajectory.

    sigma[v] is the step at which v left the active set (the chosen vertex
    itself leaves at its own step); vertices still active at the end carry
    the sentinel completed_steps + 1.  tau is the first step whose envelope
    check failed, or completed_steps if none did (completed_steps <= k, so
    this realizes "min of k and first violation" with the short-run cap).
    """

    n: int
    ps: ParamSet
    seed: int
    index: int
    chosen: VertexSet
    order: tuple[int, ...]
    records: list[StepRecord]
    tau: int
    sigma: list[int]
    completed_steps: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "params": self.ps.to_dict(),
            "seed": self.seed,
            "index": self.index,
            "chosen": self.chosen.to_list(),
            "order": list(self.order),
            "records": [r.to_dict() for r in self.records],
            "tau": self.tau,
            "sigma": self.sigma,
            "completed_steps": self.completed_steps,
        }


def run_with_generator(
    host: Graph, ps: ParamSet, gen: np.random.Generator, seed: int = -1, index: int = -1
) -> ProcessRun:
    """Drive up to k steps (or exhaustion) from an externally-owned stream."""
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    state = init(host, ps)
    records: list[StepRecord] = []
    for _ in range(ps.k):
        rec = step(state, gen)
        if rec is None:
            break
        records.append(rec)
    completed = state.step
    tau = completed
    for rec in records:
        if not rec.in_envelope:
            tau = rec.i
            break
    sigma = [s if s else completed + 1 for s in state.sigma_raw]
    return ProcessRun(
        n=host.n,
        ps=ps,
        seed=seed,
        index=index,
        chosen=VertexSet(host.n, state.chosen_mask),
        order=tuple(state.chosen_list),
        records=records,
        tau=tau,
        sigma=sigma,
        completed_steps=completed,
    )


def run(host: Graph, ps: ParamSet, seed: int, index: int = 0) -> ProcessRun:
    """Run up to k steps (or exhaustion) and record the trajectory.

    `index` selects the trial stream (seed, RUN, index); ensemble trial t
    is exactly run(host, ps, seed, index=t).
    """
    gen = _rng.stream(seed, _rng.RUN, index)
    return run_with_generator(host, ps, gen, seed=seed, index=index)


def sample_independent_set(
    host: Graph, k: int, draws: np.ndarray | np.random.Generator
) -> int:
    """Fast path: the final chosen set only, as a bit mask.

    `draws` is a trial's stream, or its first k uniforms (a row of
    `rng.uniform_rows`); both give the same set.  The choice sequence is
    identical to the recording engine fed the same stream, because both map
    the t-th uniform through floor(u * active_size) against the same
    swap-removal order.
    """
    n = host.n
    if not isinstance(draws, np.ndarray):
        draws = draws.random(k)
    active = host.full_mask
    ids = list(range(n))
    pos = list(range(n))
    chosen = 0
    for t in range(k):
        na = len(ids)
        if na == 0:
            break
        v = ids[min(int(draws[t] * na), na - 1)]
        chosen |= 1 << v
        m = (host.row(v) | (1 << v)) & active
        active &= ~m
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            j = pos[w]
            last = ids[-1]
            ids[j] = last
            pos[last] = j
            ids.pop()
            pos[w] = -1
    return chosen


@dataclass
class IncrementStats:
    """Per-step increments of the shifted degree deviations of tracked vertices.

    For a tracked vertex v, X^-(v, i) = d_i(v) - d_tilde_i - f_i * d_tilde_i
    and X^+(v, i) = d_i(v) - d_tilde_i + f_i * d_tilde_i, frozen after
    rho_v = min(tau, sigma_v - 1); frozen steps contribute increment 0.
    dx arrays have shape (len(tracked), completed_steps).  max/mean aggregate
    both signs; the mean counts live increments only (frozen zeros are
    bookkeeping, not samples).  bound_mean[i-1] = 3 * p * d_tilde_{i-1} is
    the statistical per-step bound on E|dX|; bound_abs = 6 p^2 n + 2^7 log n
    is the hard cap valid where the envelope-drift term stays within slack.
    """

    tracked: list[int]
    completed_steps: int
    dx_minus: np.ndarray
    dx_plus: np.ndarray
    x0_minus: np.ndarray
    x0_plus: np.ndarray
    rho: list[int]
    max_abs_increment: float
    mean_abs_increment: float
    bound_abs: float
    bound_mean: np.ndarray
    run: ProcessRun
    m_vj: np.ndarray | None = None
    q_vj: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "tracked": self.tracked,
            "completed_steps": self.completed_steps,
            "dx_minus": self.dx_minus.tolist(),
            "dx_plus": self.dx_plus.tolist(),
            "x0_minus": self.x0_minus.tolist(),
            "x0_plus": self.x0_plus.tolist(),
            "rho": self.rho,
            "max_abs_increment": self.max_abs_increment,
            "mean_abs_increment": self.mean_abs_increment,
            "bound_abs": self.bound_abs,
            "bound_mean": self.bound_mean.tolist(),
        }
        if self.m_vj is not None:
            out["m_vj"] = self.m_vj.tolist()
            out["q_vj"] = self.q_vj.tolist()
        return out


def increment_bound(ps: ParamSet) -> float:
    """Hard per-step increment cap 6 p^2 n + 2^7 log n."""
    return 6.0 * ps.p**2 * ps.n + 128.0 * ps.log_n


def increment_diagnostics(
    host: Graph,
    ps: ParamSet,
    tracked: Sequence[int] | VertexSet,
    seed: int,
    index: int = 0,
    collect_mq: bool = False,
) -> IncrementStats:
    """Run once, tracking X^-/X^+ increments of `tracked` vertices.

    With collect_mq, also records for each tracked v and step j (0-based,
    state before step j+1): m_vj = sum of codegrees d_j(u, v) over active u
    outside v's closed neighbourhood, and q_vj = 1 - (d_j(v) + 1) / |V_j|,
    both exact; entries after v leaves (or the process stops) are NaN.
    """
    if ps.n != host.n:
        raise ValueError(f"ParamSet is for n={ps.n}, host has n={host.n}")
    if isinstance(tracked, VertexSet):
        tracked = tracked.to_list()
    tracked = list(tracked)
    for v in tracked:
        if not 0 <= v < host.n:
            raise ValueError(f"tracked vertex {v} out of range")

    gen = _rng.stream(seed, _rng.RUN, index)
    state = init(host, ps)
    nt = len(tracked)
    k = ps.k

    dx_minus = np.zeros((nt, k))
    dx_plus = np.zeros((nt, k))
    mq_m = np.full((nt, k), np.nan) if collect_mq else None
    mq_q = np.full((nt, k), np.nan) if collect_mq else None

    d0 = expected_degree(ps, 0)
    f0 = error_f(ps, 0)
    x_minus = np.array([host.degree(v) - d0 - f0 * d0 for v in tracked])
    x_plus = np.array([host.degree(v) - d0 + f0 * d0 for v in tracked])
    x0_minus = x_minus.copy()
    x0_plus = x_plus.copy()
    frozen = [False] * nt
    rho = [-1] * nt
    records: list[StepRecord] = []
    tau_seen = False

    for _ in range(k):
        if collect_mq and state.ids:
            j = state.step
            nv = len(state.ids)
            for ti, v in enumerate(tracked):
                if state.pos[v] < 0:
                    continue
                closed = host.row(v) | (1 << v)
                outside = state.active_mask & ~closed
                row_v = host.row(v)
                total = 0
                mm = outside
                while mm:
                    low = mm & -mm
                    u = low.bit_length() - 1
                    mm ^= low
                    total += (host.row(u) & row_v & state.active_mask).bit_count()
                mq_m[ti, j] = total
                mq_q[ti, j] = 1.0 - (int(state.degrees[v]) + 1) / nv

        rec = step(state, gen)
        if rec is None:
            break
        records.append(rec)
        i = rec.i
        col = i - 1
        for ti, v in enumerate(tracked):
            if frozen[ti]:
                continue
            if state.sigma_raw[v] == i:
                frozen[ti] = True
                rho[ti] = i - 1
                continue
            d = float(state.degrees[v])
            xm = d - rec.d_tilde - rec.f_i * rec.d_tilde
            xp = d - rec.d_tilde + rec.f_i * rec.d_tilde
            dx_minus[ti, col] = xm - x_minus[ti]
            dx_plus[ti, col] = xp - x_plus[ti]
            x_minus[ti] = xm
            x_plus[ti] = xp
        if not rec.in_envelope and not tau_seen:
            tau_seen = True
            for ti in range(nt):
                if not frozen[ti]:
                    frozen[ti] = True
                    rho[ti] = i

    completed = state.step
    tau = completed
    for rec in records:
        if not rec.in_envelope:
            tau = rec.i
            break
    for ti in range(nt):
        # never frozen: v survived every step and no violation, so
        # min(tau, sigma_v - 1) = min(completed, completed) = completed
        if rho[ti] < 0:
            rho[ti] = completed
    sigma = [s if s else completed + 1 for s in state.sigma_raw]
    prun = ProcessRun(
        n=host.n,
        ps=ps,
        seed=seed,
        index=index,
        chosen=VertexSet(host.n, state.chosen_mask),
        order=tuple(state.chosen_list),
        records=records,
        tau=tau,
        sigma=sigma,
        completed_steps=completed,
    )

    dx_minus = dx_minus[:, :completed]
    dx_plus = dx_plus[:, :completed]
    live = np.zeros((nt, completed), dtype=bool)
    for ti in range(nt):
        live[ti, : min(rho[ti], completed)] = True
    abs_all = np.concatenate([np.abs(dx_minus)[live], np.abs(dx_plus)[live]])
    bound_mean = np.array(
        [3.0 * ps.p * expected_degree(ps, i - 1) for i in range(1, completed + 1)]
    )
    return IncrementStats(
        tracked=tracked,
        completed_steps=completed,
        dx_minus=dx_minus,
        dx_plus=dx_plus,
        x0_minus=x0_minus,
        x0_plus=x0_plus,
        rho=rho,
        max_abs_increment=float(abs_all.max()) if abs_all.size else 0.0,
        mean_abs_increment=float(abs_all.mean()) if abs_all.size else 0.0,
        bound_abs=increment_bound(ps),
        bound_mean=bound_mean,
        run=prun,
        m_vj=mq_m[:, :completed] if collect_mq else None,
        q_vj=mq_q[:, :completed] if collect_mq else None,
    )


@dataclass
class EnsembleSummary:
    """Aggregates over independent runs.

    ratio arrays compare the mean induced degree over V_i with p*(|V_i|-1)
    per step, pooled over runs that reached the step with |V_i| > 1.  Drift
    stats pool live increments of the tracked vertices across all runs.
    """

    trials: int
    ps: ParamSet
    seed: int
    violation_runs: int
    tau_equals_completed_fraction: float
    completed_steps: list[int]
    set_sizes: list[int]
    step_counts: list[int]
    ratio_mean: list[float]
    ratio_min: list[float]
    ratio_max: list[float]
    tracked: list[int]
    dx_minus_mean: float | None
    dx_minus_se: float | None
    dx_plus_mean: float | None
    dx_plus_se: float | None
    dx_count: int

    def to_dict(self) -> dict:
        def clean(xs: list[float]) -> list[float | None]:
            return [None if math.isnan(x) else x for x in xs]

        return {
            "trials": self.trials,
            "params": self.ps.to_dict(),
            "seed": self.seed,
            "violation_runs": self.violation_runs,
            "tau_equals_completed_fraction": self.tau_equals_completed_fraction,
            "completed_steps": self.completed_steps,
            "set_sizes": self.set_sizes,
            "step_counts": self.step_counts,
            "ratio_mean": clean(self.ratio_mean),
            "ratio_min": clean(self.ratio_min),
            "ratio_max": clean(self.ratio_max),
            "tracked": self.tracked,
            "dx_minus_mean": self.dx_minus_mean,
            "dx_minus_se": self.dx_minus_se,
            "dx_plus_mean": self.dx_plus_mean,
            "dx_plus_se": self.dx_plus_se,
            "dx_count": self.dx_count,
        }


_CHUNK = 32


def _ensemble_chunk(
    host: Graph,
    ps: ParamSet,
    seed: int,
    tracked: tuple[int, ...],
    start: int,
    stop: int,
) -> dict:
    k = ps.k
    out = {
        "violations": 0,
        "completed": [],
        "sizes": [],
        "count": np.zeros(k, dtype=np.int64),
        "rsum": np.zeros(k),
        "rmin": np.full(k, np.inf),
        "rmax": np.full(k, -np.inf),
        "dm_sum": 0.0,
        "dm_sq": 0.0,
        "dp_sum": 0.0,
        "dp_sq": 0.0,
        "dn": 0,
    }
    for t in range(start, stop):
        if tracked:
            stats = increment_diagnostics(host, ps, tracked, seed, index=t)
            prun = stats.run
            live = np.zeros_like(stats.dx_minus, dtype=bool)
            for ti in range(len(tracked)):
                live[ti, : min(stats.rho[ti], stats.completed_steps)] = True
            dm = stats.dx_minus[live]
            dp = stats.dx_plus[live]
            out["dm_sum"] += float(dm.sum())
            out["dm_sq"] += float((dm * dm).sum())
            out["dp_sum"] += float(dp.sum())
            out["dp_sq"] += float((dp * dp).sum())
            out["dn"] += int(dm.size)
        else:
            prun = run(host, ps, seed, index=t)
        if any(not r.in_envelope for r in prun.records):
            out["violations"] += 1
        out["completed"].append(prun.completed_steps)
        out["sizes"].append(prun.chosen.size)
        for rec in prun.records:
            if rec.active_size > 1:
                denom = ps.p * (rec.active_size - 1)
                ratio = rec.deg_mean / denom
                c = rec.i - 1
                out["count"][c] += 1
                out["rsum"][c] += ratio
                out["rmin"][c] = min(out["rmin"][c], ratio)
                out["rmax"][c] = max(out["rmax"][c], ratio)
    return out


def ensemble_run(
    host: Graph,
    ps: ParamSet,
    trials: int,
    seed: int,
    tracked: Sequence[int] = (),
    threads: int = 1,
) -> EnsembleSummary:
    """Aggregate `trials` independent runs (trial t = stream (seed, RUN, t)).

    Results are byte-identical for any `threads` value: work is cut into
    fixed chunks of 32 trials, each chunk's partials are computed
    independently, and the reduction runs in ascending chunk order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tracked = tuple(tracked)
    bounds = [(s, min(s + _CHUNK, trials)) for s in range(0, trials, _CHUNK)]
    if threads > 1 and len(bounds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    _ensemble_chunk_star,
                    [(host, ps, seed, tracked, a, b) for a, b in bounds],
                )
            )
    else:
        parts = [_ensemble_chunk(host, ps, seed, tracked, a, b) for a, b in bounds]

    k = ps.k
    completed: list[int] = []
    sizes: list[int] = []
    violations = 0
    count = np.zeros(k, dtype=np.int64)
    rsum = np.zeros(k)
    rmin = np.full(k, np.inf)
    rmax = np.full(k, -np.inf)
    dm_sum = dm_sq = dp_sum = dp_sq = 0.0
    dn = 0
    for part in parts:
        violations += part["violations"]
        completed.extend(part["completed"])
        sizes.extend(part["sizes"])
        count += part["count"]
        rsum += part["rsum"]
        rmin = np.minimum(rmin, part["rmin"])
        rmax = np.maximum(rmax, part["rmax"])
        dm_sum += part["dm_sum"]
        dm_sq += part["dm_sq"]
        dp_sum += part["dp_sum"]
        dp_sq += part["dp_sq"]
        dn += part["dn"]

    used = count > 0
    ratio_mean = np.full(k, np.nan)
    ratio_mean[used] = rsum[used] / count[used]
    rmin[~used] = np.nan
    rmax[~used] = np.nan

    def moments(total: float, sq: float) -> tuple[float | None, float | None]:
        if dn == 0:
            return None, None
        mean = total / dn
        var = max(sq / dn - mean * mean, 0.0)
        return mean, math.sqrt(var / dn)

    dm_mean, dm_se = moments(dm_sum, dm_sq)
    dp_mean, dp_se = moments(dp_sum, dp_sq)
    return EnsembleSummary(
        trials=trials,
        ps=ps,
        seed=seed,
        violation_runs=violations,
        tau_equals_completed_fraction=1.0 - violations / trials,
        completed_steps=completed,
        set_sizes=sizes,
        step_counts=count.tolist(),
        ratio_mean=ratio_mean.tolist(),
        ratio_min=rmin.tolist(),
        ratio_max=rmax.tolist(),
        tracked=list(tracked),
        dx_minus_mean=dm_mean,
        dx_minus_se=dm_se,
        dx_plus_mean=dp_mean,
        dx_plus_se=dp_se,
        dx_count=dn,
    )


def _ensemble_chunk_star(args: tuple) -> dict:
    return _ensemble_chunk(*args)
