"""The random greedy independent-set process with full trajectory recording.

One step: draw a vertex uniformly from the active set (the common
non-neighbourhood of everything chosen so far), add it to the chosen set,
and remove its closed neighbourhood from the active set.  That step lives in
one function, `_take`, which keeps the active vertices in a dense id list
with swap-removal for O(1) uniform draws; the light kernels (final set only)
and the recording engine both call it with a float uniform, so fed the same
uniforms they make the same choices.  The recording engine also keeps the
active set as a bit-vector and a numpy degree vector updated incrementally:
a step gathers the |removed| packed rows that left and unpacks each to n
bytes, O(|removed| * n) instead of a recomputation from scratch.

`run_draws` holds the one step loop: `run` records one trajectory
against the analytics envelope, and `increment_diagnostics` derives the
shifted degree deviations X^-, X^+ of tracked vertices, stopped at
rho_v = min(tau, sigma_v - 1), from that record with array operations;
`ensemble_run` aggregates many runs.  All of it is deterministic in
(host, params, seed): trial t consumes the first k uniforms of the Philox
stream keyed (seed, RUN domain, t) and nothing else; ensemble chunks read
them as rows of `rng.trial_rows`.  `chunked_map` is the one place
that honours a thread count: fixed trial chunks, results in chunk order,
run by workers it forks itself (pipes and pickle, no pool module) or, on a
platform without fork, in-process.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from .graph import Graph, VertexSet, mask_bits, vertex_id
from .params import ParamSet, check_host_n, envelope, error_f, expected_degree


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


class ProcessState:
    """Mutable state of one running process.

    Exposed invariant surface: `step` (steps completed), `active` (V_i),
    `chosen` (ordered picks), `degrees` (induced degrees, valid for active
    vertices only; stale elsewhere), `pos` (-1 once a vertex has left).
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
        "sigma_raw",
        "_act_words",
    )

    def __init__(self, host: Graph, ps: ParamSet):
        n = host.n
        self.host = host
        self.ps = ps
        self.step = 0
        self.active_mask = host.full_mask
        self.ids, self.pos = host.vertex_ids(), host.vertex_ids()
        self.degrees = host.degree_array().copy()
        self.chosen_list: list[int] = []
        self.sigma_raw = np.zeros(n, dtype=np.int64)  # step v left active; 0 = still in
        self._act_words = max((n + 7) // 8, 1)  # read only by perfbench/spans.py

    @property
    def active(self) -> VertexSet:
        return VertexSet(self.host.n, self.active_mask)

    @property
    def chosen(self) -> Sequence[int]:
        return tuple(self.chosen_list)

    def active_degrees(self) -> np.ndarray:
        """Induced degrees of the currently active vertices, in id order."""
        return self.degrees[self.sigma_raw == 0]


def init(host: Graph, ps: ParamSet) -> ProcessState:
    """Fresh state: nothing chosen, everything active, host degrees."""
    return ProcessState(host, ps)


def _take(
    host: Graph, ids: list[int], pos: list[int], active: int, u: float
) -> tuple[int, int]:
    """One greedy step: pick ids[floor(u * len(ids))], drop its closed neighbourhood.

    `ids` lists the active vertices (`active` as a bit mask) and pos[w] is
    w's index in it, -1 once w has left; both are updated by swap-removal.
    Returns the picked vertex and the mask of vertices that left.  The
    caller checks that `ids` is non-empty and clears the mask from `active`.
    """
    na = len(ids)
    v = ids[min(int(u * na), na - 1)]
    removed = (host.row(v) | (1 << v)) & active
    # graph.bits written inline: this is every workload's per-step hot loop
    m = removed
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
    return v, removed


def step(state: ProcessState, u: float) -> StepRecord | None:
    """Perform one step on uniform u; None signals exhaustion (empty active set)."""
    if not state.ids:
        return None
    host = state.host
    v, rm_mask = _take(host, state.ids, state.pos, state.active_mask, u)
    i = state.step + 1
    state.active_mask &= ~rm_mask
    state.chosen_list.append(v)
    state.step = i
    # as indices: gathering packed rows by index is cheaper than by boolean mask
    removed = np.flatnonzero(mask_bits(rm_mask, host.n))
    state.sigma_raw[removed] = i

    # degrees[w] -= |N(w) ∩ removed|: right for survivors, stale elsewhere
    state.degrees -= np.unpackbits(
        host.packed_rows()[removed], axis=1, count=host.n, bitorder="little"
    ).sum(axis=0, dtype=np.int64)

    e = envelope(state.ps, i)
    if state.ids:
        d_act = state.active_degrees()
        deg_min = int(d_act.min())
        deg_max = int(d_act.max())
        deg_mean = float(d_act.mean())
        in_env = e.lower <= deg_min and deg_max <= e.upper
    else:
        deg_min = deg_max = deg_mean = None
        in_env = True

    return StepRecord(
        i=i,
        chosen_vertex=v,
        active_size=len(state.ids),
        deg_min=deg_min,
        deg_max=deg_max,
        deg_mean=deg_mean,
        d_tilde=e.d_tilde,
        f_i=e.f_i,
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
    params: ParamSet
    seed: int
    index: int
    chosen: VertexSet
    order: tuple[int, ...]
    records: list[StepRecord]
    tau: int
    sigma: list[int]
    completed_steps: int


def run_draws(
    host: Graph, ps: ParamSet, draws: np.ndarray, seed: int = -1, index: int = -1
) -> ProcessRun:
    """Drive up to k steps (or exhaustion) from the trial's k uniforms."""
    check_host_n(ps, host)
    state = init(host, ps)
    records: list[StepRecord] = []
    for u in draws.tolist():
        rec = step(state, u)
        if rec is None:
            break
        records.append(rec)
    completed = state.step
    tau = next((r.i for r in records if not r.in_envelope), completed)
    return ProcessRun(
        n=host.n,
        params=ps,
        seed=seed,
        index=index,
        chosen=VertexSet.from_iterable(host.n, state.chosen_list),
        order=tuple(state.chosen_list),
        records=records,
        tau=tau,
        sigma=np.where(state.sigma_raw, state.sigma_raw, completed + 1).tolist(),
        completed_steps=completed,
    )


def run_with_generator(
    host: Graph, ps: ParamSet, gen: _rng.Stream, seed: int = -1, index: int = -1
) -> ProcessRun:
    """`run_draws` from an externally-owned stream.

    Reads k uniforms in one `gen.random(k)` call, so `gen` advances by k.
    """
    return run_draws(host, ps, gen.random(ps.k), seed, index)


def run(host: Graph, ps: ParamSet, seed: int, index: int = 0) -> ProcessRun:
    """Run up to k steps (or exhaustion) and record the trajectory.

    `index` selects the trial stream (seed, RUN, index); ensemble trial t
    is exactly run(host, ps, seed, index=t).
    """
    gen = _rng.stream(seed, _rng.RUN, index)
    return run_with_generator(host, ps, gen, seed=seed, index=index)


def sample_independent_set(host: Graph, k: int, draws: np.ndarray) -> int:
    """Fast path: the final chosen set only, as a bit mask.

    `draws` holds a trial's first k uniforms (a row of `rng.uniform_rows`).
    The choice sequence is identical to the recording engine fed the same
    uniforms, because both map the t-th uniform through
    floor(u * active_size) against the same swap-removal order.
    """
    active = host.full_mask
    ids, pos = host.vertex_ids(), host.vertex_ids()
    chosen = 0
    for t in range(k):
        if not ids:
            break
        v, removed = _take(host, ids, pos, active, draws[t])
        chosen |= 1 << v
        active &= ~removed
    return chosen


@dataclass
class IncrementStats:
    """Per-step increments of the shifted degree deviations of tracked vertices.

    For a tracked vertex v, X^-(v, i) = d_i(v) - d_tilde_i - f_i * d_tilde_i
    and X^+(v, i) = d_i(v) - d_tilde_i + f_i * d_tilde_i, stopped at
    rho_v = min(tau, sigma_v - 1): steps after rho_v contribute increment 0.
    Every field is derived from a recorded run once it has stopped.
    dx arrays have shape (len(tracked), completed_steps).  max/mean aggregate
    both signs; the mean counts `live` increments only (the zeros after rho
    are bookkeeping, not samples).  bound_mean[i-1] = 3 * p * d_tilde_{i-1} is
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
    m_vj: np.ndarray | None = None
    q_vj: np.ndarray | None = None

    @property
    def live(self) -> np.ndarray:
        """Entry (t, i-1) is live iff step i <= rho of tracked vertex t."""
        rho = np.array(self.rho, dtype=np.int64)
        return np.arange(self.completed_steps) < rho[:, None]


def increment_bound(ps: ParamSet) -> float:
    """Hard per-step increment cap 6 p^2 n + 2^7 log n."""
    return 6.0 * ps.p**2 * ps.n + 128.0 * ps.log_n


def _survivors(
    group: np.ndarray, left: np.ndarray, groups: int, steps: int
) -> np.ndarray:
    """c[g, i] = #{items of group g with left > i} for i = 0..steps, exactly.

    `left` is a step of departure in 1..steps + 1 (a sigma value).
    """
    w = steps + 2
    hist = np.bincount(group * w + left, minlength=groups * w).reshape(groups, w)
    return hist.sum(axis=1, keepdims=True) - np.cumsum(hist, axis=1)[:, : steps + 1]


def increment_diagnostics(
    host: Graph,
    tracked: Sequence[int] | VertexSet,
    prun: ProcessRun,
    collect_mq: bool = False,
) -> IncrementStats:
    """The X^-/X^+ increments of `tracked` vertices, derived from `prun`, which
    must be a run of `host` (only n is checked, as in `verify_cover`).

    The run's sigma gives every degree: d_i(v) = #{w in N(v) : sigma_w > i}.
    With collect_mq, also gives for each tracked v and step j (0-based,
    state before step j+1, active set {w : sigma_w > j}): m_vj = sum of
    codegrees d_j(u, v) over active u outside v's closed neighbourhood, and
    q_vj = 1 - (d_j(v) + 1) / |V_j|, both exact; entries after v leaves
    are NaN.
    """
    ps = prun.params
    check_host_n(ps, host)
    tracked = [vertex_id(host.n, v) for v in tracked]
    completed = prun.completed_steps
    d_tilde = np.array([expected_degree(ps, 0)] + [r.d_tilde for r in prun.records])
    sigma = np.array(prun.sigma, dtype=np.int64)
    tv = np.array(tracked, dtype=np.int64)
    nt = len(tracked)
    nbr = np.unpackbits(
        host.packed_rows()[tv], axis=1, count=host.n, bitorder="little"
    ).astype(bool)
    t_of, w_of = np.nonzero(nbr)  # tracked index and neighbour of each edge
    d = _survivors(t_of, sigma[w_of], nt, completed)  # d[:, i] = d_i(v)

    f = np.array([error_f(ps, 0)] + [r.f_i for r in prun.records])
    x_minus = (d - d_tilde) - f * d_tilde
    x_plus = (d - d_tilde) + f * d_tilde

    m_vj = q_vj = None
    if collect_mq:
        # paths v - w - u with w in N(v), u outside N[v]; the pair counts
        # toward m_vj while both w and u are active
        closed = nbr.copy()
        closed[np.arange(nt), tv] = True
        far = np.unpackbits(
            host.packed_rows()[w_of], axis=1, count=host.n, bitorder="little"
        ).astype(bool) & ~closed[t_of]
        e_of, u_of = np.nonzero(far)
        both = np.minimum(sigma[w_of[e_of]], sigma[u_of])
        m = _survivors(t_of[e_of], both, nt, completed)[:, :completed]
        size = _survivors(np.zeros(host.n, dtype=np.int64), sigma, 1, completed)
        q = 1.0 - (d[:, :completed] + 1) / size[:, :completed]
        active = np.arange(completed) < sigma[tv][:, None]
        m_vj = np.where(active, m, np.nan)
        q_vj = np.where(active, q, np.nan)

    stats = IncrementStats(
        tracked=tracked,
        completed_steps=completed,
        dx_minus=np.diff(x_minus, axis=1),
        dx_plus=np.diff(x_plus, axis=1),
        x0_minus=x_minus[:, 0],
        x0_plus=x_plus[:, 0],
        rho=np.minimum(prun.tau, sigma[tv] - 1).tolist(),
        max_abs_increment=0.0,
        mean_abs_increment=0.0,
        bound_abs=increment_bound(ps),
        bound_mean=3.0 * ps.p * d_tilde[:-1],
        m_vj=m_vj,
        q_vj=q_vj,
    )
    live = stats.live
    stats.dx_minus[~live] = 0.0
    stats.dx_plus[~live] = 0.0
    abs_all = np.abs(np.concatenate([stats.dx_minus[live], stats.dx_plus[live]]))
    if abs_all.size:
        stats.max_abs_increment = float(abs_all.max())
        stats.mean_abs_increment = float(abs_all.mean())
    return stats


@dataclass
class EnsembleSummary:
    """Aggregates over independent runs.

    ratio lists compare the mean induced degree over V_i with p*(|V_i|-1)
    per step, pooled over runs that reached the step with |V_i| > 1; a step
    that no run reached so holds None.  Drift stats pool live increments of
    the tracked vertices across all runs.  violation_runs counts the runs
    with at least one step outside the envelope; tau_equals_completed_fraction
    is the share of runs with tau == completed_steps, which includes a run
    whose first violation is its last completed step.
    """

    trials: int
    params: ParamSet
    seed: int
    violation_runs: int
    tau_equals_completed_fraction: float
    completed_steps: list[int]
    set_sizes: list[int]
    step_counts: list[int]
    ratio_mean: list[float | None]
    ratio_min: list[float | None]
    ratio_max: list[float | None]
    tracked: list[int]
    dx_minus_mean: float | None
    dx_minus_se: float | None
    dx_plus_mean: float | None
    dx_plus_se: float | None
    dx_count: int


def chunked_map(fn, args: tuple, trials: int, chunk: int, threads: int) -> list:
    """[fn(*args, start, stop)] over fixed chunks of range(trials), in chunk order.

    The chunks depend only on `trials` and `chunk`, so a reduction over the
    results in list order gives the same bytes at any `threads`.  With more
    than one thread and more than one chunk, min(threads, chunks) forked
    workers run them: worker w runs chunks w, w + workers, ... and sends
    back one pickled list.  The workers inherit (fn, args) by fork, so the
    host is never pickled.  Where os.fork does not exist the chunks run
    in-process.  This is every pooled estimator's one trial and thread check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    bounds = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    workers = min(threads, len(bounds))
    if workers > 1 and hasattr(os, "fork"):
        return _forked_map(fn, args, bounds, workers)
    return [fn(*args, start, stop) for start, stop in bounds]


def _forked_map(fn, args: tuple, bounds: list, workers: int) -> list:
    """chunked_map's pooled branch: one pipe and one forked child per worker.

    A worker's exception is raised here: that of the lowest failing chunk,
    as the in-process loop would raise it.  A worker that ends without a
    result raises RuntimeError.  On any exception here, KeyboardInterrupt
    included, every child still running is killed; every child is reaped.
    """
    import signal  # only pooled runs need it

    pids: list[int] = []
    pipes = []  # read ends, closed on the way out
    status: dict[int, int] = {}
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, args, bounds, w, workers, pipes, wr)
                pids.append(pid)
            finally:
                os.close(wr)
        replies = [pipe.read() for pipe in pipes]
        for pid in pids:
            status[pid] = os.waitpid(pid, 0)[1]
    except BaseException:
        for pid in pids:
            if pid not in status:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()

    results: list = [None] * len(bounds)
    errors = []
    for w, (pid, data) in enumerate(zip(pids, replies)):
        code = os.waitstatus_to_exitcode(status[pid])
        if code or not data:
            how = (
                f"was killed by {signal.Signals(-code).name}"
                if code < 0
                else f"exited with status {code}"
            )
            raise RuntimeError(f"pool worker {w} (pid {pid}) {how} without a result")
        failed, value = pickle.loads(data)
        if failed is None:
            results[w::workers] = value
        else:
            errors.append((failed, value))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _work(fn, args, bounds, w, workers, pipes, wr) -> None:
    """A forked worker: run chunks w, w + workers, ..., write one reply to
    `wr` and end with os._exit, never returning into the parent's code.

    The reply is (None, results) or (index of the failing chunk, exception).
    """
    code = 1
    try:
        for pipe in pipes:  # every read end: the parent's business
            pipe.close()
        done = []
        try:
            for start, stop in bounds[w::workers]:
                done.append(fn(*args, start, stop))
            data = pickle.dumps((None, done), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            data = _error_reply(w + workers * len(done), exc)
        with open(wr, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _error_reply(chunk: int, exc: BaseException) -> bytes:
    """The pickled (chunk, exc); an exception that does not survive a pickle
    round trip is replaced by a RuntimeError carrying its traceback text."""
    try:
        data = pickle.dumps((chunk, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        import traceback

        text = "".join(traceback.format_exception(exc))
        err = RuntimeError(f"pool worker raised an unpicklable exception:\n{text}")
        return pickle.dumps((chunk, err), pickle.HIGHEST_PROTOCOL)


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
        "early": 0,
        "completed": [],
        "sizes": [],
        "count": np.zeros(k, dtype=np.int64),
        "rsum": np.zeros(k),
        "dx_sums": np.zeros(4),  # sums of dX^-, (dX^-)^2, dX^+, (dX^+)^2
        "dn": 0,
        "rmin": np.full(k, np.inf),
        "rmax": np.full(k, -np.inf),
    }
    rows = _rng.trial_rows(seed, _rng.RUN, start, stop, k)
    for t, draws in zip(range(start, stop), rows):
        prun = run_draws(host, ps, draws, seed, t)
        if tracked:
            stats = increment_diagnostics(host, tracked, prun)
            live = stats.live
            dm, dp = stats.dx_minus[live], stats.dx_plus[live]
            out["dx_sums"] += [dm.sum(), (dm * dm).sum(), dp.sum(), (dp * dp).sum()]
            out["dn"] += int(dm.size)
        out["violations"] += any(not r.in_envelope for r in prun.records)
        out["early"] += prun.tau < prun.completed_steps
        out["completed"].append(prun.completed_steps)
        out["sizes"].append(prun.chosen.size)
        # active sizes only shrink, so the steps with |V_i| > 1 are a prefix
        recs = [r for r in prun.records if r.active_size > 1]
        m = len(recs)
        ratios = np.array([r.deg_mean for r in recs]) / (
            ps.p * (np.array([r.active_size for r in recs]) - 1)
        )
        out["count"][:m] += 1
        out["rsum"][:m] += ratios
        out["rmin"][:m] = np.minimum(out["rmin"][:m], ratios)
        out["rmax"][:m] = np.maximum(out["rmax"][:m], ratios)
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
    tracked = tuple(vertex_id(host.n, v) for v in tracked)
    args = (host, ps, seed, tracked)
    parts = chunked_map(_ensemble_chunk, args, trials, _CHUNK, threads)

    # Later chunks merge into the first; a chunk's float partials start at
    # +0.0 and +-inf, so this is bit for bit a merge into fresh zeros.
    tot = parts[0]
    additive = (
        "violations", "early", "completed", "sizes", "count", "rsum", "dx_sums", "dn"
    )
    for part in parts[1:]:
        for key in additive:
            tot[key] += part[key]
        tot["rmin"] = np.minimum(tot["rmin"], part["rmin"])
        tot["rmax"] = np.maximum(tot["rmax"], part["rmax"])

    count, dn = tot["count"], tot["dn"]

    def reached(ratios: np.ndarray) -> list[float | None]:
        return [r if c else None for r, c in zip(ratios.tolist(), count.tolist())]

    def moments(total: float, sq: float) -> tuple[float | None, float | None]:
        if dn == 0:
            return None, None
        mean = total / dn
        var = max(sq / dn - mean * mean, 0.0)
        return mean, math.sqrt(var / dn)

    dm_sum, dm_sq, dp_sum, dp_sq = tot["dx_sums"].tolist()
    dm_mean, dm_se = moments(dm_sum, dm_sq)
    dp_mean, dp_se = moments(dp_sum, dp_sq)
    return EnsembleSummary(
        trials=trials,
        params=ps,
        seed=seed,
        violation_runs=tot["violations"],
        tau_equals_completed_fraction=1.0 - tot["early"] / trials,
        completed_steps=tot["completed"],
        set_sizes=tot["sizes"],
        step_counts=count.tolist(),
        ratio_mean=reached(tot["rsum"] / np.maximum(count, 1)),
        ratio_min=reached(tot["rmin"]),
        ratio_max=reached(tot["rmax"]),
        tracked=list(tracked),
        dx_minus_mean=dm_mean,
        dx_minus_se=dm_se,
        dx_plus_mean=dp_mean,
        dx_plus_se=dp_se,
        dx_count=dn,
    )
