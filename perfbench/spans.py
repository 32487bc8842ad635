"""Spans around the public functions of each greedycover module.

The tracer patches a function at the name its caller resolves it by (for
example `sample_independent_set` as imported into `greedycover.cover` and
into `greedycover.montecarlo`), so no file of the package changes.  Spans
are aggregated in memory per name: calls, total time and self time, where
self time is a span's duration minus the time its child spans cover.
Counters (vertices removed, bytes computed, sets that covered a new
non-edge) are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import pickle
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  The span name is "<layer>.<function>",
# with the layer being the module that defines the function.  Only names the
# five workloads reach are listed.
TARGETS = [
    ("greedycover.rng", "stream", "rng.stream"),
    ("greedycover.cover", "sample_independent_set", "process.sample_independent_set"),
    ("greedycover.montecarlo", "sample_independent_set", "process.sample_independent_set"),
    ("greedycover.process", "init", "process.init"),
    ("greedycover.process", "step", "process.step"),
    ("greedycover.typicality", "run_with_generator", "process.run_with_generator"),
    ("greedycover.process", "increment_diagnostics", "process.increment_diagnostics"),
    ("greedycover.process", "_ensemble_chunk", "process.ensemble_chunk"),
    ("greedycover.cli", "ensemble_run", "process.ensemble_run"),
    ("greedycover.process", "expected_degree", "params.expected_degree"),
    ("greedycover.process", "error_f", "params.error_f"),
    ("greedycover.typicality", "error_f", "params.error_f"),
    ("greedycover.cover", "bound_formulas", "params.bound_formulas"),
    ("greedycover.cli", "gnp_sample", "graph.gnp_sample"),
    ("greedycover.montecarlo", "complete_bipartite", "graph.complete_bipartite"),
    ("greedycover.typicality", "common_non_neighbourhood", "graph.common_non_neighbourhood"),
    ("greedycover.cli", "is_typical", "typicality.is_typical"),
    ("greedycover.typicality", "check_p1", "typicality.check_p1"),
    ("greedycover.typicality", "check_p2", "typicality.check_p2"),
    ("greedycover.typicality", "check_p3", "typicality.check_p3"),
    ("greedycover.typicality", "e_table", "typicality.e_table"),
    ("greedycover.cli", "build_theta1_adaptive", "cover.build_theta1_adaptive"),
    ("greedycover.cli", "build_pdim_adaptive", "cover.build_pdim_adaptive"),
    ("greedycover.cover", "_partition", "cover.partition"),
    ("greedycover.cli", "verify_cover", "cover.verify_cover"),
    ("greedycover.cli", "estimate_membership", "montecarlo.estimate_membership"),
    ("greedycover.cli", "bipartite_comparison", "montecarlo.bipartite_comparison"),
    ("greedycover.montecarlo", "sample_non_edges", "montecarlo.sample_non_edges"),
    ("greedycover.montecarlo", "_membership_chunk", "montecarlo.membership_chunk"),
]

# Methods, patched on their class.
METHOD_TARGETS = [
    ("greedycover.graph", "Graph", "packed_rows", "graph.packed_rows"),
]

ROOT = "cli.main"
BUILDERS = ("cover.build_theta1_adaptive", "cover.build_pdim_adaptive")


class Tracer:
    """Aggregated spans of one job, plus counters taken at span boundaries."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._pickled: dict[int, int] = {}
        self._saved: list[tuple] = []
        self._active_before = 0

    def wrap(self, name, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def parent(self) -> str | None:
        """Name of the span that is running the current call."""
        return self._stack[-1][0] if self._stack else None

    def pickled_size(self, host, rest: tuple) -> int:
        """Bytes a process pool pickles to send (host, *rest) to a worker."""
        key = id(host)
        if key not in self._pickled:
            self._pickled[key] = len(pickle.dumps(host))
        return self._pickled[key] + len(pickle.dumps(rest))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every target; `uninstall` restores the original objects."""
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig, self._observer(mod_name, attr)))
        for mod_name, cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(span, orig))
        tracker = importlib.import_module("greedycover.cover")._CoverageTracker
        orig_add = tracker.__dict__["add"]
        self._saved.append((tracker, "add", orig_add))
        setattr(tracker, "add", self._count_tracker_adds(orig_add))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _observer(self, mod_name: str, attr: str):
        c = self.counters
        if attr == "sample_independent_set":
            key = "cover.sets" if mod_name.endswith("cover") else "montecarlo.trials"

            def count(args, kwargs, result):
                c[key] += 1

            return count
        if attr == "step":
            return self._observe_step
        if attr == "check_p3":

            def p3(args, kwargs, frag):
                # each pair reads both packed rows for the AND, then the AND
                # result again for the popcount
                w = args[0].packed_rows().shape[1]
                c["typicality.p3_pairs"] += frag.pairs_tested
                c["typicality.p3_bytes"] += 3 * w * frag.pairs_tested

            return p3
        if attr == "check_p1":

            def p1(args, kwargs, frag):
                c["typicality.p1_subsets"] += frag.subsets_tested

            return p1
        if attr in ("_ensemble_chunk", "_membership_chunk"):
            key = "process.pool_bytes" if attr == "_ensemble_chunk" else "montecarlo.pool_bytes"

            def chunk(args, kwargs, result):
                c[key] += self.pickled_size(args[0], args[1:])

            return chunk
        return None

    def _observe_step(self, args, kwargs, rec):
        # runs are traced one at a time and step i=1 starts from all n
        # vertices, so the previous record's active size is the size before
        if rec is None:
            return
        state = args[0]
        before = state.host.n if rec.i == 1 else self._active_before
        self._active_before = rec.active_size
        removed = before - rec.active_size
        self.counters["process.removed"] += removed
        if state.active_mask:
            # removed-row update: gather the packed rows, AND them with the
            # active mask, then unpack to one byte per vertex
            w = state._act_words
            self.counters["process.degree_bytes"] += removed * (2 * w + state.host.n)

    def _count_tracker_adds(self, orig_add):
        c = self.counters

        def add(tracker_self, mask):
            new = orig_add(tracker_self, mask)
            if self.parent() in BUILDERS:  # verify_cover uses a tracker too
                c["cover.adds"] += 1
                c["cover.useful_adds"] += new > 0
            return new

        add.__wrapped__ = orig_add
        return add


def self_time(stats: dict, *names: str) -> float:
    return sum(stats[n][2] for n in names if n in stats)


def total_time(stats: dict, *names: str) -> float:
    return sum(stats[n][1] for n in names if n in stats)


def calls(stats: dict, *names: str) -> int:
    return sum(stats[n][0] for n in names if n in stats)


def per_call(seconds: float, count: int, scale: float) -> float:
    return seconds / count * scale if count else 0.0


def layer_metrics(stats: dict, counters: Counter, payload_bytes: int) -> dict:
    """Per-layer metrics of one traced job from its spans and counters.

    Layers that did not run in the job report 0.
    """
    root = total_time(stats, ROOT)
    sample = "process.sample_independent_set"
    runs = "process.run_with_generator"
    params = ("params.expected_degree", "params.error_f")
    p3_s = total_time(stats, "typicality.check_p3")
    adds = counters["cover.adds"]
    return {
        "rng.stream_us": per_call(total_time(stats, "rng.stream"), calls(stats, "rng.stream"), 1e6),
        "rng.streams": calls(stats, "rng.stream"),
        "rng.share": total_time(stats, "rng.stream") / root,
        "process.sample_us": per_call(self_time(stats, sample), calls(stats, sample), 1e6),
        "process.samples": calls(stats, sample),
        "process.step_us": per_call(self_time(stats, "process.step"), calls(stats, "process.step"), 1e6),
        "process.steps": calls(stats, "process.step"),
        "process.removed": counters["process.removed"],
        "process.degree_bytes": counters["process.degree_bytes"],
        "process.run_ms": per_call(self_time(stats, runs), calls(stats, runs), 1e3),
        "process.increment_self_ms": per_call(
            self_time(stats, "process.increment_diagnostics"),
            calls(stats, "process.increment_diagnostics"),
            1e3,
        ),
        "process.ensemble_self_s": self_time(stats, "process.ensemble_run", "process.ensemble_chunk"),
        "process.pool_chunks": calls(stats, "process.ensemble_chunk"),
        "process.pool_bytes": counters["process.pool_bytes"],
        "params.calls": calls(stats, *params),
        "params.self_s": self_time(stats, *params),
        "graph.gnp_sample_s": total_time(stats, "graph.gnp_sample"),
        "graph.packed_rows_s": total_time(stats, "graph.packed_rows"),
        "graph.cnn_us": per_call(
            total_time(stats, "graph.common_non_neighbourhood"),
            calls(stats, "graph.common_non_neighbourhood"),
            1e6,
        ),
        "graph.cnn_calls": calls(stats, "graph.common_non_neighbourhood"),
        "typicality.p3_s": p3_s,
        "typicality.p3_pairs_per_s": counters["typicality.p3_pairs"] / p3_s if p3_s else 0.0,
        "typicality.p3_bytes": counters["typicality.p3_bytes"],
        "typicality.p1_self_s": self_time(stats, "typicality.check_p1"),
        "typicality.p1_subsets": counters["typicality.p1_subsets"],
        "typicality.p2_s": total_time(stats, "typicality.check_p2"),
        "cover.build_self_s": self_time(stats, *BUILDERS, "cover.partition"),
        "cover.verify_s": total_time(stats, "cover.verify_cover"),
        "cover.sets": counters["cover.sets"],
        "cover.useful_frac": counters["cover.useful_adds"] / adds if adds else 0.0,
        "montecarlo.self_s": self_time(
            stats,
            "montecarlo.estimate_membership",
            "montecarlo.membership_chunk",
            "montecarlo.bipartite_comparison",
        ),
        "montecarlo.non_edge_sample_s": total_time(stats, "montecarlo.sample_non_edges"),
        "montecarlo.trials": counters["montecarlo.trials"],
        "montecarlo.pool_chunks": calls(stats, "montecarlo.membership_chunk"),
        "montecarlo.pool_bytes": counters["montecarlo.pool_bytes"],
        "cli.self_s": self_time(stats, ROOT),
        "cli.payload_bytes": payload_bytes,
    }


def layer_shares(stats: dict) -> dict[str, float]:
    """Self time of each layer as a share of the job's traced time."""
    root = total_time(stats, ROOT)
    shares: dict[str, float] = {}
    for name, (_, _, own) in stats.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + own / root
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def span_shares(stats: dict, top: int = 6) -> list[tuple[str, float]]:
    """The `top` spans by self time, as shares of the job's traced time."""
    root = total_time(stats, ROOT)
    ranked = sorted(((own / root, name) for name, (_, _, own) in stats.items()), reverse=True)
    return [(name, share) for share, name in ranked[:top] if share > 0]
