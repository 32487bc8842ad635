"""Command-line entry point.

Subcommands: gen (host generation), run (process trajectories), typical
(host checks), cover (build and verify covers), estimate (Monte Carlo),
bounds (formula evaluation).  stdout carries exactly the machine payload:
canonical JSON (sorted keys, two-space indent, no timestamps), CSV for the
two flat tables, or edge-list text for gen.  Human-oriented notes go to
stderr.  Every JSON report embeds schema_version, the library version, and
the full, normalized flag set, so identical invocations are byte-identical
regardless of --threads.

Exit codes: 0 success; 1 for domain failures (--strict violations, I/O
errors, infeasible requests); 2 for usage errors (bad flags, bad numbers,
malformed input files).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .cover import (
    build_pdim_adaptive,
    build_pdim_cover,
    build_theta1_adaptive,
    build_theta1_cover,
    verify_cover,
)
from .graph import Graph, from_edge_list, gnp_sample, to_edge_list
from .montecarlo import (
    bipartite_comparison,
    estimate_conditional_chain,
    estimate_membership,
    uniform_independent_set,
)
from .params import ParamSet, bound_formulas, envelope
from .process import StepRecord, ensemble_run, run
from .typicality import is_typical

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Normalized flags for one invocation; echoed verbatim in reports.

    Fields not applicable to the subcommand stay None, so every report
    carries the same key set and sorts identically.
    """

    subcommand: str
    n: int | None = None
    p: float | None = None
    k_coef: float = 0.5
    epsilon: float | None = None
    seed: int = 0
    trials: int | None = None
    t: int | None = None
    s: int | None = None
    format: str = "json"
    input: str | None = None
    out: str | None = None
    mode: str | None = None
    what: str | None = None
    strict: bool = False
    strict_factor: float | None = None
    budget: int | None = None
    max_size: int | None = None
    max_t: int | None = None
    threads: int = 1
    tracked: int | None = None
    pair_sample: int | None = None
    i: int | None = None
    j: int | None = None
    u: int | None = None
    v: int | None = None
    a: int | None = None
    b: int | None = None
    k: int | None = None
    index: int | None = None
    sample_mode: str | None = None
    c_eps: float | None = None
    include_sets: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _add_host_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", help="edge-list file; mutually exclusive with --n")
    sp.add_argument("--n", type=int, help="generate a G(n, p) host instead")


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=float, help="density parameter in (0, 1)")
    sp.add_argument("--k-coef", type=float, default=0.5, dest="k_coef")
    sp.add_argument(
        "--epsilon",
        type=float,
        help="overrides --k-coef with epsilon/1024 (asymptotic coefficient)",
    )


def parse_args(argv: list[str]) -> RunConfig:
    """argv (without the program name) -> validated RunConfig.

    Usage problems raise SystemExit(2) via argparse.
    """
    parser = argparse.ArgumentParser(
        prog="greedycover",
        description="Greedy independent-set process, covers, and estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("gen", help="sample a G(n, p) host as edge-list text")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")

    sp = subs.add_parser("run", help="run the process; report trajectories")
    _add_host_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument(
        "--tracked",
        type=int,
        default=0,
        help="track increments for vertices 0..TRACKED-1 (ensemble only)",
    )
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")

    sp = subs.add_parser("typical", help="check a host against the three properties")
    _add_host_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=20)
    sp.add_argument("--max-size", type=int, dest="max_size")
    sp.add_argument("--strict-factor", type=float, default=1.0, dest="strict_factor")
    sp.add_argument(
        "--strict", action="store_true", help="exit 1 when the host is not typical"
    )
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")

    sp = subs.add_parser("cover", help="build a non-edge cover and verify it")
    _add_host_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--mode",
        choices=["theta1", "pdim", "adaptive", "pdim-adaptive"],
        default="adaptive",
        help="fixed-budget flat/partition cover, or adaptive variants",
    )
    sp.add_argument("--t", type=int, help="set/partition count for fixed modes")
    sp.add_argument("--s", type=int, help="sets per partition (pdim modes)")
    sp.add_argument("--max-t", type=int, dest="max_t", help="adaptive cap")
    sp.add_argument(
        "--strict", action="store_true", help="exit 1 if any non-edge is uncovered"
    )
    sp.add_argument(
        "--include-sets",
        action="store_true",
        dest="include_sets",
        help="embed full set memberships in the report",
    )
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")

    sp = subs.add_parser("estimate", help="Monte Carlo estimators")
    sp.add_argument(
        "--what",
        choices=["membership", "pair", "chain", "bipartite", "uniform"],
        default="membership",
    )
    _add_host_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--pair-sample", type=int, default=200, dest="pair_sample")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--i", type=int, help="first special step (chain)")
    sp.add_argument("--j", type=int, help="second special step (chain)")
    sp.add_argument("--u", type=int, help="vertex chosen at step i (chain)")
    sp.add_argument("--v", type=int, help="vertex chosen at step j (chain)")
    sp.add_argument("--a", type=int, help="first class size (bipartite)")
    sp.add_argument("--b", type=int, help="second class size (bipartite)")
    sp.add_argument("--k", type=int, help="set size (bipartite, uniform)")
    sp.add_argument("--index", type=int, default=0, help="draw index (uniform)")
    sp.add_argument(
        "--sample-mode",
        choices=["exact", "rejection"],
        default="exact",
        dest="sample_mode",
        help="uniform-set sampling strategy",
    )
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")

    sp = subs.add_parser("bounds", help="evaluate parameter and budget formulas")
    sp.add_argument("--n", type=int, required=True)
    _add_param_flags(sp)
    sp.add_argument("--c-eps", type=float, default=1.0, dest="c_eps")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")

    ns = parser.parse_args(argv)
    cfg = RunConfig(
        **{k: v for k, v in vars(ns).items() if k in RunConfig.__dataclass_fields__}
    )
    _validate(parser, subs.choices[cfg.subcommand], cfg)
    return cfg


# The paths of each subcommand that read a flag.  The path is run's trial
# count, cover's --mode and estimate's --what; a flag set away from its
# default on any other path would be ignored yet echoed in `config`.
_HOSTED = {"membership", "pair", "chain", "uniform"}
_GREEDY = {"membership", "pair", "chain"}
_APPLIES = {
    "run": dict.fromkeys(("tracked", "threads"), {"ensemble"}),
    "cover": {
        "t": {"theta1", "pdim"},
        "max_t": {"adaptive", "pdim-adaptive"},
        "s": {"pdim", "pdim-adaptive"},
    },
    "estimate": {
        **dict.fromkeys(("input", "n", "p"), _HOSTED),
        **dict.fromkeys(("k_coef", "epsilon"), _GREEDY),
        "trials": _GREEDY | {"bipartite"},
        **dict.fromkeys(("pair_sample", "threads"), {"membership", "pair"}),
        **dict.fromkeys(("i", "j", "u", "v"), {"chain"}),
        **dict.fromkeys(("a", "b"), {"bipartite"}),
        "k": {"bipartite", "uniform"},
        **dict.fromkeys(("index", "sample_mode"), {"uniform"}),
    },
}


def _validate(
    parser: argparse.ArgumentParser, sub_parser: argparse.ArgumentParser, cfg: RunConfig
) -> None:
    """Cross-flag checks; every failure is a usage error (exit 2)."""
    sub = cfg.subcommand
    path = {
        "run": "trajectory" if cfg.trials == 1 else "ensemble",
        "cover": cfg.mode,
        "estimate": cfg.what,
    }.get(sub)
    for name, paths in _APPLIES.get(sub, {}).items():
        if path not in paths and getattr(cfg, name) != sub_parser.get_default(name):
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} does not apply to this {sub} ({path})")
    needs_host = sub in ("run", "typical", "cover") or (
        sub == "estimate" and cfg.what in _HOSTED
    )
    if needs_host:
        if cfg.input is not None and cfg.n is not None:
            parser.error("--input and --n are mutually exclusive")
        if cfg.input is None and cfg.n is None:
            parser.error(f"{sub} needs a host: pass --input or --n")
    needs_p = sub in ("run", "typical", "cover", "bounds") or (
        sub == "estimate" and cfg.what in _GREEDY
    )
    if needs_p and cfg.p is None:
        parser.error(f"{sub} requires --p")
    if sub == "estimate":
        if cfg.what == "chain":
            missing = [
                f"--{name}"
                for name in ("i", "j", "u", "v")
                if getattr(cfg, name) is None
            ]
            if missing:
                parser.error(f"--what chain requires {' '.join(missing)}")
        if cfg.what == "bipartite":
            if cfg.a is None or cfg.b is None or cfg.k is None:
                parser.error("--what bipartite requires --a --b --k")
        if cfg.what == "uniform" and cfg.k is None:
            parser.error("--what uniform requires --k")
        if cfg.what == "uniform" and cfg.input is not None and cfg.p is not None:
            parser.error("--p does not apply to estimate (uniform) with --input")
    if cfg.format == "csv":
        flat = (sub == "run" and cfg.trials == 1) or (
            sub == "estimate" and cfg.what in ("membership", "pair")
        )
        if not flat:
            parser.error(
                "CSV is lossy and limited to flat tables: run --trials 1 "
                "or estimate --what membership/pair; use JSON here"
            )
    if sub == "cover":
        if cfg.mode in ("theta1", "pdim") and cfg.t is None:
            parser.error(f"cover --mode {cfg.mode} requires --t")
    if needs_host and cfg.input is None and cfg.p is None:
        parser.error("generating a host requires --p")
    for name in ("trials", "budget", "t", "s", "max_t", "max_size", "k", "threads"):
        val = getattr(cfg, name)
        if val is not None and val < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    for name in ("tracked", "pair_sample", "index"):
        val = getattr(cfg, name)
        if val is not None and val < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0")
    if cfg.c_eps is not None and cfg.c_eps <= 0:
        parser.error("--c-eps must be positive")
    if cfg.strict_factor is not None and not 0 < cfg.strict_factor <= 1:
        parser.error("--strict-factor must lie in (0, 1]")


class _SetupError(Exception):
    """Bad config-derived values (parameter ranges, malformed input files).

    Reported as usage errors: exit code 2.
    """


def _load_host(cfg: RunConfig) -> Graph:
    """Host from --input (edge list) or gnp_sample(--n, --p, --seed)."""
    try:
        if cfg.input is not None:
            with open(cfg.input, encoding="utf-8") as fh:
                return from_edge_list(fh.read())
        return gnp_sample(cfg.n, cfg.p, cfg.seed)
    except ValueError as exc:
        raise _SetupError(str(exc)) from exc


def _params(cfg: RunConfig, n: int) -> ParamSet:
    try:
        return ParamSet(n=n, p=cfg.p, k_coef=cfg.k_coef, epsilon=cfg.epsilon)
    except ValueError as exc:
        raise _SetupError(str(exc)) from exc


def _json_payload(cfg: RunConfig, body: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "config": cfg.to_dict(),
        **body,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(cfg: RunConfig, payload: str, note: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(note, file=sys.stderr)
    if cfg.format == "csv":
        print("note: CSV is lossy; JSON is the canonical format", file=sys.stderr)


def _csv_cell(value):
    """None as an empty cell, a bool as 0/1; csv writes the rest with str()."""
    if value is None:
        return ""
    return int(value) if isinstance(value, bool) else value


def _run_records_csv(prun) -> str:
    header = [f.name for f in fields(StepRecord)]
    rows = [[_csv_cell(x) for x in r.to_dict().values()] for r in prun.records]
    return _csv_table(header, rows)


def _membership_csv(rep) -> str:
    header = ["vertex", "count", "freq", "ci_radius"]
    rows = [
        [v, c, repr(f), repr(r)]
        for v, (c, f, r) in enumerate(
            zip(rep.per_vertex_count, rep.per_vertex_freq, rep.ci_vertex)
        )
    ]
    return _csv_table(header, rows)


def _execute_gen(cfg: RunConfig) -> int:
    host = _load_host(cfg)
    _emit(
        cfg,
        to_edge_list(host) + "\n",
        f"gen: n={host.n} p={cfg.p} seed={cfg.seed} edges={host.edge_count}",
    )
    return 0


def _execute_run(cfg: RunConfig) -> int:
    host = _load_host(cfg)
    ps = _params(cfg, host.n)
    if cfg.trials == 1:
        prun = run(host, ps, cfg.seed)
        if cfg.format == "csv":
            payload = _run_records_csv(prun)
        else:
            payload = _json_payload(cfg, {"run": prun.to_dict()})
        note = (
            f"run: completed {prun.completed_steps}/{ps.k} steps,"
            f" tau={prun.tau}, set_size={prun.chosen.size}"
        )
        _emit(cfg, payload, note)
        return 0
    summary = ensemble_run(
        host,
        ps,
        trials=cfg.trials,
        seed=cfg.seed,
        tracked=tuple(range(cfg.tracked)),
        threads=cfg.threads,
    )
    payload = _json_payload(cfg, {"ensemble": summary.to_dict()})
    note = f"run: {cfg.trials} trials, violation_runs={summary.violation_runs}"
    _emit(cfg, payload, note)
    return 0


def _execute_typical(cfg: RunConfig) -> int:
    host = _load_host(cfg)
    ps = _params(cfg, host.n)
    report = is_typical(
        host,
        ps,
        budget=cfg.budget,
        seed=cfg.seed,
        strict_factor=cfg.strict_factor,
        max_size=cfg.max_size,
    )
    body = {
        "host": {"n": host.n, "edges": host.edge_count},
        "typicality": report.to_dict(),
    }
    _emit(cfg, _json_payload(cfg, body), f"typical: {report.typical}")
    if cfg.strict and not report.typical:
        return 1
    return 0


def _execute_cover(cfg: RunConfig) -> int:
    host = _load_host(cfg)
    ps = _params(cfg, host.n)
    adaptive_count = None
    if cfg.mode == "theta1":
        cover = build_theta1_cover(host, ps, t=cfg.t, seed=cfg.seed)
    elif cfg.mode == "adaptive":
        cover, adaptive_count = build_theta1_adaptive(
            host, ps, seed=cfg.seed, max_t=cfg.max_t
        )
    elif cfg.mode == "pdim":
        s = cfg.s if cfg.s is not None else bound_formulas(ps)["s_pdim"]
        cover = build_pdim_cover(host, ps, s=s, t=cfg.t, seed=cfg.seed)
    else:
        cover, adaptive_count = build_pdim_adaptive(
            host, ps, seed=cfg.seed, s=cfg.s, max_t=cfg.max_t
        )
    report = verify_cover(host, cover, ps=ps, adaptive_count=adaptive_count)
    body = {
        "host": {"n": host.n, "edges": host.edge_count},
        "verification": report.to_dict(),
    }
    if adaptive_count is not None:
        body["adaptive_count"] = adaptive_count
    if cfg.include_sets:
        body["cover"] = cover.to_dict()
    _emit(
        cfg,
        _json_payload(cfg, body),
        f"cover: mode={cfg.mode} sets={report.total_sets}"
        f" covered_fraction={report.covered_fraction}",
    )
    if cfg.strict and report.uncovered:
        return 1
    return 0


def _execute_estimate(cfg: RunConfig) -> int:
    if cfg.what == "bipartite":
        rep = bipartite_comparison(cfg.a, cfg.b, cfg.k, cfg.trials, cfg.seed)
        note = f"estimate: bipartite ratio_exact={rep.ratio_exact}"
        _emit(cfg, _json_payload(cfg, {"bipartite": rep.to_dict()}), note)
        return 0
    host = _load_host(cfg)
    if cfg.what == "uniform":
        vs = uniform_independent_set(
            host, cfg.k, seed=cfg.seed, index=cfg.index, mode=cfg.sample_mode
        )
        body = {"uniform_set": {"members": vs.to_list(), "size": vs.size}}
        _emit(cfg, _json_payload(cfg, body), f"estimate: uniform set size={vs.size}")
        return 0
    ps = _params(cfg, host.n)
    if cfg.what == "chain":
        est = estimate_conditional_chain(
            host, ps, cfg.i, cfg.j, cfg.u, cfg.v, cfg.trials, cfg.seed
        )
        note = f"estimate: chain joint_freq={est.joint_freq}"
        _emit(cfg, _json_payload(cfg, {"chain": est.to_dict()}), note)
        return 0
    rep = estimate_membership(
        host,
        ps,
        trials=cfg.trials,
        seed=cfg.seed,
        pair_sample=cfg.pair_sample,
        threads=cfg.threads,
    )
    payload = (
        _membership_csv(rep)
        if cfg.format == "csv"
        else _json_payload(cfg, {"membership": rep.to_dict()})
    )
    _emit(cfg, payload, f"estimate: {cfg.what} trials={cfg.trials}")
    return 0


def _execute_bounds(cfg: RunConfig) -> int:
    ps = _params(cfg, cfg.n)
    body = {
        "params": ps.to_dict(),
        "bounds": bound_formulas(ps, c_eps=cfg.c_eps),
        "envelope": [envelope(ps, i).to_dict() for i in range(ps.k + 1)],
    }
    _emit(cfg, _json_payload(cfg, body), f"bounds: k={ps.k}")
    return 0


_EXECUTORS = {
    "gen": _execute_gen,
    "run": _execute_run,
    "typical": _execute_typical,
    "cover": _execute_cover,
    "estimate": _execute_estimate,
    "bounds": _execute_bounds,
}


def execute(cfg: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit code."""
    try:
        return _EXECUTORS[cfg.subcommand](cfg)
    except _SetupError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # domain errors from the library at runtime (infeasible chain pair,
        # no independent k-set, rejection cap, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(cfg)
