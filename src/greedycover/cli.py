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
import io
import json
import math
import sys
from dataclasses import field, fields, is_dataclass, make_dataclass
from fractions import Fraction

from . import __version__
from .graph import Graph, VertexSet, from_edge_list, gnp_sample, to_edge_list
from .params import ParamSet, bound_formulas, envelope
from .rng import MAX_INDEX

SCHEMA_VERSION = 1

# The library names each subcommand's executor reads.  `execute` binds them
# into this module before it runs the subcommand, each resolved through the
# package's export table, so a start loads only the modules that subcommand
# runs.  A name already set here (a test's or a tracer's patch) is kept.
_LIBRARY = {
    "run": ("StepRecord", "ensemble_run", "run"),
    "typical": ("is_typical",),
    "cover": (
        "build_pdim_adaptive",
        "build_pdim_cover",
        "build_theta1_adaptive",
        "build_theta1_cover",
        "verify_cover",
    ),
    "estimate": (
        "bipartite_comparison",
        "estimate_conditional_chain",
        "estimate_membership",
        "uniform_independent_set",
    ),
}


def __getattr__(name: str):
    """A library name read before its subcommand first runs."""
    if not any(name in names for names in _LIBRARY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _bind(sub: str) -> None:
    for name in _LIBRARY.get(sub, ()):
        globals().setdefault(name, __getattr__(name))


# The paths of each subcommand: run's trial count, cover's --mode and
# estimate's --what.  A single-path subcommand's path is its own name, so
# every path name is unique.
PATHS = {
    "gen": ("gen",),
    "run": ("trajectory", "ensemble"),
    "typical": ("typical",),
    "cover": ("theta1", "pdim", "adaptive", "pdim-adaptive"),
    "estimate": ("membership", "pair", "chain", "bipartite", "uniform"),
    "bounds": ("bounds",),
}
_HELP = {
    "gen": "sample a G(n, p) host as edge-list text",
    "run": "run the process; report trajectories",
    "typical": "check a host against the three properties",
    "cover": "build a non-edge cover and verify it",
    "estimate": "Monte Carlo estimators",
    "bounds": "evaluate parameter and budget formulas",
}


def _every(*subs: str) -> set[str]:
    """All paths of the named subcommands."""
    return {path for sub in subs for path in PATHS[sub]}


class Flag:
    """One CLI flag: the paths that read it, the paths that require it, its
    smallest and largest accepted values, its two defaults, its help and its
    other argparse keywords.

    A subcommand has the flag iff one of its paths reads it.  `default` is
    the flag's value on a subcommand that has it when it is not given (a dict
    by subcommand for --trials).  `echo` is its value on the subcommands that
    lack it, which the golden digests pin (`bounds` echoes "seed": 0, `gen`
    "k_coef": 0.5).
    """

    def __init__(
        self, reads, needs=frozenset(), floor=None, ceiling=None, default=None,
        echo=None, help="", **kwargs
    ):
        self.reads = reads
        self.needs = needs
        self.floor = floor
        self.ceiling = ceiling
        self.default = default
        self.echo = echo
        self.help = help
        self.kwargs = kwargs


_GREEDY = {"membership", "pair", "chain"}
_TRIALS = _GREEDY | {"bipartite"}  # estimators with a trial count
_HOSTS = _every("run", "typical", "cover") | _GREEDY | {"uniform"}  # load a host
_SIZED = _HOSTS | {"gen", "bounds"}  # read --n and --p
_PARAMS = _SIZED - {"gen", "uniform"}  # build a ParamSet
_FIXED = {"theta1", "pdim"}
_PDIM = {"pdim", "pdim-adaptive"}
_ADAPTIVE = {"adaptive", "pdim-adaptive"}
_SETS = {"bipartite", "uniform"}

# Each flag once, keyed by the RunConfig field it becomes (--k-coef is k_coef).
FLAGS = {
    "what": Flag(_every("estimate"), choices=PATHS["estimate"], default="membership"),
    "input": Flag(_HOSTS, help="edge-list file; mutually exclusive with --n"),
    "n": Flag(_SIZED, {"gen", "bounds"}, type=int, help="vertex count of G(n, p)"),
    "p": Flag(
        _SIZED, _PARAMS | {"gen"}, type=float, help="density parameter in (0, 1)"
    ),
    "k_coef": Flag(_PARAMS, type=float, default=0.5, echo=0.5),
    "epsilon": Flag(
        _PARAMS, type=float, help="k coefficient epsilon/1024; excludes --k-coef"
    ),
    "seed": Flag(_every(*PATHS) - {"bounds"}, type=int, default=0, echo=0),
    "trials": Flag(
        _every("run") | _TRIALS,
        floor=1,
        ceiling=MAX_INDEX,  # trial t reads stream index t
        type=int,
        default={"run": 1, "estimate": 10_000},
    ),
    "tracked": Flag(
        {"ensemble"},
        floor=0,
        type=int,
        default=0,
        help="track increments for vertices 0..TRACKED-1",
    ),
    "threads": Flag({"ensemble"} | _TRIALS, floor=1, type=int, default=1, echo=1),
    "budget": Flag({"typical"}, floor=1, type=int, default=20),
    "max_size": Flag({"typical"}, floor=1, type=int),
    "strict_factor": Flag({"typical"}, type=float, default=1.0),
    "strict": Flag(
        _every("typical", "cover"),
        default=False,
        echo=False,
        action="store_true",
        help="exit 1 when the host is not typical or a non-edge is uncovered",
    ),
    "mode": Flag(
        _every("cover"),
        choices=PATHS["cover"],
        default="adaptive",
        help="fixed-budget flat/partition cover, or adaptive variants",
    ),
    "t": Flag(_FIXED, _FIXED, floor=1, type=int, help="set/partition count"),
    "s": Flag(_PDIM, floor=1, type=int, help="sets per partition"),
    "max_t": Flag(_ADAPTIVE, floor=1, type=int, help="adaptive cap"),
    "include_sets": Flag(
        _every("cover"),
        default=False,
        echo=False,
        action="store_true",
        help="embed full set memberships in the report",
    ),
    "pair_sample": Flag({"membership", "pair"}, floor=0, type=int, default=200),
    "i": Flag({"chain"}, {"chain"}, floor=1, type=int, help="first special step"),
    "j": Flag({"chain"}, {"chain"}, floor=1, type=int, help="second special step"),
    "u": Flag({"chain"}, {"chain"}, floor=0, type=int, help="vertex chosen at step i"),
    "v": Flag({"chain"}, {"chain"}, floor=0, type=int, help="vertex chosen at step j"),
    "a": Flag({"bipartite"}, {"bipartite"}, type=int, help="first class size"),
    "b": Flag({"bipartite"}, {"bipartite"}, type=int, help="second class size"),
    "k": Flag(_SETS, _SETS, floor=1, type=int, help="set size"),
    "index": Flag(
        {"uniform"},
        floor=0,
        ceiling=MAX_INDEX - 1,
        type=int,
        default=0,
        help="draw index",
    ),
    "sample_mode": Flag(
        {"uniform"},
        choices=["exact", "rejection"],
        default="exact",
        help="uniform-set sampling strategy",
    ),
    "c_eps": Flag({"bounds"}, type=float, default=1.0),
    "format": Flag(
        _every(*PATHS) - {"gen"}, choices=["json", "csv"], default="json", echo="json"
    ),
    "out": Flag(_every(*PATHS)),
}


RunConfig = make_dataclass(
    "RunConfig",
    [("subcommand", str)]
    + [(name, object, field(default=flag.echo)) for name, flag in FLAGS.items()],
    namespace={
        "__module__": __name__,
        "__doc__": """Normalized flags for one invocation; echoed verbatim in reports.

        One field per FLAGS entry, so every report carries the same key set.
        A flag given on the command line keeps its value, one that the
        subcommand has takes `Flag.default`, and one that it lacks takes
        `Flag.echo`, the field's default.
        """,
    },
)


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def parse_args(argv: list[str]) -> RunConfig:
    """argv (without the program name) -> validated RunConfig.

    argparse returns only the flags given; FLAGS supplies the rest.  Usage
    problems, abbreviated flags among them, raise SystemExit(2) via argparse.
    """
    parser = argparse.ArgumentParser(
        prog="greedycover",
        description="Greedy independent-set process, covers, and estimators.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    defaults = {sub: {} for sub in PATHS}  # of the flags each subcommand has
    for sub, paths in PATHS.items():
        sp = subs.add_parser(sub, help=_HELP[sub], allow_abbrev=False)
        for name, flag in FLAGS.items():
            reads = [path for path in paths if path in flag.reads]
            if reads:
                note = f" ({', '.join(reads)})" if len(reads) < len(paths) else ""
                sp.add_argument(
                    _option(name),
                    default=argparse.SUPPRESS,
                    help=flag.help + note,
                    **flag.kwargs,
                )
                value = flag.default
                defaults[sub][name] = value[sub] if isinstance(value, dict) else value

    given = vars(parser.parse_args(argv))
    cfg = RunConfig(**defaults[given["subcommand"]] | given)
    _validate(parser, given, cfg)
    return cfg


def _validate(parser: argparse.ArgumentParser, given: dict, cfg: RunConfig) -> None:
    """Cross-flag checks on the flags `given` on the command line and their
    resolved `cfg`; every failure is a usage error (exit 2)."""
    sub = cfg.subcommand
    path = {
        "run": "trajectory" if cfg.trials == 1 else "ensemble",
        "cover": cfg.mode,
        "estimate": cfg.what,
    }.get(sub, sub)
    where = sub if path == sub else f"{sub} ({path})"

    missing = []
    for name, flag in FLAGS.items():
        value = getattr(cfg, name)
        if name in given and path not in flag.reads:
            parser.error(f"{_option(name)} does not apply to {where}")
        if path in flag.needs and value is None:
            missing.append(_option(name))
        if flag.floor is not None and value is not None and value < flag.floor:
            parser.error(f"{_option(name)} must be >= {flag.floor}")
        if flag.ceiling is not None and value is not None and value > flag.ceiling:
            parser.error(f"{_option(name)} must be <= {flag.ceiling}")
    if missing:
        parser.error(f"{where} requires {' '.join(missing)}")
    for first, second in (("input", "n"), ("k_coef", "epsilon")):
        if first in given and second in given:
            parser.error(f"{_option(first)} and {_option(second)} exclude each other")
    if path in _HOSTS:
        if cfg.input is None and cfg.n is None:
            parser.error(f"{where} needs a host: pass --input or --n")
        if path == "uniform" and (cfg.input is None) == (cfg.p is None):
            parser.error("estimate (uniform) reads --p iff it generates the host")
    if path == "chain" and not (cfg.i < cfg.j and cfg.u != cfg.v):
        parser.error("estimate (chain) needs --i < --j and --u != --v")
    if path == "bipartite" and not (cfg.a >= cfg.k >= 2 and cfg.b >= 1):
        parser.error("estimate (bipartite) needs --a >= --k >= 2 and --b >= 1")
    if cfg.format == "csv" and path not in ("trajectory", "membership", "pair"):
        parser.error(
            "CSV is lossy and limited to flat tables: run --trials 1 "
            "or estimate --what membership/pair; use JSON here"
        )
    if cfg.c_eps is not None and not 0 < cfg.c_eps < math.inf:
        parser.error("--c-eps must be positive and finite")
    if cfg.strict_factor is not None and not 0 < cfg.strict_factor <= 1:
        parser.error("--strict-factor must lie in (0, 1]")


class _SetupError(Exception):
    """Bad config-derived values (parameter ranges, malformed input files): exit 2."""


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


def plain(value):
    """The JSON-ready form of a payload value.

    A VertexSet becomes its sorted members, a Fraction its exact text
    ("7/2", "1"), a dataclass the dict of the fields it shows in its repr, a
    named tuple the dict of its fields; lists, tuples and dicts are
    converted item by item.  A record's payload is thus exactly its shown
    fields.
    """
    if isinstance(value, VertexSet):
        return value.to_list()
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value) if f.repr}
    if hasattr(value, "_asdict"):
        return plain(value._asdict())
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {key: plain(x) for key, x in value.items()}
    return value


def _json_payload(cfg: RunConfig, body: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "config": cfg,
        **body,
    }
    return json.dumps(plain(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_table(header: list[str], rows: list[list]) -> str:
    import csv  # only the CSV path needs it

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
    rows = [[_csv_cell(x) for x in plain(r).values()] for r in prun.records]
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


# Each executor returns (body, note, exit code).  The body is the payload text
# (an edge list or a CSV table) or the dict of records the JSON document adds
# to `config`, each written as `plain` gives it.


def _execute_gen(cfg: RunConfig) -> tuple:
    host = _load_host(cfg)
    note = f"gen: n={host.n} p={cfg.p} seed={cfg.seed} edges={host.edge_count}"
    return to_edge_list(host) + "\n", note, 0


def _execute_run(cfg: RunConfig) -> tuple:
    host = _load_host(cfg)
    if cfg.tracked > host.n:
        raise _SetupError(f"--tracked {cfg.tracked} exceeds the host's n={host.n}")
    ps = _params(cfg, host.n)
    if cfg.trials == 1:
        prun = run(host, ps, cfg.seed)
        note = (
            f"run: completed {prun.completed_steps}/{ps.k} steps,"
            f" tau={prun.tau}, set_size={prun.chosen.size}"
        )
        if cfg.format == "csv":
            return _run_records_csv(prun), note, 0
        return {"run": prun}, note, 0
    summary = ensemble_run(
        host,
        ps,
        trials=cfg.trials,
        seed=cfg.seed,
        tracked=tuple(range(cfg.tracked)),
        threads=cfg.threads,
    )
    note = f"run: {cfg.trials} trials, violation_runs={summary.violation_runs}"
    return {"ensemble": summary}, note, 0


def _execute_typical(cfg: RunConfig) -> tuple:
    host = _load_host(cfg)
    if cfg.max_size is not None and cfg.max_size > host.n:
        raise _SetupError(f"--max-size {cfg.max_size} exceeds the host's n={host.n}")
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
        "typicality": report,
    }
    code = 1 if cfg.strict and not report.typical else 0
    return body, f"typical: {report.typical}", code


def _execute_cover(cfg: RunConfig) -> tuple:
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
        cover = build_pdim_cover(host, ps, t=cfg.t, seed=cfg.seed, s=cfg.s)
    else:
        cover, adaptive_count = build_pdim_adaptive(
            host, ps, seed=cfg.seed, s=cfg.s, max_t=cfg.max_t
        )
    report = verify_cover(host, cover, ps=ps, adaptive_count=adaptive_count)
    body = {
        "host": {"n": host.n, "edges": host.edge_count},
        "verification": report,
    }
    if adaptive_count is not None:
        body["adaptive_count"] = adaptive_count
    if cfg.include_sets:
        body["cover"] = cover
    note = (
        f"cover: mode={cfg.mode} sets={report.total_sets}"
        f" covered_fraction={report.covered_fraction}"
    )
    return body, note, 1 if cfg.strict and report.uncovered else 0


def _execute_estimate(cfg: RunConfig) -> tuple:
    if cfg.what == "bipartite":
        rep = bipartite_comparison(
            cfg.a, cfg.b, cfg.k, cfg.trials, cfg.seed, threads=cfg.threads
        )
        note = f"estimate: bipartite ratio_exact={rep.ratio_exact}"
        return {"bipartite": rep}, note, 0
    host = _load_host(cfg)
    if cfg.what == "chain" and max(cfg.u, cfg.v) >= host.n:
        raise _SetupError(f"--u and --v must be vertices of the host, below n={host.n}")
    if cfg.what == "uniform":
        if cfg.k > host.n:
            raise _SetupError(f"--k {cfg.k} exceeds the host's n={host.n}")
        vs = uniform_independent_set(
            host, cfg.k, seed=cfg.seed, index=cfg.index, mode=cfg.sample_mode
        )
        body = {"uniform_set": {"members": vs, "size": vs.size}}
        return body, f"estimate: uniform set size={vs.size}", 0
    ps = _params(cfg, host.n)
    if cfg.what == "chain":
        est = estimate_conditional_chain(
            host, ps, cfg.i, cfg.j, cfg.u, cfg.v, cfg.trials, cfg.seed, cfg.threads
        )
        note = f"estimate: chain joint_freq={est.joint_freq}"
        return {"chain": est}, note, 0
    rep = estimate_membership(
        host,
        ps,
        trials=cfg.trials,
        seed=cfg.seed,
        pair_sample=cfg.pair_sample,
        threads=cfg.threads,
    )
    note = f"estimate: {cfg.what} trials={cfg.trials}"
    if cfg.format == "csv":
        return _membership_csv(rep), note, 0
    return {"membership": rep}, note, 0


def _execute_bounds(cfg: RunConfig) -> tuple:
    ps = _params(cfg, cfg.n)
    try:
        bounds = bound_formulas(ps, c_eps=cfg.c_eps)
    except ValueError as exc:
        raise _SetupError(str(exc)) from exc
    body = {
        "params": ps,
        "bounds": bounds,
        "envelope": [envelope(ps, i) for i in range(ps.k + 1)],
    }
    return body, f"bounds: k={ps.k}", 0


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
    _bind(cfg.subcommand)
    try:
        body, note, code = _EXECUTORS[cfg.subcommand](cfg)
        _emit(cfg, body if isinstance(body, str) else _json_payload(cfg, body), note)
        return code
    except _SetupError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # domain errors from the library at runtime (infeasible chain pair,
        # no independent k-set, rejection cap, ...) and I/O errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(cfg)
