"""The greedycover benchmark: five CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload membership --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --write-reference

Each job is one in-process `greedycover.cli.main(argv)` call (two for
`cover`) with stdout captured, the path a user takes.  The client is the
benchmark process itself: one closed loop that starts the next job when the
last one returns.  Job j of a run uses CLI seed `seed * CYCLE + j % CYCLE`,
so a run repeats each of its CYCLE jobs and the same seed gives the same
inputs.  Every job's stdout is checked: the payload identities of its
workload, equal bytes whenever a job repeats, and at the default seed the
SHA-256 digests stored in reference.json.  Every run also starts with the
reference job 0 of the default seed as its warm-up, so the stored digests
are checked on every run.

`--trace 0` times untraced jobs for `--seconds` and reports the end-to-end
metrics: set-up time, job wall time, throughput, CPU time per job and per
unit of work (pool workers included), peak RSS and the failed share.
`--trace 1` runs each job untraced at its own thread count, untraced at
`--threads 1` and traced at `--threads 1` (spans.py), and reports the
per-layer metrics; it fails unless the three outputs agree.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
CYCLE = 4  # distinct jobs per run; reference.json holds CYCLE digests each
SETUP_PROBES = 9

# End-to-end metrics that BENCHMARK.json bounds.  On a shared 2-core VM
# (Xeon, 2.1 GHz) neighbours slowed pure-Python work by 1.2-1.7x in bursts
# of 0.1 s to minutes.  Over ten 20 s runs per workload, the interquartile
# range of the median job time reached ~20% of its median, that of the
# fastest job's wall time 4-31%, and that of the least CPU time per unit of
# work 4-27%, more than the largest bound a metric may have (25%).  Time
# metrics other than set-up are therefore printed, not bounded.
GATED = ("setup_s", "peak_rss_mb")

MEMBERSHIP = ["estimate", "--what", "membership", "--n", "500", "--p", "0.05",
              "--trials", "16384", "--threads", "2"]
TRAJECTORY = ["run", "--n", "2000", "--p", "0.05", "--trials", "256",
              "--tracked", "32", "--threads", "2"]
HOSTCHECK = ["typical", "--n", "2000", "--p", "0.05", "--budget", "20"]
COVER = ["cover", "--n", "300", "--p", "0.1", "--mode"]
BIPARTITE = ["estimate", "--what", "bipartite", "--a", "10", "--b", "20",
             "--k", "3", "--trials", "100000"]


class CheckError(ValueError):
    """A job's output breaks an identity its payload must satisfy."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def check_membership(docs: list[dict]) -> int:
    m = docs[0]["membership"]
    counts = m["per_vertex_count"]
    require(m["trials"] == 16384 and len(counts) == 500, "trials or n echoed wrongly")
    require(sum(counts) == m["sum_sizes"], "vertex counts do not sum to set sizes")
    for pair in m["pair_freq"]:
        require(pair["count"] <= min(counts[pair["u"]], counts[pair["v"]]),
                f"pair ({pair['u']}, {pair['v']}) counted more than an endpoint")
    return m["trials"]


def check_trajectory(docs: list[dict]) -> int:
    e = docs[0]["ensemble"]
    require(e["trials"] == 256 and len(e["set_sizes"]) == 256, "trial count")
    require(e["set_sizes"] == e["completed_steps"], "set size differs from steps")
    require(e["tracked"] == list(range(32)) and e["dx_count"] > 0, "tracked increments")
    return e["trials"]


def check_hostcheck(docs: list[dict]) -> int:
    t = docs[0]["typicality"]
    require(docs[0]["host"]["n"] == 2000, "host size")
    require(t["p3"]["mode"] == "exhaustive" and t["p3"]["pairs_tested"] == 2000 * 1999 // 2,
            "codegree scan did not test every pair")
    violated = any(t[p]["violations"] for p in ("p1", "p2", "p3"))
    require(t["typical"] == (not violated), "verdict disagrees with the violations")
    return 1


def check_bipartite(docs: list[dict]) -> int:
    b = docs[0]["bipartite"]
    require(b["ratio_exact"] == "7/2" and b["greedy_exact"] == "1/45", "exact ratio")
    require(abs(b["greedy_estimate"] - b["greedy_exact_float"]) <= 6 * b["estimate_sigma"],
            "estimate more than 6 sigma from the exact probability")
    return b["trials"]


def check_cover(docs: list[dict], s_pdim: int) -> int:
    for doc in docs:
        v = doc["verification"]
        require((v["covered_fraction"] == 1.0) == (v["uncovered"] == []),
                "covered fraction disagrees with the uncovered list")
    flat, part = docs
    require(flat["verification"]["total_sets"] == flat["adaptive_count"], "flat set count")
    require(part["verification"]["total_sets"] <= part["adaptive_count"] * s_pdim,
            "more cells than sets drawn")
    return flat["adaptive_count"] + part["adaptive_count"] * s_pdim


@dataclass
class Workload:
    name: str
    calls: list[list[str]]  # one job = these CLI calls, each given --seed
    unit: str  # what `throughput` counts
    check: Callable[[list[dict]], int]  # parsed stdouts -> units of work in the job
    predicted: str  # layer predicted to take the most self time when traced
    counted: str | None = None  # per-layer count that must equal the units

    @property
    def pooled(self) -> bool:
        return "--threads" in self.calls[0]


def workloads() -> dict[str, Workload]:
    """Workload table; importing greedycover here is part of set-up."""
    from greedycover.params import ParamSet, bound_formulas

    s_pdim = bound_formulas(ParamSet(n=300, p=0.1))["s_pdim"]
    table = [
        Workload("membership", [MEMBERSHIP], "trials", check_membership, "process",
                 "montecarlo.trials"),
        Workload("trajectory", [TRAJECTORY], "trials", check_trajectory, "process"),
        Workload("hostcheck", [HOSTCHECK], "hosts", check_hostcheck, "typicality"),
        Workload("cover", [COVER + ["adaptive"], COVER + ["pdim-adaptive"]], "sets",
                 lambda docs: check_cover(docs, s_pdim), "process", "cover.sets"),
        Workload("bipartite", [BIPARTITE], "trials", check_bipartite, "rng",
                 "montecarlo.trials"),
    ]
    return {w.name: w for w in table}


def single_threaded(argv: list[str]) -> list[str]:
    i = argv.index("--threads")
    return argv[: i + 1] + ["1"] + argv[i + 2 :]


def same_but_threads(one: str, two: str) -> bool:
    """True when the --threads 1 payload equals the --threads 2 payload
    byte for byte once the config echo of the thread count is aligned."""
    echo = '"threads": 1,'
    return one.count(echo) == 1 and one.replace(echo, '"threads": 2,') == two


@dataclass
class Job:
    label: str
    seed: int
    wall: float = 0.0
    cpu: float = 0.0
    stdout: str = ""
    units: int = 0
    error: str | None = None
    spans: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call_cli(main, argv: list[str]) -> tuple[str, str | None]:
    """One CLI call; returns (stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception:  # a failed job is counted, and the run goes on
        return out.getvalue(), traceback.format_exc()
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


class Runner:
    """Runs and checks the jobs of one workload."""

    def __init__(self, workload: Workload, reference: list[str] | None, cli_main):
        self.cli_main = cli_main
        self.w = workload
        self.reference = reference  # digests of jobs 0..CYCLE-1 at the default seed
        self.seen: dict[int, str] = {}  # job seed -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, seed: int, threads_one: bool = False, tracer=None) -> Job:
        calls = self.w.calls
        if threads_one:
            calls = [single_threaded(argv) for argv in calls]
        job = Job(label=f"{self.w.name} seed={seed}" + (" threads=1" if threads_one else ""),
                  seed=seed)
        main = self.cli_main
        if tracer is not None:
            tracer.install()
            main = tracer.wrap("cli.main", main)
        outputs = []
        c0 = cpu_seconds()
        t0 = perf_counter()
        try:
            for argv in calls:
                out, job.error = call_cli(main, argv + ["--seed", str(seed)])
                outputs.append(out)
                if job.error:
                    break
        finally:
            job.wall = perf_counter() - t0
            job.cpu = cpu_seconds() - c0
            if tracer is not None:
                tracer.uninstall()
        job.stdout = "".join(outputs)
        if job.error is None:
            try:
                job.units = self.w.check([json.loads(out) for out in outputs])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                job.error = f"payload check failed: {exc!r}"
        if job.error is None and not threads_one:
            job.error = self.check_digest(seed, job.stdout)
        self.record(job)
        return job

    def check_digest(self, seed: int, stdout: str) -> str | None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.seen.setdefault(seed, digest)
        if first != digest:
            return "stdout differs from this job's earlier output in the run"
        j = seed - DEFAULT_SEED * CYCLE
        if self.reference is not None and 0 <= j < CYCLE:
            if self.reference[j] != digest:
                return f"stdout digest {digest[:16]} != reference {self.reference[j][:16]}"
        return None

    def record(self, job: Job) -> None:
        self.attempted += 1
        if job.error:
            self.failed += 1
            self.report(job, job.error)

    def fail(self, job: Job, reason: str) -> None:
        """A cross-check of `job` failed; the job counts as failed once."""
        if job.error is None:
            job.error = reason
            self.failed += 1
        self.report(job, reason)

    def report(self, job: Job, reason: str) -> None:
        self.failures.append(f"{job.label}: {reason}")
        print(f"FAILED {job.label}: {reason}", file=sys.stderr)


def job_seed(seed: int, j: int) -> int:
    return seed * CYCLE + j % CYCLE


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: list[float]) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for q in (99.9, 99, 90):
        if len(samples) * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{q:g}={cuts[round(q * 10) - 1]:.4f} s"
    return "no percentile above p50 has ten samples beyond it"


# -- set-up -----------------------------------------------------------------


def prepare(workload: str) -> Runner:
    """Set-up: import the CLI, build the workload and load its digests."""
    from greedycover.cli import main as cli_main

    digests = json.loads(REFERENCE.read_text())["digests"][workload]
    return Runner(workloads()[workload], digests, cli_main)


def measure_setup(workload: str) -> list[float]:
    """Interpreter start until the workload is ready, in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe", "--workload", workload],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


# -- environment ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_start: float) -> dict:
    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


# -- the two kinds of run ---------------------------------------------------


def timed_run(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Untraced closed loop for `seconds`; end-to-end metrics."""
    jobs: list[Job] = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        jobs.append(runner.job(job_seed(seed, len(jobs))))
    elapsed = perf_counter() - t0
    walls = [j.wall for j in jobs]
    units = sum(j.units for j in jobs)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    done = [j for j in jobs if j.units] or jobs  # failed jobs report no work
    metrics = {
        "throughput.best": (max(j.units / j.wall for j in done), "1/s"),
        "cpu_us_per_unit.min": (min(j.cpu / max(j.units, 1) for j in done) * 1e6, "us"),
        "peak_rss_mb": (max(own, kids) / 1024, "MB"),
        "job_s.p50": (median(walls), "s"),
        "throughput": (units / elapsed, "1/s"),
        "cpu_s": (median([j.cpu for j in jobs]), "s"),
    }
    notes = [
        f"job_s.p50: {len(walls)} timed jobs; {tail_percentile(walls)}",
        f"throughput: {units} {runner.w.unit} in {elapsed:.3f} s"
        f" = {units / elapsed:.2f} {runner.w.unit}/s; best job"
        f" {metrics['throughput.best'][0]:.2f} {runner.w.unit}/s",
        "cpu_s: user + sys per job, pool workers included; cpu_us_per_unit.min:"
        f" least over jobs, per {runner.w.unit[:-1]}",
        "peak_rss_mb: largest of this process and its children",
    ]
    return metrics, notes


LAYER_UNITS = {
    "_per_s": "1/s", "_us": "us", "_ms": "ms", "_s": "s", "_bytes": "B",
    "share": "ratio", "_frac": "ratio", "speedup": "ratio", "overhead": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_run(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced jobs at --threads 1.

    Job 0 runs twice, so every count is checked to repeat exactly; then
    jobs 1, 2, ... follow until `seconds` have passed.
    """
    import spans

    w = runner.w
    traced: list[Job] = []
    speedups, overheads = [], []
    t0 = perf_counter()
    while len(traced) < 2 or perf_counter() - t0 < seconds:
        j = max(len(traced) - 1, 0)
        s = job_seed(seed, j)
        native = runner.job(s)
        single = runner.job(s, threads_one=True) if w.pooled else native
        tracer = spans.Tracer()
        job = runner.job(s, threads_one=w.pooled, tracer=tracer)
        job.spans = tracer.stats
        job.layers = spans.layer_metrics(tracer.stats, tracer.counters, len(job.stdout.encode()))
        traced.append(job)
        if w.pooled:
            if not same_but_threads(single.stdout, native.stdout):
                runner.fail(single, "--threads 1 stdout differs from --threads 2")
            speedups.append(single.wall / native.wall)
        if job.stdout != single.stdout:
            runner.fail(job, "traced stdout differs from untraced stdout")
        overheads.append(job.wall / single.wall)
        count = w.counted
        if count and not job.error and job.layers[count] != job.units:
            runner.fail(job, f"{count}={job.layers[count]} but the output has {job.units}")

    first, again = traced[0].layers, traced[1].layers
    for name, value in first.items():
        if isinstance(value, int) and again[name] != value:
            runner.fail(traced[1], f"count {name} did not repeat: {value} then {again[name]}")

    metrics = {}
    for name, value in first.items():
        if not isinstance(value, int):
            value = median([t.layers[name] for t in traced])
        metrics[name] = (value, layer_unit(name))
    pool = "process" if first["process.pool_chunks"] else "montecarlo"
    for layer in ("process", "montecarlo"):
        speedup = median(speedups) if w.pooled and layer == pool else 0.0
        metrics[f"{layer}.pool_speedup"] = (speedup, "ratio")
    metrics["trace.overhead"] = (median(overheads), "ratio")

    shares = spans.layer_shares(traced[0].spans)
    top_layer = next(iter(shares))
    notes = [
        f"traced jobs: {len(traced)} at --threads 1 (counts from job seed {traced[0].seed},"
        " repeated exactly; times are medians over traced jobs)",
        f"predicted dominant layer: {w.predicted}; measured: {top_layer}"
        + ("" if top_layer == w.predicted else "  (prediction not met)"),
        "self-time shares by layer: "
        + ", ".join(f"{layer} {share:.3f}" for layer, share in shares.items()),
        "top spans by self time: "
        + ", ".join(f"{name} {share:.3f}" for name, share in spans.span_shares(traced[0].spans)),
        "spans (calls, total s, self s): "
        + json.dumps({k: [v[0], round(v[1], 6), round(v[2], 6)]
                      for k, v in traced[0].spans.items() if v[0]}, sort_keys=True),
    ]
    return metrics, notes


def write_reference() -> None:
    """Store the stdout digests of jobs 0..CYCLE-1 at the default seed."""
    from greedycover.cli import main as cli_main

    digests = {}
    for name, w in workloads().items():
        runner = Runner(w, None, cli_main)
        jobs = [runner.job(job_seed(DEFAULT_SEED, j)) for j in range(CYCLE)]
        if runner.failures:
            raise SystemExit(f"{name}: not writing a reference from failing jobs")
        digests[name] = [hashlib.sha256(j.stdout.encode()).hexdigest() for j in jobs]
        print(name, [d[:12] for d in digests[name]])
    doc = {"default_seed": DEFAULT_SEED, "jobs_per_seed": CYCLE, "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["membership", "trajectory", "hostcheck",
                                           "cover", "bipartite"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json from the current program")
    args = ap.parse_args()
    if not (SRC / "greedycover" / "__init__.py").is_file():
        print(f"error: no greedycover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe:  # set-up as a user pays it, timed by measure_setup
        prepare(args.workload)
        print("ready", flush=True)
        return 0
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE.name} is missing; run --write-reference", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    setup = [] if args.trace else measure_setup(args.workload)
    runner = prepare(args.workload)
    w = runner.w
    runner.job(job_seed(DEFAULT_SEED, 0))  # warm-up, checked against reference.json
    if args.trace:
        metrics, notes = traced_run(runner, args.seed, args.seconds)
    else:
        metrics, notes = timed_run(runner, args.seed, args.seconds)
        metrics = {"setup_s": (median(setup), "s"), **metrics}
        notes.insert(0, f"setup_s: median of {len(setup)} fresh interpreters: "
                     + ", ".join(f"{t:.4f}" for t in setup))

    failed = runner.failed
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {failed / runner.attempted:14.6g} ratio"
          f" ({failed} of {runner.attempted} jobs)")
    for note in notes:
        print(f"  {note}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print("env: " + json.dumps(environment(load_start), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if args.trace or name in GATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
