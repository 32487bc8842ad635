"""Paired perfbench runs of two source trees, written to one BENCH file.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --workloads trajectory hostcheck \\
        --pairs 10 --tier1 --out BENCH_<N>.json
    python3 tools/bench_pairs.py PARENT CHANGE --workloads trajectory \\
        --seed-base 700 --out BENCH_<N>.json

For each workload, pair k runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` in each tree (from its root), with
S = SEED_BASE + k on both sides (`--seed-base`, default 100), the parent
first in even pairs and the change first in odd ones; T is the
`run_seconds` of the parent's BENCHMARK.json.  Then each side runs once
with `--seed 11 --trace 1`.  The file records each side's first `env`
line, the commit of each tree, the line count of each file under
`src/greedycover` and one round per seed base.  The commits are the
`--revs PARENT CHANGE` given, or else `git rev-parse HEAD` of each tree,
which must then be the root of a git checkout (perfbench reads `.git`
itself, so in a copy made by `git archive` its `env.git_commit` reads
"unknown").  A round holds, per workload and side, the median,
quartiles (inclusive method), IQR and per-run values of the gated metrics
and job_s.p50, the jobs attempted and failed, the pairwise comparison
(pairs the change read lower, ties, median ratio change / parent, and
whether the gain rule holds: lower in at least nine tenths of the pairs
and lower in the median by more than the parent's IQR), and the traced
metrics and whether their counts agree.  An existing --out file of the
same two trees keeps its other rounds, so a held-out round at a seed base
not used while the change was written joins it.

`--tier1` first runs the tier-1 suite of ROADMAP.md once in each tree
(`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`) and
records its passed, failed and xfailed counts and its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("membership", "trajectory", "hostcheck", "cover", "bipartite")
SEED_BASE = 100
TRACE_SEED = 11
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line, its metric values and env line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(next(x for x in lines if x.startswith("env: "))[5:])
    values = {}
    for line in lines:  # the JSON line holds only the gated metrics
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    values.update((name, m["value"]) for name, m in result["metrics"].items())
    result["values"] = values
    print(f"{tree.name} {workload} seed={seed} trace={trace} correct={result['correct']}"
          f" failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": sorted(values)}


def compare(parent: list[float], change: list[float]) -> dict:
    lower = sum(c < p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {
        "change_lower": lower,
        "ties": ties,
        "pairs": len(parent),
        "median_ratio": c["median"] / p["median"],
        "gain_rule_met": lower >= 0.9 * len(parent) and p["median"] - c["median"] > p["iqr"],
    }


def traced_entry(traced: dict) -> dict:
    """Both sides' traced metrics, and whether their counts (the integer
    metrics: counts and bytes, which run.py checks to repeat) agree."""
    counts = [name for name, m in traced["parent"]["metrics"].items()
              if isinstance(m["value"], int)]
    return {
        **{side: {"correct": t["correct"], "attempted": t["attempted"],
                  "metrics": {name: m["value"] for name, m in t["metrics"].items()}}
           for side, t in traced.items()},
        "counts_equal": all(
            traced["parent"]["metrics"][name] == traced["change"]["metrics"].get(name)
            for name in counts
        ),
        "counts_compared": counts,
    }


def tier1(tree: Path) -> dict:
    """One tier-1 run in `tree`: its outcome counts, wall time and summary line."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (f":{path}" if path else "")}
    t0 = perf_counter()
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    last = out.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", last)}
    print(f"{tree.name} tier-1: {last}", file=sys.stderr, flush=True)
    return {**{kind: counts.get(kind, 0) for kind in ("passed", "failed", "xfailed")},
            "wall_s": round(wall, 1), "summary": last}


def src_lines(tree: Path) -> dict:
    files = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((tree / "src" / "greedycover").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def revision(tree: Path) -> str | None:
    """HEAD of the git checkout rooted at `tree`, or None if it is not one."""
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != tree.resolve():
        return None
    return lines[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent commit's tree")
    ap.add_argument("change", type=Path, help="root of the change's tree")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=SEED_BASE,
                    help="pair k runs at seed SEED_BASE + k")
    ap.add_argument("--revs", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="the commits of the two trees (default: git rev-parse HEAD"
                         " of each)")
    ap.add_argument("--tier1", action="store_true", help="also run tier-1 once per tree")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["run_seconds"]
    metrics = ("setup_s", "peak_rss_mb", "job_s.p50")
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    revs = dict(zip(SIDES, args.revs or map(revision, trees.values())))
    for side, rev in revs.items():
        if rev is None:
            ap.error(f"{trees[side]} is not a git checkout; name the commits with --revs")

    doc = {
        "what": "Paired perfbench runs of a change against its parent commit",
        "method": {
            "timed": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
                     " --trace 0, run from each tree's root; pair k of a workload in the"
                     " round of seed base B uses seed S = B + k on both sides, the parent"
                     " runs first in even pairs and the change first in odd ones",
            "traced": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED}"
                      f" --seconds {seconds} --trace 1, once per side and round",
            "stats": "median, quartiles (inclusive method) and IQR over the runs of each"
                     " side; change_lower counts pairs where the change read lower;"
                     " median_ratio = change / parent; gain_rule_met: lower in at least"
                     " 9/10 of the pairs and lower in the median by more than the"
                     " parent's IQR",
            "tier1": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors,"
                     " once per tree, run from its root",
        },
        "revs": revs,
        "env": {},
        "src_lines": lines,
    }
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc.get("src_lines") != lines or doc.get("revs", revs) != revs:
            ap.error(f"{args.out} holds runs of other trees")
        doc["revs"] = revs
    if args.tier1:
        doc["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    workloads = {}
    doc.setdefault("rounds", {})[f"seed_base_{args.seed_base}"] = {
        "seed_base": args.seed_base, "pairs": args.pairs, "workloads": workloads
    }
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            seed = args.seed_base + k
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                runs[side].append(perfbench(trees[side], workload, seed, seconds, 0))
        entry = {}
        for side in SIDES:
            doc["env"].setdefault(side, runs[side][0]["env"])
            entry[side] = {m: summary([r["values"][m] for r in runs[side]]) for m in metrics}
            entry[side]["attempted"] = sum(r["attempted"] for r in runs[side])
            entry[side]["failed"] = sum(r["failed"] for r in runs[side])
            entry[side]["correct"] = all(r["correct"] for r in runs[side])
        entry["pairs"] = {
            m: compare(*([r["values"][m] for r in runs[side]] for side in SIDES))
            for m in metrics
        }
        entry["trace_seed11"] = traced_entry(
            {side: perfbench(trees[side], workload, TRACE_SEED, seconds, 1) for side in SIDES}
        )
        workloads[workload] = entry
        args.out.write_text(json.dumps(doc, indent=2) + "\n")  # after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
