"""The benchmark tracer's patch targets still name live attributes.

`perfbench/spans.py` patches functions at the name their caller resolves
them by, so renaming a function or dropping an import in the package would
silently break `perfbench/run.py --trace 1`.  These tests load spans.py by
path (it is not a package), check every name it patches, and run tiny CLI
jobs under the installed tracer, whose observers also read attributes of
the package's state and report objects.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
from pathlib import Path

import io

import pytest

from greedycover.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "mod_name,attr", [(m, a) for m, a, _ in spans.TARGETS], ids=lambda x: x
)
def test_function_target_resolves(mod_name, attr):
    assert hasattr(importlib.import_module(mod_name), attr)


@pytest.mark.parametrize(
    "mod_name,cls_name,attr", [(m, c, a) for m, c, a, _ in spans.METHOD_TARGETS]
)
def test_method_target_in_class_dict(mod_name, cls_name, attr):
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert attr in cls.__dict__


def test_coverage_tracker_add():
    cover = importlib.import_module("greedycover.cover")
    assert "add" in cover._CoverageTracker.__dict__


# Tiny jobs that between them reach every span, all at --threads 1 so the
# pooled functions run in this process.
TRACED_JOBS = [
    ["run", "--n", "60", "--p", "0.2", "--trials", "3", "--tracked", "2",
     "--threads", "1"],
    ["typical", "--n", "60", "--p", "0.2", "--budget", "2"],
    ["cover", "--n", "40", "--p", "0.2", "--mode", "adaptive"],
    ["cover", "--n", "40", "--p", "0.2", "--mode", "pdim-adaptive"],
    ["estimate", "--what", "membership", "--n", "40", "--p", "0.2",
     "--trials", "50", "--threads", "1"],
    ["estimate", "--what", "bipartite", "--a", "4", "--b", "5", "--k", "2",
     "--trials", "50"],
]


def test_tracer_runs_every_span():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in TRACED_JOBS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    names = {span for _, _, span in spans.TARGETS}
    names |= {span for _, _, _, span in spans.METHOD_TARGETS}
    assert sorted(n for n in names if tracer.stats[n][0] == 0) == []
    for counter in (
        "process.removed",
        "process.degree_bytes",
        "process.pool_bytes",
        "typicality.p1_subsets",
        "typicality.p3_pairs",
        "cover.sets",
        "montecarlo.trials",
        "montecarlo.pool_bytes",
    ):
        assert tracer.counters[counter] > 0, counter
