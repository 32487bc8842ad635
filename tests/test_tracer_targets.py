"""The benchmark tracer's patch targets still name live attributes.

`perfbench/spans.py` patches functions at the name their caller resolves
them by, so renaming a function or dropping an import in the package would
silently break `perfbench/run.py --trace 1`.  This test loads spans.py by
path (it is not a package) and checks every name it patches.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

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
