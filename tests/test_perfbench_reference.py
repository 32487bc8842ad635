"""Each benchmark workload's reference job still gives its recorded bytes.

`perfbench/run.py` checks job 0 of the default seed against the SHA-256
digests in `perfbench/reference.json` at the start of every run, so a change
to a workload's payload would first show when the benchmark runs.  These
tests load run.py by path (it is not a package) and run that job once per
workload, so such a change fails here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("workload", list(run.workloads()))
def test_reference_job_is_correct(workload):
    job = run.prepare(workload).job(run.job_seed(run.DEFAULT_SEED, 0))
    assert job.error is None
    assert job.units > 0
