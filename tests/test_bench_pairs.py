"""tools/bench_pairs.py: the commit it records for each tree."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_revision_names_only_a_checkout_root(tmp_path):
    def git(*argv):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
             *argv], capture_output=True, text=True, check=True,
        ).stdout.strip()

    assert bench_pairs.revision(tmp_path) is None  # no repository yet
    git("init", "-q")
    assert bench_pairs.revision(tmp_path) is None  # no commit yet
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "f").write_text("x\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    assert bench_pairs.revision(tmp_path) == git("rev-parse", "HEAD")
    assert bench_pairs.revision(tmp_path / "sub") is None  # inside, not the root
