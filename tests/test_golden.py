"""Golden digests of canonical CLI payloads.

The reproducibility contract promises that the same invocation prints the
same bytes in every version, not only twice within one.  Each case below
is one small invocation; its stdout is hashed with SHA-256 and compared
with the digest recorded when the case was added.  Between them the cases
reach every subcommand, both adaptive and both fixed cover modes, the
membership, chain (light and full path), bipartite and uniform
estimators, and the pooled paths at --threads 1 and 2.

A change that alters one of these digests changes the output contract; it
has to say so and justify it.  `python tests/test_golden.py` prints the
digests of the current program in the table's format.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

import pytest

from greedycover.cli import main

# The chain full path needs a host whose degrees can leave the envelope,
# i.e. one much denser than the declared --p; it is read from this file.
HOST_FILE = "host.txt"
HOST = ["gen", "--n", "40", "--p", "0.9", "--seed", "1", "--out", HOST_FILE]

MEMBERSHIP = ["estimate", "--what", "membership", "--n", "80", "--p", "0.1",
              "--seed", "5", "--trials", "5000", "--threads"]
ENSEMBLE = ["run", "--n", "150", "--p", "0.1", "--seed", "1", "--trials", "40",
            "--tracked", "4", "--threads"]
COVER = ["cover", "--n", "60", "--p", "0.2", "--seed", "0", "--include-sets", "--mode"]

CASES = {
    "gen": ["gen", "--n", "40", "--p", "0.1", "--seed", "3"],
    "bounds": ["bounds", "--n", "1000", "--p", "0.05"],
    "run": ["run", "--n", "150", "--p", "0.1", "--seed", "1"],
    "run-threads1": ENSEMBLE + ["1"],
    "run-threads2": ENSEMBLE + ["2"],
    "typical": ["typical", "--n", "150", "--p", "0.1", "--seed", "2", "--budget", "4"],
    "cover-theta1": COVER + ["theta1", "--t", "40"],
    "cover-adaptive": COVER + ["adaptive"],
    "cover-pdim": COVER + ["pdim", "--t", "5"],
    "cover-pdim-adaptive": COVER + ["pdim-adaptive"],
    "membership-threads1": MEMBERSHIP + ["1"],
    "membership-threads2": MEMBERSHIP + ["2"],
    "chain-light": ["estimate", "--what", "chain", "--n", "60", "--p", "0.2",
                    "--seed", "3", "--i", "1", "--j", "3", "--u", "0", "--v", "1",
                    "--trials", "3000"],
    "chain-full": ["estimate", "--what", "chain", "--input", HOST_FILE, "--p", "0.05",
                   "--seed", "5", "--i", "1", "--j", "2", "--u", "0", "--v", "5",
                   "--trials", "1500"],
    "bipartite": ["estimate", "--what", "bipartite", "--a", "6", "--b", "9", "--k", "3",
                  "--trials", "3000", "--seed", "4"],
    "uniform": ["estimate", "--what", "uniform", "--n", "20", "--p", "0.2",
                "--seed", "4", "--k", "3"],
}

DIGESTS = {
    "bipartite": "d6f5e2c3d2b8559ad5636c48cab24a44be74f08a3a5a2a7439f230a7555bdb43",
    "bounds": "d11909c78081f1ada88ef2115aba59afa6e0e32249b28d033c3905d29ae57d7a",
    "chain-full": "11cfa50b9cd0969556cb857c2fbb3502ff5d1fa4f0d794dbb9622b08d89353c4",
    "chain-light": "79c65db63814af48f81a55869dc20cadaccbe3fe12741fb18d702c9ab3389589",
    "cover-adaptive": "0a2cb54aa6d635ec08068b628875cce43fa4a86bace56f713b413efc9dfe814d",
    "cover-pdim": "ec50bc668bd6e6550120d449591f88131851aa84dbecad406a6565b97796c15d",
    "cover-pdim-adaptive": "a183969f5def76d0bf5d5ef6f14c341f8f6d7574cb1c4667ff8d85f0e3b37478",
    "cover-theta1": "5beba7fcb87dd2ed3f8d57843aa3edfb0b61ea775772f3b674ff57b53f1e33fd",
    "gen": "e353b376e4f780a14dcc88e0c60a8809fd055ea8e098f94a70cd697da2193482",
    "membership-threads1": "54cda11a4c3d9ebfe98a33bd7ce2ea739fa163cfd0f390c17db103d2003aba9b",
    "membership-threads2": "c0768ad8c67ad8b958830450cdc7cf1323ec17c3f7d1786cffc5a986034350f4",
    "run": "1148651a160de4fa0a575ee172df3044d4b91aeb6852a9855a75dd1514278ab2",
    "run-threads1": "33d641ab25cde91162c0c886eeed926eebef66fa7061f50aa50e96696fd7ca33",
    "run-threads2": "c80b7ac55d2230d90e11a2e2c2c2c92a57d6555b6571e3a1a56f398b9cb32ade",
    "typical": "22b3d62866320a7a81b4473fb879d43a4cddbf7a610ec2e562df4ba720c8f5e9",
    "uniform": "35724a50583276bbd275f866e02f65df35592d9ddc073f8f340dbc6e9d704323",
}


def write_host(directory) -> None:
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        payload_digest(HOST)
    finally:
        os.chdir(cwd)


def payload_digest(argv: list[str]) -> str:
    """SHA-256 of the stdout of one in-process CLI call that must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def host_dir(tmp_path_factory):
    """Working directory holding HOST_FILE, so --input echoes a fixed path."""
    path = tmp_path_factory.mktemp("golden")
    write_host(path)
    return path


def test_cases_match_digest_table():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, host_dir, monkeypatch):
    monkeypatch.chdir(host_dir)
    assert payload_digest(CASES[name]) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_host(tmp)
        os.chdir(tmp)
        lines = [f'    "{name}": "{payload_digest(CASES[name])}",'
                 for name in sorted(CASES)]
    sys.stdout.write("DIGESTS = {\n" + "\n".join(lines) + "\n}\n")
