"""Streams: key layout, the Philox kernel and the draw algorithms.

numpy's own Philox Generator, keyed as the package keys its streams
(`numpy_oracle.numpy_stream`), is the independent oracle: every row of
`uniform_rows` must equal its `random(k)` bit for bit, for any seed in
[0, 2**64), any domain, any index below 2**48 and any k, and the sequential
`rng.stream` reader must return what it returns for every draw the package
makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from greedycover import rng
from greedycover.cli import main
from greedycover.graph import gnp_sample, to_edge_list
from numpy_oracle import numpy_stream

SRC = Path(__file__).resolve().parent.parent / "src"

EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]


def oracle(seed: int, domain: int, start: int, stop: int, k: int) -> np.ndarray:
    rows = [numpy_stream(seed, domain, t).random(k) for t in range(start, stop)]
    return np.array(rows, dtype=np.float64).reshape(stop - start, k)


class TestUniformRows:
    def test_random_keys_match_numpy_philox(self):
        gen = np.random.default_rng(20251208)
        drawn = gen.integers(0, 2**64, 40, dtype=np.uint64)
        seeds = EDGE_SEEDS + [int(s) for s in drawn]
        for case, seed in enumerate(seeds):
            domain = int(gen.integers(0, 1 << 16)) if case % 3 else case % 12
            k = int(gen.integers(1, 41))
            if case % 2:
                start = int(gen.integers(0, 2**48 - 8))
            else:
                start = int(gen.integers(0, 5000))
            stop = start + int(gen.integers(1, 7))
            got = rng.uniform_rows(seed, domain, start, stop, k)
            assert got.shape == (stop - start, k) and got.dtype == np.float64
            np.testing.assert_array_equal(got, oracle(seed, domain, start, stop, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9, 31, 40])
    def test_every_k_at_the_top_of_the_index_range(self, k):
        top = 2**48
        np.testing.assert_array_equal(
            rng.uniform_rows(2**63 + 1, rng.CHAIN, top - 3, top, k),
            oracle(2**63 + 1, rng.CHAIN, top - 3, top, k),
        )

    def test_zero_width_and_empty_ranges(self):
        assert rng.uniform_rows(5, rng.RUN, 10, 10, 3).shape == (0, 3)
        assert rng.uniform_rows(5, rng.RUN, 10, 12, 0).shape == (2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rng.uniform_rows(0, rng.RUN, -1, 2, 3)
        with pytest.raises(ValueError):
            rng.uniform_rows(0, rng.RUN, 2**48 - 1, 2**48 + 1, 3)
        with pytest.raises(ValueError):
            rng.uniform_rows(0, 1 << 16, 0, 2, 3)
        with pytest.raises(ValueError):
            rng.uniform_rows(0, rng.RUN, 5, 4, 3)
        with pytest.raises(ValueError, match="k must be >= 0"):
            rng.uniform_rows(0, rng.RUN, 0, 2, -1)


class TestTrialRows:
    # at k = 6 a trial takes two Philox counters, so a block holds this many
    STEP = rng.BLOCK_COUNTERS // 2

    @pytest.mark.parametrize(
        "start,stop",
        [(0, 1), (STEP - 3, STEP + 4), (2 * STEP - 1, 8 * STEP + 1)],
    )
    def test_rows_across_block_boundaries(self, start, stop):
        k = 6
        rows = list(rng.trial_rows(2**63, rng.MEMBERSHIP, start, stop, k))
        assert len(rows) == stop - start
        picks = sorted({0, len(rows) - 1, *range(0, len(rows), 257)})
        for i in picks:
            t = start + i
            np.testing.assert_array_equal(
                rows[i], numpy_stream(2**63, rng.MEMBERSHIP, t).random(k)
            )
        np.testing.assert_array_equal(
            np.array(rows), rng.uniform_rows(2**63, rng.MEMBERSHIP, start, stop, k)
        )

    def test_rows_are_evaluated_only_when_reached(self):
        # adaptive builders pass a cap far beyond the rows they consume
        rows = rng.trial_rows(9, rng.COVER_FLAT, 0, 2**48, 4)
        first = [next(rows) for _ in range(rng.BLOCK_COUNTERS + 2)]
        np.testing.assert_array_equal(
            first[-1], numpy_stream(9, rng.COVER_FLAT, rng.BLOCK_COUNTERS + 1).random(4)
        )


class TestChunkedDraws:
    def test_one_call_equals_scalar_and_split_calls(self):
        # run_with_generator reads its k uniforms with one random(k) call;
        # k up to 60 crosses many 4-word Philox blocks, and the reader's
        # scalar and split calls must give the same uniforms
        gen = np.random.default_rng(20261018)
        for k in range(1, 61):
            seed = int(gen.integers(0, 2**64, dtype=np.uint64))
            domain = int(gen.integers(0, 1 << 16))
            index = int(gen.integers(0, 2**48))
            whole = numpy_stream(seed, domain, index).random(k)
            np.testing.assert_array_equal(rng.stream(seed, domain, index).random(k), whole)
            one = rng.stream(seed, domain, index)
            np.testing.assert_array_equal(whole, [one.random() for _ in range(k)])
            cut = int(gen.integers(0, k + 1))
            two = rng.stream(seed, domain, index)
            np.testing.assert_array_equal(
                whole, np.concatenate([two.random(cut), two.random(k - cut)])
            )
            if k == 8:
                three = rng.stream(seed, domain, index)
                np.testing.assert_array_equal(
                    whole, np.concatenate([three.random(3), three.random(5)])
                )


class TestStreamKeys:
    def test_seeds_above_2_63_do_not_alias(self):
        a = rng.stream(2**63, rng.BIPARTITE, 0).random(4)
        b = rng.stream(2**63 + 1, rng.BIPARTITE, 0).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1])
    def test_wrapping_seeds_build_without_warnings(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = rng.stream(seed, rng.RUN, 3).random(4)
        wrapped = rng.stream(2**64 - 1, rng.RUN, 3).random(4)
        np.testing.assert_array_equal(draws, wrapped)

    def test_seeds_below_2_63_keep_their_streams(self):
        # the key words as numpy read them from a plain list of ints
        for seed in (0, 7, 2**40 + 3, 2**63 - 1):
            key = [seed, (rng.MEMBERSHIP << 48) | 11]
            legacy = np.random.Generator(np.random.Philox(key=key)).random(5)
            np.testing.assert_array_equal(
                rng.stream(seed, rng.MEMBERSHIP, 11).random(5), legacy
            )


def reader_pair(seed: int = 2**63 + 5, domain: int = rng.SUBSET, index: int = 17):
    return rng.stream(seed, domain, index), numpy_stream(seed, domain, index)


class TestStreamReader:
    """Each draw of the package's reader against numpy's Generator."""

    def test_split_random_calls(self):
        gen = np.random.default_rng(20261101)
        for case in range(40):
            ours, ref = reader_pair(index=case)
            for size in gen.integers(0, 23, 6).tolist():
                np.testing.assert_array_equal(ours.random(size), ref.random(size))
                assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        "span",
        [1, 2, 3, 7, 1000, 2**31, 3 * 2**30, 3 * 2**30 + 1, 3 * 2**30 + 12345,
         2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3],
    )
    def test_scalar_and_vector_integers(self, span):
        # span 1 draws nothing; bounds from 3 * 2**30 up to 2**32 - 2 reject
        # up to a quarter of the 32-bit draws; 2**32 takes raw 32-bit draws
        # and wider spans take 64-bit words
        ours, ref = reader_pair(index=span % 4099)
        for lo in (0, 5):
            hi = lo + span
            for size in (None, 1, 4, 9, 301):
                if size is None:
                    assert ours.integers(lo, hi) == int(ref.integers(lo, hi))
                else:
                    np.testing.assert_array_equal(
                        ours.integers(lo, hi, size), ref.integers(lo, hi, size=size)
                    )
                assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        "size", [rng._DRAW_BLOCK - 1, rng._DRAW_BLOCK, rng._DRAW_BLOCK + 1,
                 2 * rng._DRAW_BLOCK + 3]
    )
    @pytest.mark.parametrize("head", [0, 3])
    @pytest.mark.parametrize("span", [20001, 3 * 2**30 + 1])
    def test_vector_integers_across_draw_blocks(self, span, head, size):
        # head 3 leaves a high half pending before the draw; the scalar draws
        # after it read the half the draw left pending, if any; span
        # 3 * 2**30 + 1 rejects about a quarter of the draws of each round
        ours, ref = reader_pair(index=size + head)
        np.testing.assert_array_equal(ours.integers(0, 100, head), ref.integers(0, 100, head))
        np.testing.assert_array_equal(
            ours.integers(7, 7 + span, size), ref.integers(7, 7 + span, size=size)
        )
        for _ in range(3):
            assert ours.integers(0, 10) == int(ref.integers(0, 10))
        assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        "size", [0, 1, 5, 4 * rng._STREAM_BLOCK - 1, 4 * rng._STREAM_BLOCK,
                 4 * rng._STREAM_BLOCK + 1, 8 * rng._STREAM_BLOCK + 3]
    )
    @pytest.mark.parametrize(
        "p", [0.0, 2.0**-53, 0.05, float(np.nextafter(0.05, 1)), 0.5, 1 - 2.0**-53, 1.0]
    )
    def test_below_is_random_below_p(self, p, size):
        # a scalar draw first leaves the bulk read off a kernel block's start
        ours, ref = reader_pair(domain=rng.GRAPH, index=size)
        twin = rng.stream(2**63 + 5, rng.GRAPH, size)
        assert ours.random() == ref.random() == twin.random()
        got = ours.below(p, size)
        assert got.dtype == np.bool_ and got.shape == (size,)
        np.testing.assert_array_equal(got, ref.random(size) < p)
        np.testing.assert_array_equal(got, twin.random(size) < p)
        # the stream stands where `random(size)` leaves it
        assert ours.random() == ref.random()
        np.testing.assert_array_equal(ours.random(7), ref.random(7))

    def test_below_at_a_drawn_uniform(self):
        # p equal to a draw, and one ulp either side, decide that draw exactly
        u = numpy_stream(4, rng.GRAPH).random(100)
        for p in (u[37], np.nextafter(u[37], 0), np.nextafter(u[37], 1)):
            got = rng.stream(4, rng.GRAPH).below(float(p), 100)
            np.testing.assert_array_equal(got, u < p)
            assert got[37] == (p > u[37])

    def test_vector_integers_hold_little_beside_the_result(self):
        # check_p3's sampled mode at n = 20001 draws 2M pair ends at once
        ours = rng.stream(3, rng.P3_SAMPLE)
        tracemalloc.start()
        try:
            out = ours.integers(0, 20001, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    def test_half_carries_from_odd_vector_call_into_scalar(self):
        ours, ref = reader_pair()
        for lo, hi, size in [(0, 100, 3), (0, 100, None), (0, 10, 5), (0, 10, None),
                             (0, 2**32, 3), (0, 7, None), (0, 1, 4), (2, 9, 1)]:
            if size is None:
                assert ours.integers(lo, hi) == int(ref.integers(lo, hi))
            else:
                np.testing.assert_array_equal(
                    ours.integers(lo, hi, size), ref.integers(lo, hi, size=size)
                )
            # a 64-bit draw between keeps the unused high half
            np.testing.assert_array_equal(ours.random(2), ref.random(2))

    def test_full_range_uint64(self):
        ours, ref = reader_pair(domain=rng.UNIFORM_SET)
        for hi in [2**64 - 1] * 10 + [2**64] * 10:
            assert ours.integers(0, hi) == int(ref.integers(0, hi, dtype=np.uint64))
        # int_stream seeds stdlib Random from the first four draws below 2**64 - 1
        words = numpy_stream(9, rng.UNIFORM_SET, 4).integers(0, 2**64 - 1, 4, dtype=np.uint64)
        want = random.Random(int.from_bytes(words.tobytes(), "little"))
        got = rng.int_stream(9, rng.UNIFORM_SET, 4)
        assert [got.random() for _ in range(5)] == [want.random() for _ in range(5)]

    @pytest.mark.parametrize(
        "n,size",
        [(1, 1), (5, 0), (5, 5), (40, 4), (10000, 9999), (10001, 200), (10001, 201),
         (20000, 5000), (20000, 20000)],
    )
    def test_choice_both_regimes(self, n, size):
        # Floyd's algorithm, except when size exceeds n // 50 with n > 10000:
        # (10001, 200) is the last Floyd case, (10001, 201) a tail shuffle
        ours, ref = reader_pair(index=n + size)
        for _ in range(3):
            assert ours.choice(n, size=size) == ref.choice(
                n, size=size, replace=False
            ).tolist()
            assert ours.integers(0, 3) == int(ref.integers(0, 3))

    def test_random_call_sequences(self):
        gen = np.random.default_rng(20261102)
        spans = [1, 2, 3, 100, 2**31 + 7, 3 * 2**30 + 99, 2**32 - 2, 2**32, 2**32 + 5, 2**41]
        for case in range(150):
            seed = int(gen.integers(0, 2**64, dtype=np.uint64))
            ours, ref = reader_pair(seed, int(gen.integers(0, 12)), int(gen.integers(0, 2**48)))
            for _ in range(8):
                kind = int(gen.integers(0, 4))
                if kind == 0:
                    k = int(gen.integers(0, 9))
                    np.testing.assert_array_equal(ours.random(k), ref.random(k))
                elif kind == 1:
                    hi = spans[int(gen.integers(0, len(spans)))]
                    assert ours.integers(0, hi) == int(ref.integers(0, hi))
                elif kind == 2:
                    hi = spans[int(gen.integers(0, len(spans)))]
                    size = int(gen.integers(0, 40))
                    np.testing.assert_array_equal(
                        ours.integers(0, hi, size), ref.integers(0, hi, size=size)
                    )
                else:
                    n = [1, 5, 30, 2000, 10001, 20000][int(gen.integers(0, 6))]
                    size = int(gen.integers(0, min(n, 500) + 1))
                    assert ours.choice(n, size) == ref.choice(n, size=size, replace=False).tolist()

    def test_validation(self):
        gen = rng.stream(1, rng.SUBSET)
        with pytest.raises(ValueError):
            gen.integers(3, 3)
        with pytest.raises(ValueError):
            gen.choice(4, 5)


COVER = ["cover", "--n", "60", "--p", "0.2", "--mode"]
RUN = ["run", "--n", "60", "--p", "0.2", "--trials", "40", "--tracked", "3", "--threads"]
HOSTED = ["--n", "60", "--p", "0.2", "--trials", "300"]
UNIFORM = ["estimate", "--what", "uniform", "--n", "20", "--p", "0.2", "--k", "3"]
BIPARTITE = ["estimate", "--what", "bipartite", "--a", "10", "--b", "20", "--k", "3",
             "--trials", "2000"]


@pytest.mark.parametrize(
    "argv",
    [
        BIPARTITE,
        # the chain full path on a host too dense for --p, as in test_golden
        ["estimate", "--what", "chain", "--input", "HOST", "--p", "0.05", "--seed",
         "5", "--i", "1", "--j", "2", "--u", "0", "--v", "5", "--trials", "300"],
        ["gen", "--n", "40", "--p", "0.1"],
        ["bounds", "--n", "1000", "--p", "0.05"],
        ["run", "--n", "60", "--p", "0.2"],
        RUN + ["1"],
        RUN + ["2"],
        ["typical", "--n", "60", "--p", "0.2", "--budget", "4"],
        COVER + ["theta1", "--t", "20"],
        COVER + ["adaptive"],
        COVER + ["pdim", "--t", "4"],
        COVER + ["pdim-adaptive"],
        ["estimate", "--what", "membership", *HOSTED],
        ["estimate", "--what", "pair", *HOSTED],
        ["estimate", "--what", "chain", *HOSTED, "--seed", "3", "--i", "1", "--j", "3",
         "--u", "0", "--v", "1"],
        UNIFORM,
        UNIFORM + ["--sample-mode", "rejection"],
    ],
    ids=["bipartite", "chain-full", "gen", "bounds", "run", "ensemble-threads1",
         "ensemble-threads2", "typical", "cover-theta1", "cover-adaptive", "cover-pdim",
         "cover-pdim-adaptive", "membership", "pair", "chain-light", "uniform-exact",
         "uniform-rejection"],
)
def test_path_never_imports_numpy_random(argv, tmp_path):
    host = tmp_path / "host.txt"
    host.write_text(to_edge_list(gnp_sample(40, 0.9, 1)))
    argv = [str(host) if a == "HOST" else a for a in argv]
    code = (
        "import contextlib, io, sys\n"
        "import greedycover.rng\n"
        "assert 'numpy.random' not in sys.modules, 'imported by the package'\n"
        "from greedycover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert fresh_interpreter(code) == "False"


def test_single_process_paths_never_import_the_pool():
    # bipartite's peak RSS is that of the process that imports the package;
    # loading the pool modules there would add about 1 MB
    code = (
        "import contextlib, io, sys\n"
        "import greedycover, greedycover.cli\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "assert not set(pool) & set(sys.modules), 'imported by the package'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert greedycover.cli.main({BIPARTITE!r}) == 0\n"
        f"    assert greedycover.cli.main({COVER + ['adaptive']!r}) == 0\n"
        "print(sorted(set(pool) & set(sys.modules)))\n"
    )
    assert fresh_interpreter(code) == "[]"


def test_pooled_paths_never_import_the_pool():
    # chunked_map forks its workers itself; importing concurrent.futures and
    # multiprocessing would add about 1 MB to the parent's peak RSS
    argv = ["run", "--n", "60", "--p", "0.2", "--trials", "70", "--threads", "2"]
    code = (
        "import contextlib, io, os, sys\n"
        "import greedycover.cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert greedycover.cli.main({argv!r}) == 0\n"
        "pool = {'concurrent.futures', 'multiprocessing'}\n"
        "print(len(forks), sorted(pool & set(sys.modules)))\n"
    )
    assert fresh_interpreter(code) == "2 []"


# The four library modules behind the subcommands, which a start loads only
# when its subcommand runs them
LIBRARY = ("process", "typicality", "cover", "montecarlo")


def loaded_library(code: str) -> str:
    """`code` in a fresh interpreter, then the LIBRARY modules it loaded."""
    return fresh_interpreter(
        code
        + "\nimport sys\n"
        + f"print(sorted(m for m in {LIBRARY!r} if 'greedycover.' + m in sys.modules))\n"
    )


def test_package_import_loads_no_library_module():
    code = (
        "import sys\n"
        "import greedycover, greedycover.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('greedycover')))\n"
    )
    assert fresh_interpreter(code) == str(
        ["greedycover", "greedycover.cli", "greedycover.graph", "greedycover.params",
         "greedycover.rng"]
    )


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["gen", "--n", "20", "--p", "0.2"], []),
        (["bounds", "--n", "1000", "--p", "0.05"], []),
        (["run", "--n", "60", "--p", "0.2"], ["process"]),
        (["typical", "--n", "60", "--p", "0.2", "--budget", "2"],
         ["process", "typicality"]),
        (COVER + ["adaptive"], ["cover", "process"]),
        (BIPARTITE, ["montecarlo", "process"]),
    ],
    ids=["gen", "bounds", "run", "typical", "cover", "estimate"],
)
def test_each_subcommand_loads_only_its_modules(argv, modules):
    code = (
        "import contextlib, io\n"
        "from greedycover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert loaded_library(code) == str(modules)


def test_every_export_resolves_to_its_home_object():
    code = (
        "import importlib, greedycover\n"
        "names = {}\n"
        "exec('from greedycover import *', names)\n"
        "assert set(greedycover.__all__) <= set(names) <= set(dir(greedycover))\n"
        "for name in greedycover.__all__[:-1]:\n"
        "    obj = getattr(greedycover, name)\n"
        "    assert names[name] is obj, name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "print(greedycover.__all__[-1], len(names) - 1)\n"
    )
    assert fresh_interpreter(code) == "__version__ 61"
    assert loaded_library("import greedycover\ngreedycover.Graph") == "[]"


def test_name_patched_on_cli_before_its_first_run_is_the_one_it_calls():
    # the benchmark tracer patches library names on greedycover.cli before
    # the subcommand that binds them has run
    argv = ["typical", "--n", "60", "--p", "0.2", "--budget", "2"]
    code = (
        "import contextlib, dataclasses, io, json\n"
        "import greedycover.cli as cli\n"
        "original = cli.is_typical\n"
        "def flipped(*args, **kwargs):\n"
        "    report = original(*args, **kwargs)\n"
        "    return dataclasses.replace(report, typical=not report.typical)\n"
        "for fn in (flipped, original):\n"
        "    cli.is_typical = fn\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        f"        assert cli.main({argv!r}) == 0\n"
        "    print(json.loads(out.getvalue())['typicality']['typical'])\n"
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    typical = json.loads(out.getvalue())["typicality"]["typical"]
    assert fresh_interpreter(code).split() == [str(not typical), str(typical)]


def fresh_interpreter(code: str) -> str:
    """Stripped stdout of `code` run in a new interpreter on the sources."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_package_never_names_numpy_random():
    # the package owns every draw; numpy's Generator is a test oracle only
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path.name
