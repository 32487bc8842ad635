"""Streams: key layout and the batched counter-mode evaluation.

numpy's own Philox Generator is the slow oracle: every row of
`uniform_rows` must equal `stream(seed, domain, t).random(k)` bit for bit,
for any seed in [0, 2**64), any domain, any index below 2**48 and any k.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from greedycover import rng
from greedycover.graph import gnp_sample, to_edge_list

SRC = Path(__file__).resolve().parent.parent / "src"

EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]


def oracle(seed: int, domain: int, start: int, stop: int, k: int) -> np.ndarray:
    rows = [rng.stream(seed, domain, t).random(k) for t in range(start, stop)]
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
                rows[i], rng.stream(2**63, rng.MEMBERSHIP, t).random(k)
            )
        np.testing.assert_array_equal(
            np.array(rows), rng.uniform_rows(2**63, rng.MEMBERSHIP, start, stop, k)
        )

    def test_rows_are_evaluated_only_when_reached(self):
        # adaptive builders pass a cap far beyond the rows they consume
        rows = rng.trial_rows(9, rng.COVER_FLAT, 0, 2**48, 4)
        first = [next(rows) for _ in range(rng.BLOCK_COUNTERS + 2)]
        np.testing.assert_array_equal(
            first[-1], rng.stream(9, rng.COVER_FLAT, rng.BLOCK_COUNTERS + 1).random(4)
        )


class TestChunkedDraws:
    def test_one_call_equals_scalar_and_split_calls(self):
        # run_with_generator reads its k uniforms with one random(k) call;
        # k up to 60 crosses many 4-word Philox blocks
        gen = np.random.default_rng(20261018)
        for k in range(1, 61):
            seed = int(gen.integers(0, 2**64, dtype=np.uint64))
            domain = int(gen.integers(0, 1 << 16))
            index = int(gen.integers(0, 2**48))
            whole = rng.stream(seed, domain, index).random(k)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--what", "bipartite", "--a", "10", "--b", "20", "--k", "3",
         "--trials", "2000"],
        # the chain full path on a host too dense for --p, as in test_golden
        ["estimate", "--what", "chain", "--input", "HOST", "--p", "0.05", "--seed",
         "5", "--i", "1", "--j", "2", "--u", "0", "--v", "5", "--trials", "300"],
    ],
    ids=["bipartite", "chain-full"],
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
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
