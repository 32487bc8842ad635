"""Reproducible random streams.

Every stochastic routine in the package draws from a Philox4x64-10
counter-based generator keyed by (user_seed, domain, index).  The key is two
uint64 words,

    key = [seed mod 2**64, (domain << 48) | index]

so a single user seed never aliases streams across purposes (graph sampling
vs. process runs vs. subset draws), and work unit `index` (a trial, run, or
copy number) gets its own stream that can be regenerated in isolation.  This
is what makes results independent of execution order and thread count.

Sequential consumers (host sampling, recording runs, subset and pair draws,
`int_stream`) read a stream through numpy's Generator.  Per-trial light
kernels only need the first k uniforms of each trial's stream; they read the
same numbers through `uniform_rows`, which evaluates Philox in counter mode
over a block of trial indices at once (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  Row t equals
`stream(seed, domain, t).random(k)` bit for bit, so the block size
(`BLOCK_COUNTERS`) changes no output.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MAX_INDEX = 1 << 48

# Domain codes.  Never reuse or renumber: streams are part of the output
# contract (same seed must keep producing the same bytes across versions).
GRAPH = 0
RUN = 1
SUBSET = 2
PAIRS = 3
UNIFORM_SET = 4
COVER_FLAT = 5
COVER_PART = 6
MEMBERSHIP = 7
CHAIN = 8
PREFIX = 9
BIPARTITE = 10
P3_SAMPLE = 11

# Philox counters (four words each) per `uniform_rows` evaluation in
# `trial_rows`: 1024 trials at k <= 4, fewer at larger k, so each array of
# the round loop holds about 1024 words (8 KB) whatever k is.  Larger blocks
# cost memory and buy little once the per-call overhead is amortised.
BLOCK_COUNTERS = 1024

# Philox4x64 multipliers and Weyl key increments (Random123).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _check(domain: int, index: int) -> None:
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    if not 0 <= domain < (1 << 16):
        raise ValueError(f"domain out of range: {domain}")


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for work unit `index` of `domain` under `seed`."""
    _check(domain, index)
    key = np.array([seed & _MASK64, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo = x_lo * m_lo
    lo_hi = x_lo * m_hi
    hi_lo = x_hi * m_lo
    mid = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    high = x_hi * m_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)
    return x * m, high


def uniform_rows(seed: int, domain: int, start: int, stop: int, k: int) -> np.ndarray:
    """Rows t = start..stop-1 of `stream(seed, domain, t).random(k)`.

    Returns a (stop - start, k) float64 array.  numpy's Philox bumps the
    counter before each block of four words, so word w of a stream is word
    w % 4 of Philox4x64-10 at counter [w // 4 + 1, 0, 0, 0]; a uniform is
    the word's top 53 bits times 2**-53.
    """
    _check(domain, start)
    if stop < start or stop > _MAX_INDEX:
        raise ValueError(f"stream index out of range: {stop}")
    if k < 0:
        raise ValueError("k must be >= 0")
    trials, blocks = stop - start, -(-k // 4)
    k0 = seed & _MASK64
    k1 = np.arange(start, stop, dtype=np.uint64)[:, None] | np.uint64(domain << 48)
    shape = (trials, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W1)
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(trials, 4 * blocks)[:, :k]
    return (words >> 11).astype(np.float64) * 2.0**-53


def trial_rows(
    seed: int, domain: int, start: int, stop: int, k: int
) -> Iterator[np.ndarray]:
    """Yield the `uniform_rows` row of each trial start, start+1, ..., stop-1.

    Rows are evaluated BLOCK_COUNTERS counters at a time, a block only when
    the consumer reaches it, so an adaptive loop may stop at any trial.
    """
    step = max(BLOCK_COUNTERS // max(-(-k // 4), 1), 1)
    for lo in range(start, stop, step):
        yield from uniform_rows(seed, domain, lo, min(lo + step, stop), k)


def int_stream(seed: int, domain: int, index: int = 0):
    """stdlib Random for exact arbitrary-precision integer draws.

    Seeded from the first words of the matching Philox stream so the two
    families stay coupled to the same (seed, domain, index) identity.
    """
    import random

    words = stream(seed, domain, index).integers(0, _MASK64, 4, dtype=np.uint64)
    material = int.from_bytes(words.tobytes(), "little")
    return random.Random(material)
