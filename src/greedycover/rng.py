"""Reproducible random streams.

Every stochastic routine in the package draws from a Philox4x64-10
counter-based generator keyed by (user_seed, domain, index).  The key is two
uint64 words,

    key = [seed mod 2**64, (domain << 48) | index]

so a single user seed never aliases streams across purposes (graph sampling
vs. process runs vs. subset draws), and work unit `index` (a trial, run, or
copy number) gets its own stream that can be regenerated in isolation.  This
is what makes results independent of execution order and thread count.

The package owns every draw algorithm.  One kernel, `_philox`, evaluates
Philox in counter mode over an array of counters (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): word w of a stream is word
w % 4 of the block at counter [w // 4 + 1, 0, 0, 0], and a uniform is the
word's top 53 bits times 2**-53.  Two readers sit on it: `uniform_rows` /
`trial_rows` give the first k uniforms of every trial in a block of trial
indices (the greedy kernels, ensemble runs), and `stream` gives a
sequential `Stream` (host sampling, single recording runs, subset, pair and
P3 draws, `int_stream`).  How the words are batched changes no output.

The draws are those of numpy 2.x's Generator over Philox with the same key,
bit for bit, so every stream keeps the bytes it had when numpy drew it.
numpy's Generator is now only the tests' oracle: a numpy release that
changed its algorithms would fail a test, not change an output.
"""

from __future__ import annotations

import math
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

# Counters per kernel evaluation when a `Stream` reads in bulk: nine 64 KB
# arrays in the round loop and 128 KB of words out.
_STREAM_BLOCK = 4096

# 32-bit draws a vector `Stream.integers` call tests per round (the halves
# of one bulk kernel call), so its working memory beside the result is a
# few 256 KB arrays whatever the size.
_DRAW_BLOCK = 8 * _STREAM_BLOCK

# Counters a `Stream` evaluates ahead of its draws (8 KB): a kernel call
# costs about the same for one counter as for a few hundred.
_READAHEAD = 256

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


def _mulhi(m_lo, m_hi, x: np.ndarray, out: np.ndarray, a, b, c) -> None:
    """out = high words of m * x; with a = x_lo m_lo and b = x_lo m_hi it is
    x_hi m_hi + (b >> 32) + ((x_hi m_lo + (a >> 32) + (b & M32)) >> 32)."""
    np.bitwise_and(x, _MASK32, out=a)
    np.right_shift(x, 32, out=b)
    np.multiply(a, m_hi, out=out)
    a *= m_lo
    a >>= 32
    np.bitwise_and(out, _MASK32, out=c)
    a += c
    out >>= 32
    np.multiply(b, m_lo, out=c)
    a += c
    a >>= 32
    b *= m_hi
    out += b
    out += a


def _philox(k0: int, k1: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counters [ctr, 0, 0, 0] under keys [k0, k1].

    `k1` (uint64) broadcasts against `ctr`; returns shape ctr.shape + (4,).
    A round maps (x0, x1, x2, x3) to (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1,
    lo0), with hi0:lo0 = M0 x0 and hi1:lo1 = M1 x2.  It runs in place on
    stacked pairs: x = [x0, x2] gives hi = [hi0, hi1] and lo = [lo0, lo1],
    the next [x3, x1], so hi ^ [x3, x1] ^ [k1, k0] is the next [x2, x0],
    written row-reversed.  The multipliers are full arrays because numpy
    multiplies by a broadcast column about half as fast.
    """
    col = (2,) + (1,) * ctr.ndim
    shape = (2,) + np.broadcast_shapes(k1.shape, ctr.shape)
    weyl = np.array([_PHILOX_W1, _PHILOX_W0], dtype=np.uint64).reshape(col)
    key = np.empty((2,) + k1.shape, dtype=np.uint64)
    key[0], key[1] = k1, k0
    x = np.zeros(shape, dtype=np.uint64)
    x[0] = ctr
    y, hi, a, b, c = (np.zeros_like(x) for _ in range(5))
    m = np.empty(shape, dtype=np.uint64)
    m[0], m[1] = _PHILOX_M0, _PHILOX_M1
    m_lo, m_hi = m & _MASK32, m >> 32
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += weyl
        _mulhi(m_lo, m_hi, x, hi, a, b, c)
        hi ^= y
        np.bitwise_xor(hi, key, out=a[::-1])
        x *= m
        x, y, a = a, x, y
    del hi, a, b, c, m, m_lo, m_hi  # free the scratch before the output exists
    return np.stack((x[0], y[1], x[1], y[0]), axis=-1)


def _stream_words(k0: int, k1: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Words first..stop-1 (stop > first), _STREAM_BLOCK counters per kernel call."""
    lo, hi = first // 4, -(-stop // 4)  # counters lo + 1 .. hi hold the words
    blocks = []
    for c in range(lo, hi, _STREAM_BLOCK):
        ctr = np.arange(c + 1, min(c + _STREAM_BLOCK, hi) + 1, dtype=np.uint64)
        blocks.append(_philox(k0, k1, ctr).ravel())
    words = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    return words[first - 4 * lo : stop - 4 * lo]


def _uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> 11).astype(np.float64) * 2.0**-53


class Stream:
    """Sequential reader of one stream.

    `random`, `integers` and `choice` consume words as numpy 2.x's
    `Generator(Philox(key))` does for the same calls and return the same
    values.  A 64-bit draw takes the next word.  A 32-bit draw (an integer
    below 2**32) takes the low half of a word and leaves its high half for
    the next 32-bit draw, across any 64-bit draws between.  `below(p, size)`
    reads the words of `random(size)` and returns `random(size) < p`.
    """

    __slots__ = ("_k0", "_k1", "_buf", "_pos", "_end", "_half")

    def __init__(self, k0: int, k1: np.ndarray):
        self._k0, self._k1 = k0, k1
        self._buf = np.empty(0, dtype=np.uint64)  # words evaluated ahead
        self._pos = self._end = 0  # next unread word of _buf; stream end of _buf
        self._half: int | None = None

    def _words(self, m: int) -> np.ndarray:
        short = self._pos + m - self._buf.size
        if short > 0:
            stop = self._end + max(short, 4 * _READAHEAD)
            fresh = _stream_words(self._k0, self._k1, self._end, stop)
            rest = self._buf[self._pos :]
            self._buf = np.concatenate((rest, fresh)) if rest.size else fresh
            self._pos, self._end = 0, stop
        self._pos += m
        return self._buf[self._pos - m : self._pos]

    def _word(self) -> int:
        if self._pos < self._buf.size:
            self._pos += 1
            return self._buf.item(self._pos - 1)
        return self._words(1).item()

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def _halves(self, m: int) -> np.ndarray:
        """The next m 32-bit draws, as uint64: low half of a word, then high."""
        head = [] if self._half is None else [self._half]
        words = self._words((m - len(head) + 1) // 2).astype("<u8", copy=False)
        halves = np.concatenate((np.array(head, dtype=np.uint64), words.view("<u4")))
        self._half = halves.item(m) if halves.size > m else None
        return halves[:m]

    def _bounded(self, r: int) -> int:
        """Uniform in [0, r] by Lemire's method: reject while the low bits
        of draw * (r + 1) are below 2**bits mod (r + 1)."""
        if r == 0:
            return 0
        bits, draw = (32, self._next32) if r <= _MASK32 else (64, self._word)
        mask = (1 << bits) - 1
        if r == mask:
            return draw()
        m = r + 1
        threshold = (mask - r) % m
        x = draw() * m
        while x & mask < threshold:
            x = draw() * m
        return x >> bits

    def random(self, size: int | None = None):
        """Uniforms in [0, 1): a float, or `size` of them as float64."""
        if size is None:
            return (self._word() >> 11) * 2.0**-53
        return _uniforms(self._words(size))

    def below(self, p: float, size: int) -> np.ndarray:
        """`self.random(size) < p` for p in [0, 1], compared on the words.

        With u = (w >> 11) * 2**-53, u < p holds exactly when
        w < ceil(p * 2**53) * 2**11, so no uniform is formed.
        """
        words = self._words(size)
        t = math.ceil(p * 2.0**53)
        if t == 1 << 53:
            return np.ones(size, dtype=bool)
        return words < np.uint64(t << 11)

    def integers(self, lo: int, hi: int, size: int | None = None):
        """Uniform integers in [lo, hi): an int, or `size` of them as int64.

        Below 2**32 - 1 the vector form tests up to _DRAW_BLOCK 32-bit draws
        at a time into the preallocated result, reading no more draws than
        the values still missing, so it never reads past the last accepted one.
        """
        r = hi - lo - 1
        if r < 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        if size is None:
            return lo + self._bounded(r)
        if r == 0 or r >= _MASK32:
            return np.array([lo + self._bounded(r) for _ in range(size)], dtype=np.int64)
        m, threshold = r + 1, (_MASK32 - r) % (r + 1)
        out, filled = np.empty(size, dtype=np.int64), 0
        while filled < size:
            x = self._halves(min(size - filled, _DRAW_BLOCK))
            x *= np.uint64(m)
            x = x[x & _MASK32 >= threshold] >> 32
            out[filled : filled + x.size] = x
            filled += x.size
        out += lo
        return out

    def choice(self, n: int, size: int) -> list[int]:
        """`size` distinct integers of range(n), in numpy's order.

        Floyd's algorithm (a draw in [0, j], or j on a repeat, for
        j = n - size .. n - 1), then a Fisher-Yates pass; when size is over
        a 50th of n > 10000, the tail of a Fisher-Yates shuffle of range(n).
        """
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} of {n} without replacement")
        if n > 10000 and size > n // 50:
            out = list(range(n))
            self._shuffle(out, n, max(n - size, 1))
            return out[n - size :]
        out: list[int] = []
        seen: set[int] = set()
        for j in range(n - size, n):
            v = self._bounded(j)
            out.append(j if v in seen else v)
            seen.add(out[-1])
        self._shuffle(out, size, 1)
        return out

    def _shuffle(self, xs: list[int], stop: int, first: int) -> None:
        """Swap xs[i] with xs[uniform j <= i] for i = stop-1 down to first."""
        for i in range(stop - 1, first - 1, -1):
            j = self._bounded(i)
            xs[i], xs[j] = xs[j], xs[i]


def stream(seed: int, domain: int, index: int = 0) -> Stream:
    """Return the sequential reader of work unit `index` of `domain` under `seed`."""
    _check(domain, index)
    return Stream(seed & _MASK64, np.array([(domain << 48) | index], dtype=np.uint64))


def uniform_rows(seed: int, domain: int, start: int, stop: int, k: int) -> np.ndarray:
    """Rows t = start..stop-1 of `stream(seed, domain, t).random(k)`, one
    kernel evaluation, as a (stop - start, k) float64 array."""
    _check(domain, start)
    if stop < start or stop > _MAX_INDEX:
        raise ValueError(f"stream index out of range: {stop}")
    if k < 0:
        raise ValueError("k must be >= 0")
    trials, blocks = stop - start, -(-k // 4)
    k1 = np.arange(start, stop, dtype=np.uint64)[:, None] | np.uint64(domain << 48)
    ctr = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (trials, blocks))
    words = _philox(seed & _MASK64, k1, ctr).reshape(trials, 4 * blocks)[:, :k]
    return _uniforms(words)


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

    gen = stream(seed, domain, index)
    material = sum(gen.integers(0, _MASK64) << (64 * i) for i in range(4))
    return random.Random(material)
