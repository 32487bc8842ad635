"""numpy's Generator keyed as the package keys its streams.

The package draws with its own Philox kernel and its own draw algorithms;
numpy's Generator over Philox(key=[seed mod 2**64, (domain << 48) | index])
is the independent oracle every reader is tested against.
"""

from __future__ import annotations

import numpy as np


def numpy_stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    key = np.array([seed % 2**64, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
