"""Counter-based RNG substreams for order-independent parallel sampling."""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for a (seed, stream index) pair.

    Streams are Philox counters keyed by the seed with the index placed in
    the high counter words, so stream ``i`` and stream ``i + 1`` are separated
    by 2**192 states and draws are identical whether streams are consumed
    serially or in parallel.
    """
    bg = np.random.Philox(key=seed & _MASK64, counter=(index & _MASK64) << 192)
    return np.random.Generator(bg)


def substream_state(seed: int, index: int) -> dict:
    """The Philox ``state`` that ``substream(seed, index)`` starts from: key
    ``[seed mod 2**64, 0]``, counter ``[0, 0, 0, index mod 2**64]`` and an
    empty output buffer.

    Assigning it to any Philox's ``state`` re-keys that generator onto the
    stream, and assigning a state read back after a draw resumes the stream
    where that draw stopped. One generator can so draw from many substreams
    in turn, each exactly as ``substream`` would; constructing a Philox per
    stream costs more than a short draw, because the constructor first
    seeds itself from OS entropy.
    """
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, 0, 0, index & _MASK64], dtype=np.uint64),
            "key": np.array([seed & _MASK64, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derived_seed(master: int, *labels: str) -> int:
    """Stable 63-bit seed derived from a master seed and string labels.

    Hash-based so that adding unrelated components to a run never perturbs
    the draws of existing ones.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for label in labels:
        h.update(b"|")
        h.update(label.encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1
