"""Counter-based random streams for reproducible parallel replication.

Every sampler in the package draws from a stream derived from the triple
(master seed, replicate index, module tag). Streams are Philox generators
keyed by a 128-bit hash of that triple, so any replicate can be regenerated
in isolation and results never depend on worker scheduling.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ParameterError

MAX_SEED = 2 ** 64


def stream_key(master_seed: int, replicate: int, tag: str) -> int:
    if not (0 <= master_seed < MAX_SEED):
        raise ParameterError("master seed must fit in an unsigned 64-bit integer")
    if replicate < 0:
        raise ParameterError("replicate index must be nonnegative")
    raw = f"{master_seed}:{replicate}:{tag}".encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=16).digest(), "little")


@functools.cache
def _key_seed():
    """The class of a seed sequence whose state is a given 128-bit Philox
    key, as the two little-endian 64-bit words Philox(key=...) makes of it.
    Philox(key=...) first builds and drops an OS-entropy SeedSequence, which
    costs more than the rest of a stream; seeding Philox with this skips it.
    The class is made on the first stream, since importing numpy.random adds
    about 10 ms to start-up, which a rejected config never needs."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: int):
            self.words = np.array([key & (MAX_SEED - 1), key >> 64], np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return KeySeed


def stream(master_seed: int, replicate: int, tag: str) -> np.random.Generator:
    """Independent Philox stream for one (seed, replicate, tag) triple."""
    key = stream_key(master_seed, replicate, tag)
    return np.random.Generator(np.random.Philox(_key_seed()(key)))
