"""Counter-based random streams for reproducible parallel replication.

Every sampler in the package draws from a stream derived from the triple
(master seed, replicate index, module tag). Streams are Philox generators
keyed by a 128-bit hash of that triple, so any replicate can be regenerated
in isolation and results never depend on worker scheduling.
"""

from __future__ import annotations

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


def stream(master_seed: int, replicate: int, tag: str) -> np.random.Generator:
    """Independent Philox stream for one (seed, replicate, tag) triple."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, replicate, tag)))
