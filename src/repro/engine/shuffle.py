"""Shuffle helpers: stable hashing and bucket construction."""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def stable_hash(key: Any) -> int:
    """A process-independent hash for shuffle bucketing.

    Python's built-in ``hash`` is salted per process for strings, which
    would make partition layouts differ between runs and make tests (and
    the Table 5 load-balance numbers) non-reproducible.  We hash the repr
    through blake2b instead; all shuffle keys in this codebase (ints,
    strings, floats, tuples of those) have stable reprs.

    NumPy scalars are normalized to the equivalent Python scalar first:
    their repr changed between NumPy 1.x and 2.x (``5`` vs
    ``np.int64(5)``), so repr-hashing them would silently shuffle the
    same key to different partitions depending on the installed NumPy —
    and ``np.int64(5)`` should bucket like ``5`` regardless.  Tuple keys
    are normalized element-wise for the same reason.
    """
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, tuple):
        key = tuple(k.item() if isinstance(k, np.generic) else k for k in key)
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


def hash_partition(key: Any, num_partitions: int) -> int:
    """Map a key to a bucket index."""
    return stable_hash(key) % num_partitions
