"""Homomorphic MAC over coded blocks: Mac and Combine.

A tag is the dot product of the full (n+m)-symbol block vector with a
secret PRF-derived vector.  Tags of linear combinations are the same
linear combinations of tags, which is what lets storage nodes maintain
valid tags without the verification key.  ell parallel tags (independent
key indices) push the forgery bound from 1/q down to 1/q^ell.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from . import field, prf
from .blocks import CodedBlock

# (mode, key, file_id, key_index) -> longest r-vector derived so far.
# Entries are only ever extended, never mutated, so concurrent readers are safe.
_r_cache: Dict[Tuple, np.ndarray] = {}
_r_lock = threading.Lock()


def r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    cache_key = (prf.test_mode(), k_v, file_id, key_index)
    vec = _r_cache.get(cache_key)
    if vec is None or vec.shape[0] < length:
        vec = prf.derive_r_vector(k_v, file_id, length, key_index)
        with _r_lock:
            _r_cache[cache_key] = vec
    return vec[:length]


def clear_cache():
    _r_cache.clear()


def mac(k_v: bytes, file_id: bytes, block: CodedBlock, ell: int = 1) -> np.ndarray:
    """ell tags for a block; tag j is dot(block, r_j).  A tag is verified by
    recomputing it (audit.verify_block)."""
    length = block.n + block.m
    rs = np.stack([r_vector(k_v, file_id, length, j + 1) for j in range(ell)])
    return field.matvec(rs, block.vec)


def combine_tag_arrays(tags: np.ndarray, alphas) -> np.ndarray:
    """Tag of the alpha-combination; tags is (k, ell), alphas length k."""
    alphas = field.vec(alphas)
    tags = np.atleast_2d(np.asarray(tags, dtype=np.uint8))
    if tags.shape[0] != alphas.shape[0]:
        raise ValueError("tag count mismatch")
    return field.combine_rows(alphas, tags)
