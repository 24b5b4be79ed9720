"""Homomorphic MAC over coded blocks.

A tag is the dot product of the full (n+m)-symbol block vector with a
secret PRF-derived vector.  Tags of linear combinations are the same
linear combinations of tags, which is what lets storage nodes maintain
valid tags without the verification key: a node keeps each block's tags
beside its data symbols in one row, and every combination of rows
(blocks.combine_blocks) combines both.
ell parallel tags (independent key indices) push the forgery bound from
1/q down to 1/q^ell.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from . import prf
from .blocks import combine_blocks

# (key, file_id, key_index) -> longest r-vector derived so far; a longer
# request replaces the entry, and callers get a prefix of it.
_r_cache: Dict[Tuple, np.ndarray] = {}


def r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """r_j: the F1 keystream with its zero symbols skipped, so each symbol
    is uniform on 1..255 and every position of a block enters every tag;
    prefix-stable in length."""
    cache_key = (k_v, file_id, key_index)
    vec = _r_cache.get(cache_key)
    drawn = length + length // 64 + 64  # one keystream symbol in 256 is zero
    while vec is None or vec.shape[0] < length:
        stream = prf.derive_r_vector(k_v, file_id, drawn, key_index)
        vec = _r_cache[cache_key] = stream[stream != 0]
        drawn *= 2
    return vec[:length]


def clear_cache():
    _r_cache.clear()


def mac(k_v: bytes, file_id: bytes, rows: np.ndarray, ell: int = 1) -> np.ndarray:
    """ell tags for an (n+m,) block, or an (ell,) tag row per row of a
    (k, n+m) block matrix; tag j is the dot product with r_j.  A tag is
    verified by recomputing it (audit.verify_block)."""
    length = rows.shape[-1]
    rs = np.stack([r_vector(k_v, file_id, length, j + 1) for j in range(ell)], axis=1)
    return combine_blocks(rows, rs)
