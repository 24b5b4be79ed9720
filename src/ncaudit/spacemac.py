"""Homomorphic MAC over coded blocks.

A tag is the dot product of the full (n+m)-symbol block vector with a
secret PRF-derived vector.  Tags of linear combinations are the same
linear combinations of tags, which is what lets storage nodes maintain
valid tags without the verification key: a node keeps each block's tags
beside its data symbols in one row, and every combination of rows
(field.combine_rows) combines both.
ell parallel tags (independent key indices) push the forgery bound from
1/q down to 1/q^ell.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from . import field, prf

R_CACHE_SIZE = 8
# (k_v, file_id) -> r_1..r_j stacked tag-major, the rows of one read-only
# (j, L) matrix; past R_CACHE_SIZE keys the least recently used is dropped.
_r_cache: "OrderedDict[Tuple[bytes, bytes], np.ndarray]" = OrderedDict()


def _nonzero_keystream(k_v: bytes, file_id: bytes, length: int, key_index: int) -> np.ndarray:
    """The nonzero symbols of a prefix of r_j's F1 keystream, at least
    `length` of them."""
    drawn = length + length // 64 + 64  # one keystream symbol in 256 is zero
    while True:
        stream = prf.derive_r_vector(k_v, file_id, drawn, key_index)
        stream = stream[stream != 0]
        if stream.shape[0] >= length:
            return stream
        drawn *= 2


def r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """r_j: the F1 keystream with its zero symbols skipped, so each symbol
    is uniform on 1..255 and every position of a block enters every tag;
    prefix-stable in length.  A view of row j-1 of the cached matrix: a
    further vector is derived alone, a longer one re-derives every row."""
    key = (k_v, file_id)
    stack = _r_cache.get(key)
    if stack is None or stack.shape[0] < key_index or stack.shape[1] < length:
        count = key_index if stack is None else max(key_index, stack.shape[0])
        rows = [] if stack is None or stack.shape[1] < length else list(stack)
        rows += [_nonzero_keystream(k_v, file_id, length, j)
                 for j in range(len(rows) + 1, count + 1)]
        width = min(row.shape[0] for row in rows)
        stack = np.stack([row[:width] for row in rows])
        stack.flags.writeable = False
        _r_cache[key] = stack
        while len(_r_cache) > R_CACHE_SIZE:
            _r_cache.popitem(last=False)
    _r_cache.move_to_end(key)
    return stack[key_index - 1, :length]


def mac(k_v: bytes, file_id: bytes, rows: np.ndarray, ell: int = 1) -> np.ndarray:
    """ell tags for an (n+m,) block, or an (ell,) tag row per row of a
    (k, n+m) block matrix; tag j is the dot product with r_j.  A tag is
    verified by recomputing it (audit.verify_block)."""
    length = rows.shape[-1]
    r_vector(k_v, file_id, length, ell)  # r_1..r_ell cached, length or longer
    return field.combine_rows(rows, _r_cache[k_v, file_id][:ell, :length].T)
