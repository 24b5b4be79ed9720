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

import functools

import numpy as np

from . import field, prf

R_CACHE_SIZE = 8


@functools.lru_cache(maxsize=R_CACHE_SIZE)
def _r_matrix(k_v: bytes, file_id: bytes, count: int, length: int) -> np.ndarray:
    """r_1..r_count as the rows of one read-only (count, length) matrix."""
    stack = np.stack([prf.nonzero_symbols(functools.partial(
        prf.derive_r_vector, k_v, file_id, key_index=j), length) for j in range(1, count + 1)])
    stack.flags.writeable = False
    return stack


def r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """r_j: the F1 keystream with its zero symbols skipped, so each symbol
    is uniform on 1..255 and every position of a block enters every tag;
    prefix-stable in length.  The last row of _r_matrix(..., j, length)."""
    return _r_matrix(k_v, file_id, key_index, length)[-1]


def r_matrix(k_v: bytes, file_id: bytes, ell: int, length: int) -> np.ndarray:
    """r_1..r_ell as the rows of one read-only (ell, length) matrix."""
    r_vector(k_v, file_id, length, ell)  # the lookup perfbench traces as spacemac.r_vector
    return _r_matrix(k_v, file_id, ell, length)


def mac(k_v: bytes, file_id: bytes, rows: np.ndarray, ell: int = 1) -> np.ndarray:
    """ell tags for an (n+m,) block, or an (ell,) tag row per row of a
    (k, n+m) block matrix; tag j is the dot product with r_j.  A tag is
    verified by recomputing it (audit.verify_block), or in one product with
    a table that holds the coefficient part's tags (audit.verify_proof)."""
    return field.combine_rows(rows, r_matrix(k_v, file_id, ell, rows.shape[-1]).T)
