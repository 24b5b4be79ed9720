"""One-time masks and vouchers: masking that stays verifiable under the
homomorphic MAC.

Audit k of a node hides the first n-2 symbols of the node's aggregate with
m_k = F3(k_e, file, node, k), which the node derives directly in O(n).  The
user, who alone holds both keys, issues the node a voucher for k (setup):

    v_{k,j} = <m_k, r_j[:n-2]> + s_{k,j},    s_k = F4(k_v, file, node, k),

and the node sends tau = t + v_k in place of its aggregate tag t.  The
auditor, holding k_v but not k_e, accepts when the MAC of the masked block
equals tau + s_k.  To the node s_k is a one-time pad, so vouchers tell it
nothing about r; to the auditor tau is a function of the masked data and
public values, and m_k keeps the masked data uniform.  Each k serves one
audit: the auditor rejects a k it has seen, or one never issued to the node.

enc and dec map symbol arrays to symbol arrays; audit.Proof carries the
masked data on the wire and audit.verify_proof checks it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import prf, spacemac


@dataclass
class Voucher:
    """What the user hands a node for one audit: k and ell symbols."""
    node: int
    k: int
    value: np.ndarray


def nonce(node: int, k: int, params) -> bytes:
    """The PRF nonce of audit k at a node: u32 BE node id || k as on the wire."""
    if not 1 <= k < 1 << params.lambda_bits:
        raise ValueError(f"audit counter {k} outside 1..2^{params.lambda_bits}-1")
    return struct.pack(">I", node) + k.to_bytes(params.lambda_bits // 8, "big")


def mask_for_nonce(k_e: bytes, file_id: bytes, node: int, k: int, params) -> np.ndarray:
    """The mask m_k of audit k at a node, n-2 symbols."""
    return prf.derive_mask(k_e, file_id, nonce(node, k, params), params.n - 2)


def voucher_pad(k_v: bytes, file_id: bytes, node: int, k: int, params) -> np.ndarray:
    """The pad s_k that the auditor strips from tau, ell symbols."""
    return prf.derive_pad(k_v, file_id, nonce(node, k, params), params.ell)


def setup(k_e: bytes, k_v: bytes, file_id: bytes, node: int, k: int,
          params) -> Voucher:
    """Issue voucher k for a node; needs both keys."""
    m_bar = mask_for_nonce(k_e, file_id, node, k, params)
    value = spacemac.mac(k_v, file_id, m_bar, params.ell)
    return Voucher(node, k, value ^ voucher_pad(k_v, file_id, node, k, params))


def enc(k_e: bytes, file_id: bytes, node: int, k: int, e_bar: np.ndarray,
        params) -> np.ndarray:
    """c_bar: e_bar, n-2 symbols, masked with the mask of audit k."""
    e_bar = np.asarray(e_bar, dtype=np.uint8)
    if e_bar.shape != (params.n - 2,):
        raise ValueError("data must be n-2 symbols")
    return e_bar ^ mask_for_nonce(k_e, file_id, node, k, params)


def dec(k_e: bytes, file_id: bytes, node: int, k: int, c_bar: np.ndarray,
        params) -> np.ndarray:
    """e_bar: the mask of audit k stripped, by masking again.  No integrity
    check: that is audit.verify_proof's job."""
    return enc(k_e, file_id, node, k, c_bar, params)
