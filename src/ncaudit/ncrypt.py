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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import prf, spacemac


@dataclass
class Ciphertext:
    c_bar: np.ndarray   # masked data, length n-2
    nonce: bytes        # the audit counter k, lambda/8 bytes big-endian

    @property
    def k(self) -> int:
        return int.from_bytes(self.nonce, "big")

    def to_bytes(self) -> bytes:
        return self.c_bar.tobytes() + self.nonce

    @classmethod
    def from_bytes(cls, raw: bytes, n: int, lambda_bits: int) -> "Ciphertext":
        """Parse the wire format; ValueError unless raw has exactly the
        length n and lambda_bits imply."""
        width = n - 2
        if len(raw) != width + lambda_bits // 8:
            raise ValueError(f"ciphertext needs {width + lambda_bits // 8} bytes, "
                             f"got {len(raw)}")
        return cls(np.frombuffer(raw[:width], dtype=np.uint8).copy(), raw[width:])


@dataclass
class Voucher:
    """What the user hands a node for one audit: k and ell symbols."""
    node: int
    k: int
    value: np.ndarray


def _nonce(node: int, k: int, params) -> bytes:
    """The PRF nonce of audit k at a node: u32 BE node id || k as on the wire."""
    if not 1 <= k < 1 << params.lambda_bits:
        raise ValueError(f"audit counter {k} outside 1..2^{params.lambda_bits}-1")
    return struct.pack(">I", node) + k.to_bytes(params.lambda_bits // 8, "big")


def mask_for_nonce(k_e: bytes, file_id: bytes, node: int, k: int, params) -> np.ndarray:
    """The mask m_k of audit k at a node, n-2 symbols."""
    return prf.derive_mask(k_e, file_id, _nonce(node, k, params), params.n - 2)


def voucher_pad(k_v: bytes, file_id: bytes, node: int, k: int, params) -> np.ndarray:
    """The pad s_k that the auditor strips from tau, ell symbols."""
    return prf.derive_pad(k_v, file_id, _nonce(node, k, params), params.ell)


def setup(k_e: bytes, k_v: bytes, file_id: bytes, node: int, k: int,
          params) -> Voucher:
    """Issue voucher k for a node; needs both keys."""
    m_bar = mask_for_nonce(k_e, file_id, node, k, params)
    value = spacemac.mac(k_v, file_id, m_bar, params.ell)
    return Voucher(node, k, value ^ voucher_pad(k_v, file_id, node, k, params))


def enc(k_e: bytes, file_id: bytes, node: int, k: int, e_bar: np.ndarray,
        params) -> Ciphertext:
    """Mask e_bar with the mask of audit k."""
    e_bar = np.asarray(e_bar, dtype=np.uint8)
    if e_bar.shape[0] != params.n - 2:
        raise ValueError("plaintext must have length n-2")
    return Ciphertext(e_bar ^ mask_for_nonce(k_e, file_id, node, k, params),
                      k.to_bytes(params.lambda_bits // 8, "big"))


def dec(k_e: bytes, file_id: bytes, node: int, ct: Ciphertext, params) -> np.ndarray:
    """Strip the mask.  No integrity check: that is the MAC's job."""
    return ct.c_bar ^ mask_for_nonce(k_e, file_id, node, ct.k, params)
