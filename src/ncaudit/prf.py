"""The three keyed pseudorandom functions used by the protocol.

F1 (under k_v) derives the MAC vectors r_j, F3 (under k_e) the mask of one
audit and F4 (under k_v) the one-time pad of that audit's voucher; an
audit's nonce names the node and the audit counter k.  Function id 2 is
not used.  Domains are separated by an injective byte encoding:

    function id (1 byte)
    || u32 BE length of file id || file id
    || [u32 BE length of nonce || nonce]      (F3 and F4 only)
    || u32 BE per head index

The keystream is SHAKE256 keyed by prefix, a keyed sponge and so a PRF
(as KMAC, NIST SP 800-185):

    u8 length of key || key || encoded domain

absorbed once and squeezed for exactly the symbols asked, symbol i being
output byte i - 1, so a range is prefix-stable in its length.  A call asks
for indices 1..count of one domain.  The key is used whole and its length
is framed in one byte, so keys are at most 64 bytes (lambda up to 512
bits): a longer one is refused with ValueError.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

F1, F3, F4 = 1, 3, 4
NONCED = (F3, F4)
MAX_KEY_BYTES = 64


def encode_domain(fn: int, file_id: bytes, indices, nonce: bytes = b"") -> bytes:
    """Injective encoding of a PRF domain point, or of its leading indices;
    ValueError on an unknown function, a nonce missing for F3 or F4 or given
    to F1, or an index below 1."""
    if fn not in (F1, *NONCED):
        raise ValueError(f"unknown PRF function id {fn}")
    if (fn in NONCED) != bool(nonce):
        raise ValueError("F3 and F4 need a nonce, and only they carry one")
    if any(i < 1 for i in indices):
        raise ValueError("PRF indices must be >= 1")
    parts = [bytes([fn]), struct.pack(">I", len(file_id)), file_id]
    if fn in NONCED:
        parts += [struct.pack(">I", len(nonce)), nonce]
    parts += [struct.pack(">I", i) for i in indices]
    return b"".join(parts)


# -- public surface ---------------------------------------------------------

def eval_range(key: bytes, fn: int, file_id: bytes, head_indices, count: int,
               nonce: bytes = b"") -> np.ndarray:
    """PRF outputs for indices 1..count, as a writable vector."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(key) > MAX_KEY_BYTES:
        raise ValueError(f"PRF keys are at most {MAX_KEY_BYTES} bytes")
    sponge = hashlib.shake_256(bytes([len(key)]) + key
                               + encode_domain(fn, file_id, head_indices, nonce))
    return np.frombuffer(bytearray(sponge.digest(count)), dtype=np.uint8)


def derive_r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """The F1 vector r for one key index; prefix-stable in length."""
    return eval_range(k_v, F1, file_id, (key_index,), length)


def derive_mask(k_e: bytes, file_id: bytes, nonce: bytes, width: int) -> np.ndarray:
    """The F3 mask of one audit, width n-2."""
    return eval_range(k_e, F3, file_id, (), width, nonce=nonce)


def derive_pad(k_v: bytes, file_id: bytes, nonce: bytes, ell: int) -> np.ndarray:
    """The F4 one-time pad of one audit's voucher, ell symbols."""
    return eval_range(k_v, F4, file_id, (), ell, nonce=nonce)
