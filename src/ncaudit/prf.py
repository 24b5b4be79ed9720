"""The three keyed pseudorandom functions used by the protocol.

F1 (under k_v) derives the MAC vectors r_j, F3 (under k_e) the mask of one
audit and F4 (under k_v) the one-time pad of that audit's voucher; an
audit's nonce names the node and the audit counter k.  Function id 2 is
not used.  Domains are separated by an injective byte encoding:

    function id (1 byte)
    || u32 BE length of file id || file id
    || [u32 BE length of nonce || nonce]      (F3 and F4 only)
    || u32 BE per integer index

The keystream is keyed BLAKE2b in counter mode over the trailing index:
symbol i is byte i mod 64 of the digest for chunk i // 64.  A call asks for
indices 1..count: it absorbs the key and the domain prefix into one hash
state once, then hashes each chunk the range touches from a copy of that
state, so bulk vector derivation needs one hash per 64 symbols and sets up
one keyed state per call.  The key is used whole, so keys are at most 64
bytes (lambda up to 512 bits): BLAKE2b refuses a longer one with
ValueError rather than any of its bytes going unused.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

F1, F3, F4 = 1, 3, 4
NONCED = (F3, F4)


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
    """PRF outputs for trailing indices 1..count, as a vector."""
    if count < 1:
        raise ValueError("count must be >= 1")
    state = hashlib.blake2b(encode_domain(fn, file_id, head_indices, nonce),
                            key=key, digest_size=64)
    digests = []
    for c in range(count // 64 + 1):
        h = state.copy()
        h.update(struct.pack(">I", c))
        digests.append(h.digest())
    return np.frombuffer(bytearray().join(digests), dtype=np.uint8, count=count,
                         offset=1)


def derive_r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """The F1 vector r for one key index; prefix-stable in length."""
    return eval_range(k_v, F1, file_id, (key_index,), length)


def derive_mask(k_e: bytes, file_id: bytes, nonce: bytes, width: int) -> np.ndarray:
    """The F3 mask of one audit, width n-2."""
    return eval_range(k_e, F3, file_id, (), width, nonce=nonce)


def derive_pad(k_v: bytes, file_id: bytes, nonce: bytes, ell: int) -> np.ndarray:
    """The F4 one-time pad of one audit's voucher, ell symbols."""
    return eval_range(k_v, F4, file_id, (), ell, nonce=nonce)
