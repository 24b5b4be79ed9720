"""The three keyed pseudorandom functions used by the protocol.

F1 derives MAC vectors, F2 the mask basis, F3 the masking coefficients.
Domains are separated by an injective byte encoding:

    function id (1 byte)
    || u32 BE length of file id || file id
    || [u32 BE length of nonce || nonce]      (F3 only)
    || u32 BE per integer index

The keystream is keyed BLAKE2b in counter mode over the trailing index:
symbol i is byte i mod 64 of the digest for chunk i // 64, and a batch
hashes each chunk it needs once, so bulk vector derivation needs one hash
per 64 symbols.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

F1 = 1
F2 = 2
F3 = 3


def encode_domain(fn: int, file_id: bytes, indices, nonce: bytes = b"") -> bytes:
    """Injective encoding of a PRF domain point."""
    if fn not in (F1, F2, F3):
        raise ValueError(f"unknown PRF function id {fn}")
    if fn == F3 and not nonce:
        raise ValueError("F3 requires a nonce")
    if fn != F3 and nonce:
        raise ValueError("only F3 carries a nonce")
    if not indices:
        raise ValueError("at least one index required")
    for i in indices:
        if i < 1:
            raise ValueError(f"index {i} out of range (must be >= 1)")
    return _prefix(fn, file_id, indices, nonce)


def _prefix(fn: int, file_id: bytes, indices, nonce: bytes) -> bytes:
    """The encoding of the domain point up to and including `indices`."""
    parts = [bytes([fn]), struct.pack(">I", len(file_id)), file_id]
    if fn == F3:
        parts += [struct.pack(">I", len(nonce)), nonce]
    parts += [struct.pack(">I", i) for i in indices]
    return b"".join(parts)


def _batch(key: bytes, prefix: bytes, last: np.ndarray) -> np.ndarray:
    """Symbols for many values of the trailing u32 index."""
    chunks, inverse = np.unique(last // 64, return_inverse=True)
    digests = b"".join(
        hashlib.blake2b(prefix + struct.pack(">I", int(c)), key=key[:64],
                        digest_size=64).digest()
        for c in chunks)
    return np.frombuffer(digests, dtype=np.uint8).reshape(-1, 64)[inverse, last % 64]


# -- public surface ---------------------------------------------------------

def prf_eval(key: bytes, fn: int, file_id: bytes, indices, nonce: bytes = b"") -> int:
    """One field symbol, deterministic in (key, domain)."""
    encode_domain(fn, file_id, indices, nonce)  # range/shape validation
    prefix = _prefix(fn, file_id, indices[:-1], nonce)
    return int(_batch(key, prefix, np.array([indices[-1]], dtype=np.uint32))[0])


def eval_range(key: bytes, fn: int, file_id: bytes, head_indices, count: int,
               nonce: bytes = b"", start: int = 1) -> np.ndarray:
    """PRF outputs for trailing indices start..start+count-1, as a vector."""
    if count < 1:
        raise ValueError("count must be >= 1")
    last = np.arange(start, start + count, dtype=np.uint32)
    return _batch(key, _prefix(fn, file_id, head_indices, nonce), last)


def derive_r_vector(k_v: bytes, file_id: bytes, length: int, key_index: int = 1) -> np.ndarray:
    """The F1 vector r for one key index; prefix-stable in length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if key_index < 1:
        raise ValueError("key_index must be >= 1")
    return eval_range(k_v, F1, file_id, (key_index,), length)


def derive_mask_row(k_e: bytes, file_id: bytes, i: int, width: int) -> np.ndarray:
    """F2 row i of the mask basis, width n-2."""
    if i < 1:
        raise ValueError("basis row index must be >= 1")
    return eval_range(k_e, F2, file_id, (i,), width)


def derive_betas(k_e: bytes, file_id: bytes, nonce: bytes, count: int) -> np.ndarray:
    """F3 masking coefficients beta_1..beta_count for one nonce."""
    return eval_range(k_e, F3, file_id, (), count, nonce=nonce)
