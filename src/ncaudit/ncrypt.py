"""Mask-based encryption that stays verifiable under the homomorphic MAC.

The first n-2 symbols of a response block are hidden by adding a
pseudorandom element of span(p_1..p_{n-1}), where the basis rows come from
F2 under the encryption key.  For each MAC key index j the auxiliary
scalars p_{i,j} = dot(r_j[:n-2], p_i) let the verifier compensate for the
mask: the tag of the masked block is t + p where p = sum beta_i p_{i,j}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import field, prf, spacemac


class SetupError(ValueError):
    pass


@dataclass
class AuxiliaryElements:
    basis: np.ndarray    # (n-1, n-2) mask basis rows
    scalars: np.ndarray  # (n-1, ell) dot products with each r_j prefix

    @property
    def width(self) -> int:
        return self.basis.shape[1]

    def to_bytes(self) -> bytes:
        return self.basis.tobytes() + self.scalars.tobytes()


@dataclass
class Ciphertext:
    c_bar: np.ndarray   # masked data, length n-2
    nonce: bytes        # lambda-bit freshness value
    p: np.ndarray       # ell auxiliary tags

    def to_bytes(self) -> bytes:
        return self.c_bar.tobytes() + self.nonce + self.p.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, n: int, ell: int, lambda_bits: int) -> "Ciphertext":
        """Parse the wire format; ValueError unless raw has exactly the
        length n, ell and lambda_bits imply."""
        width = n - 2
        nb = lambda_bits // 8
        if len(raw) != width + nb + ell:
            raise ValueError(f"ciphertext needs {width + nb + ell} bytes, got {len(raw)}")
        c_bar = np.frombuffer(raw[:width], dtype=np.uint8).copy()
        nonce = raw[width: width + nb]
        p = np.frombuffer(raw[width + nb: width + nb + ell], dtype=np.uint8).copy()
        return cls(c_bar, nonce, p)


@dataclass
class MaskBundle:
    """A nonce with its expanded mask, precomputed ahead of a challenge."""
    nonce: bytes
    m_bar: np.ndarray
    p: np.ndarray


def setup(k_e: bytes, k_v: bytes, file_id: bytes, params) -> AuxiliaryElements:
    """Derive the mask basis and the per-key-index auxiliary scalars."""
    n, ell = params.n, params.ell
    width = n - 2
    basis = np.empty((n - 1, width), dtype=np.uint8)
    for i in range(1, n):
        basis[i - 1] = prf.derive_mask_row(k_e, file_id, i, width)
    scalars = np.empty((n - 1, ell), dtype=np.uint8)
    for j in range(ell):
        r_bar = spacemac.r_vector(k_v, file_id, width, j + 1)
        if not r_bar.any():
            raise SetupError(f"degenerate r vector for key index {j + 1}")
        scalars[:, j] = field.matvec(basis, r_bar)
    return AuxiliaryElements(basis, scalars)


def mask_for_nonce(k_e: bytes, file_id: bytes, nonce: bytes,
                   aux: AuxiliaryElements) -> MaskBundle:
    """Expand a nonce into its masking vector and auxiliary tags."""
    betas = prf.derive_betas(k_e, file_id, nonce, aux.basis.shape[0])
    m_bar = field.combine_rows(betas, aux.basis)
    p = field.combine_rows(betas, aux.scalars)
    return MaskBundle(nonce, m_bar, p)


def precompute_mask(k_e: bytes, file_id: bytes, aux: AuxiliaryElements,
                    rng, lambda_bits: int = 128) -> MaskBundle:
    nonce = rng.bytes(lambda_bits // 8)
    return mask_for_nonce(k_e, file_id, nonce, aux)


def enc(k_e: bytes, file_id: bytes, e_bar: np.ndarray, aux: AuxiliaryElements,
        rng, lambda_bits: int = 128, mask: MaskBundle | None = None) -> Ciphertext:
    """Mask e_bar with a fresh (or precomputed) span element."""
    e_bar = np.asarray(e_bar, dtype=np.uint8)
    if e_bar.shape[0] != aux.width:
        raise ValueError("plaintext must have length n-2")
    if mask is None:
        mask = precompute_mask(k_e, file_id, aux, rng, lambda_bits)
    return Ciphertext(e_bar ^ mask.m_bar, mask.nonce, mask.p.copy())


def dec(k_e: bytes, file_id: bytes, ct: Ciphertext, aux: AuxiliaryElements) -> np.ndarray:
    """Strip the mask.  No integrity check: that is the MAC's job."""
    mask = mask_for_nonce(k_e, file_id, ct.nonce, aux)
    return ct.c_bar ^ mask.m_bar
