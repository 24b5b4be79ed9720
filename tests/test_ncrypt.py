import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncaudit import field, ncrypt, prf, spacemac
from ncaudit.audit import Proof
from ncaudit.blocks import SystemParams

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
K_E = bytes(range(10, 26))
K_V = bytes(range(50, 66))
FID = b"enc-file"
NODE = 2


def _scalar_dot(a, b):
    acc = 0
    for x, y in zip(a.tolist(), b.tolist()):
        acc ^= field.mul_shift_reduce(x, y)
    return acc


def test_setup_shapes():
    # setup issues one voucher: ell symbols for one node and counter
    v = ncrypt.setup(K_E, K_V, FID, NODE, 5, PARAMS)
    assert (v.node, v.k) == (NODE, 5)
    assert v.value.shape == (2,) and v.value.dtype == np.uint8
    with pytest.raises(ValueError):
        ncrypt.setup(K_E, K_V, FID, NODE, 0, PARAMS)       # counters start at 1
    with pytest.raises(ValueError):
        ncrypt.setup(K_E, K_V, FID, NODE, 2**80, PARAMS)   # past lambda bits


def test_scalars_are_keystream_dots():
    # voucher symbol j is the mask dotted with the keystream prefix r_j,
    # plus the F4 pad symbol j
    for k in (1, 2, 300):
        v = ncrypt.setup(K_E, K_V, FID, NODE, k, PARAMS)
        mask = ncrypt.mask_for_nonce(K_E, FID, NODE, k, PARAMS)
        pad = ncrypt.voucher_pad(K_V, FID, NODE, k, PARAMS)
        for j in (1, 2):
            r = spacemac.r_vector(K_V, FID, 14, j)
            assert v.value[j - 1] == _scalar_dot(mask, r) ^ pad[j - 1]


def test_roundtrip(rng):
    for k in range(1, 51):
        e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
        c_bar = ncrypt.enc(K_E, FID, NODE, k, e_bar, PARAMS)
        assert np.array_equal(ncrypt.dec(K_E, FID, NODE, k, c_bar, PARAMS), e_bar)


def test_mask_is_the_f3_keystream_of_node_and_counter():
    # m_k = F3(k_e, file, node || k), n-2 symbols, derived directly
    nonce = struct.pack(">I", NODE) + (9).to_bytes(10, "big")
    assert np.array_equal(ncrypt.mask_for_nonce(K_E, FID, NODE, 9, PARAMS),
                          prf.derive_mask(K_E, FID, nonce, 14))
    assert np.array_equal(ncrypt.voucher_pad(K_V, FID, NODE, 9, PARAMS),
                          prf.derive_pad(K_V, FID, nonce, 2))


def test_fresh_nonce_changes_ciphertext(rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    a = ncrypt.enc(K_E, FID, NODE, 1, e_bar, PARAMS)
    b = ncrypt.enc(K_E, FID, NODE, 2, e_bar, PARAMS)
    c = ncrypt.enc(K_E, FID, NODE + 1, 1, e_bar, PARAMS)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)  # the node id is in the domain


def test_mask_tag_identity():
    # the voucher minus its pad is the mask's tag under each r_j
    for k in range(1, 101):
        v = ncrypt.setup(K_E, K_V, FID, NODE, k, PARAMS)
        mask = ncrypt.mask_for_nonce(K_E, FID, NODE, k, PARAMS)
        unpadded = v.value ^ ncrypt.voucher_pad(K_V, FID, NODE, k, PARAMS)
        assert np.array_equal(unpadded, spacemac.mac(K_V, FID, mask, 2))


def test_precomputed_mask_used(rng):
    # enc applies exactly the mask that mask_for_nonce derives ahead of time
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    mask = ncrypt.mask_for_nonce(K_E, FID, NODE, 4, PARAMS)
    assert np.array_equal(ncrypt.enc(K_E, FID, NODE, 4, e_bar, PARAMS), e_bar ^ mask)


def _proof(rng, k):
    """A proof of k around masked random data, with its plain data."""
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    proof = Proof(ncrypt.enc(K_E, FID, NODE, k, e_bar, PARAMS), k.to_bytes(10, "big"),
                  rng.integers(0, 256, 2, dtype=np.uint8),
                  rng.integers(0, 256, 2, dtype=np.uint8))
    return proof, e_bar


def test_enc_dec_roundtrip_through_proof_bytes(rng):
    proof, e_bar = _proof(rng, 77)
    raw = proof.to_bytes()
    assert len(raw) == 14 + 10 + 2 + 2  # data, counter, padding symbols, tag
    back = Proof.from_bytes(raw, PARAMS)
    assert back.k == 77 and back.to_bytes() == raw
    for field_name in ("c_bar", "pad", "tag"):
        assert np.array_equal(getattr(back, field_name), getattr(proof, field_name))
    assert np.array_equal(ncrypt.dec(K_E, FID, NODE, back.k, back.c_bar, PARAMS), e_bar)


def test_proof_rejects_truncated_and_trailing(rng):
    proof, e_bar = _proof(rng, 1)
    raw = proof.to_bytes()
    for bad in (raw[:-1], b"", raw + b"\x00"):
        with pytest.raises(ValueError):
            Proof.from_bytes(bad, PARAMS)
    # enc and dec take exactly n-2 symbols
    for data in (e_bar[:-1], np.append(e_bar, 0)):
        with pytest.raises(ValueError):
            ncrypt.enc(K_E, FID, NODE, 1, data, PARAMS)
        with pytest.raises(ValueError):
            ncrypt.dec(K_E, FID, NODE, 1, data, PARAMS)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=60), st.binary(min_size=28, max_size=28)))
def test_ciphertext_parser_raises_only_value_error(raw):
    # 28 bytes is a proof's length at PARAMS: c_bar || k || pad || tag
    try:
        proof = Proof.from_bytes(raw, PARAMS)
    except ValueError:
        return
    assert proof.to_bytes() == raw  # anything accepted round-trips
    if proof.k == 0:  # counters start at 1, so dec refuses this one
        with pytest.raises(ValueError):
            ncrypt.dec(K_E, FID, NODE, proof.k, proof.c_bar, PARAMS)
        return
    # the parsed c_bar and counter k decrypt and re-encrypt to themselves
    e_bar = ncrypt.dec(K_E, FID, NODE, proof.k, proof.c_bar, PARAMS)
    assert np.array_equal(ncrypt.enc(K_E, FID, NODE, proof.k, e_bar, PARAMS), proof.c_bar)
