import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import field, ncrypt, prf, spacemac
from ncaudit.blocks import SystemParams

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
K_E = bytes(range(10, 26))
K_V = bytes(range(50, 66))
FID = b"enc-file"
NODE = 2


def _scalar_dot(a, b):
    acc = 0
    for x, y in zip(a.tolist(), b.tolist()):
        acc ^= field.mul(x, y)
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
        ct = ncrypt.enc(K_E, FID, NODE, k, e_bar, PARAMS)
        assert ct.k == k
        assert np.array_equal(ncrypt.dec(K_E, FID, NODE, ct, PARAMS), e_bar)


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
    assert a.nonce != b.nonce
    assert not np.array_equal(a.c_bar, b.c_bar)
    assert not np.array_equal(a.c_bar, c.c_bar)  # the node id is in the domain


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
    ct = ncrypt.enc(K_E, FID, NODE, 4, e_bar, PARAMS)
    assert ct.nonce == (4).to_bytes(10, "big")
    assert np.array_equal(ct.c_bar, e_bar ^ mask)


def test_ciphertext_wire_roundtrip(rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    ct = ncrypt.enc(K_E, FID, NODE, 77, e_bar, PARAMS)
    raw = ct.to_bytes()
    assert len(raw) == 14 + 10  # data, counter
    back = ncrypt.Ciphertext.from_bytes(raw, 16, 80)
    assert np.array_equal(back.c_bar, ct.c_bar)
    assert back.nonce == ct.nonce and back.k == 77


def test_ciphertext_rejects_truncated_and_trailing(rng):
    ct = ncrypt.enc(K_E, FID, NODE, 1, rng.integers(0, 256, 14, dtype=np.uint8),
                    PARAMS)
    raw = ct.to_bytes()
    for bad in (raw[:-1], b"", raw + b"\x00"):
        with pytest.raises(ValueError):
            ncrypt.Ciphertext.from_bytes(bad, 16, 80)


@settings(max_examples=300)
@given(st.binary(max_size=60))
def test_ciphertext_parser_raises_only_value_error(raw):
    try:
        ct = ncrypt.Ciphertext.from_bytes(raw, 16, 80)
    except ValueError:
        return
    assert ct.to_bytes() == raw  # anything accepted round-trips
