import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import field, ncrypt, spacemac
from ncaudit.blocks import SystemParams

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
K_E = bytes(range(10, 26))
K_V = bytes(range(50, 66))
FID = b"enc-file"


@pytest.fixture
def aux():
    return ncrypt.setup(K_E, K_V, FID, PARAMS)


def test_setup_shapes(aux):
    assert aux.basis.shape == (15, 14)   # n-1 rows of width n-2
    assert aux.scalars.shape == (15, 2)  # one column per key index


def test_scalars_are_keystream_dots(aux):
    # each auxiliary scalar is the basis row dotted with the keystream prefix
    for j in (1, 2):
        r = spacemac.r_vector(K_V, FID, 14, j)
        for i in range(15):
            expect = 0
            for x, y in zip(aux.basis[i].tolist(), r.tolist()):
                expect ^= field.mul(x, y)
            assert aux.scalars[i, j - 1] == expect


def test_roundtrip(aux, rng):
    for _ in range(50):
        e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
        ct = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits)
        assert np.array_equal(ncrypt.dec(K_E, FID, ct, aux), e_bar)


def test_mask_lies_in_basis_span(aux, rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    ct = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits)
    mask = ct.c_bar ^ e_bar
    stacked = np.concatenate([aux.basis, mask[None, :]], axis=0)
    assert field.matrix_rank(stacked) == field.matrix_rank(aux.basis)


def test_fresh_nonce_changes_ciphertext(aux, rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    a = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits)
    b = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits)
    assert a.nonce != b.nonce
    assert not np.array_equal(a.c_bar, b.c_bar)


def test_mask_tag_identity(aux, rng):
    # the auxiliary tag p equals the mask dotted with each keystream prefix
    for _ in range(100):
        bundle = ncrypt.precompute_mask(K_E, FID, aux, rng, PARAMS.lambda_bits)
        for j in (1, 2):
            r = spacemac.r_vector(K_V, FID, 14, j)
            assert bundle.p[j - 1] == field.matvec(r[None, :], bundle.m_bar)[0]


def test_precomputed_mask_used(aux, rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    bundle = ncrypt.precompute_mask(K_E, FID, aux, rng, PARAMS.lambda_bits)
    ct = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits, mask=bundle)
    assert ct.nonce == bundle.nonce
    assert np.array_equal(ct.c_bar, e_bar ^ bundle.m_bar)


def test_ciphertext_wire_roundtrip(aux, rng):
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    ct = ncrypt.enc(K_E, FID, e_bar, aux, rng, PARAMS.lambda_bits)
    raw = ct.to_bytes()
    assert len(raw) == 14 + 10 + 2  # data, nonce, auxiliary tags
    back = ncrypt.Ciphertext.from_bytes(raw, 16, 2, 80)
    assert np.array_equal(back.c_bar, ct.c_bar)
    assert back.nonce == ct.nonce
    assert np.array_equal(back.p, ct.p)


def test_ciphertext_rejects_truncated_and_trailing(aux, rng):
    ct = ncrypt.enc(K_E, FID, rng.integers(0, 256, 14, dtype=np.uint8), aux, rng,
                    PARAMS.lambda_bits)
    raw = ct.to_bytes()
    for bad in (raw[:-1], b"", raw + b"\x00"):
        with pytest.raises(ValueError):
            ncrypt.Ciphertext.from_bytes(bad, 16, 2, 80)


@settings(max_examples=300)
@given(st.binary(max_size=60))
def test_ciphertext_parser_raises_only_value_error(raw):
    try:
        ct = ncrypt.Ciphertext.from_bytes(raw, 16, 2, 80)
    except ValueError:
        return
    assert ct.to_bytes() == raw  # anything accepted round-trips
