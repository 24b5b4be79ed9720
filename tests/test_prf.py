"""Golden vectors are frozen outputs of an independent plain-Python
reimplementation of the keyed-BLAKE2b keystream (computed once, pinned)."""

import hashlib

import numpy as np
import pytest

from ncaudit import prf

KEY = bytes(range(32))
FID = b"golden-file"

GOLDEN_PROD_F1 = [123, 219, 144, 50, 28, 37, 219, 157]
GOLDEN_PROD_F2 = [59, 133, 8, 128, 219, 88]
GOLDEN_PROD_F3 = [168, 99, 186, 52, 240, 119]
# production outputs past the first 64-byte hash chunk
GOLDEN_PROD_F2_ROW3_W200 = bytes.fromhex(
    "3b850880db581c228bedaeb26c508e992ce5aca0d19448c5b88e79358dee9ecb"
    "738dad9a3ab61d0d0784a63aece28c36b264edf327a2784c084ebfa2e344aa01"
    "16e50f91b417ca91b48833bafc58342f9e2bc3e8c3d95e86eb120ed9e2fd27da"
    "30125f1b80ad9823fa317b93314b0233ade2b225a9d209516d666e3d6c0c5648"
    "cf579425e04e8997a44e394e0cae1ac8a0e85b9b01a1be9fac146dafc4831a91"
    "fb1c9826fcf447bd25018806c07c572698051de2e1af094fcedbe82ad97396a7"
    "a8f8cbcfd5328635"
)
GOLDEN_PROD_F1_KEY2_60_69 = [162, 146, 255, 102, 34, 35, 55, 236, 212, 32]
GOLDEN_PROD_F3_AT = {63: 222, 64: 80, 65: 196, 128: 205}
GOLDEN_PROD_F2_ROW4095_SHA256 = (
    "7025c521b024e11040125256051db1740e81b010f1efe29a9ab2f45191e1d18c"
)


def test_production_golden_vectors():
    assert prf.derive_r_vector(KEY, FID, 8, 1).tolist() == GOLDEN_PROD_F1
    assert prf.derive_mask_row(KEY, FID, 3, 6).tolist() == GOLDEN_PROD_F2
    assert prf.derive_betas(KEY, FID, b"\xaa\xbb", 6).tolist() == GOLDEN_PROD_F3


def test_production_golden_vectors_across_chunks():
    # ranges that start, end and cross 64-symbol hash chunk boundaries
    assert prf.derive_mask_row(KEY, FID, 3, 200).tobytes() == GOLDEN_PROD_F2_ROW3_W200
    assert prf.eval_range(KEY, prf.F1, FID, (2,), 10, start=60).tolist() \
        == GOLDEN_PROD_F1_KEY2_60_69
    for i, want in GOLDEN_PROD_F3_AT.items():
        assert prf.prf_eval(KEY, prf.F3, FID, (i,), nonce=b"\xaa\xbb") == want
    row = prf.derive_mask_row(KEY, FID, 4095, 4094)
    assert hashlib.sha256(row.tobytes()).hexdigest() == GOLDEN_PROD_F2_ROW4095_SHA256


def test_prefix_stability():
    # longer derivations extend shorter ones symbol-for-symbol
    short = prf.derive_r_vector(KEY, FID, 70, 2)
    long = prf.derive_r_vector(KEY, FID, 200, 2)
    assert np.array_equal(long[:70], short)


def test_function_domains_disjoint():
    a = prf.derive_r_vector(KEY, FID, 16, 1)
    b = prf.derive_mask_row(KEY, FID, 1, 16)
    c = prf.derive_betas(KEY, FID, b"", 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_index_domains_disjoint():
    assert not np.array_equal(prf.derive_r_vector(KEY, FID, 32, 1),
                              prf.derive_r_vector(KEY, FID, 32, 2))


def test_file_id_separates():
    assert not np.array_equal(prf.derive_r_vector(KEY, FID, 32, 1),
                              prf.derive_r_vector(KEY, b"other", 32, 1))


def test_nonce_separates():
    assert not np.array_equal(prf.derive_betas(KEY, FID, b"\x01", 32),
                              prf.derive_betas(KEY, FID, b"\x02", 32))


def test_single_eval_matches_batch():
    batch = prf.derive_betas(KEY, FID, b"\xee", 10)
    for i in range(10):
        one = prf.prf_eval(KEY, prf.F3, FID, (i + 1,), nonce=b"\xee")
        assert one == batch[i]


def test_nonce_required_only_for_f3():
    with pytest.raises(ValueError):
        prf.encode_domain(prf.F1, FID, (1, 1), nonce=b"x")
    with pytest.raises(ValueError):
        prf.encode_domain(prf.F3, FID, (1,), nonce=None)


def test_output_distribution_sanity():
    # one-sample smoke check that bytes spread over the full range
    out = prf.derive_r_vector(KEY, FID, 4096, 1)
    counts = np.bincount(out, minlength=256)
    assert counts.min() > 0
    assert counts.max() < 4096 // 256 * 4
