"""Golden vectors are frozen outputs of an independent plain-Python
reimplementation of the keyed-BLAKE2b keystream (computed once, pinned)."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncaudit import prf

KEY = bytes(range(32))
FID = b"golden-file"

GOLDEN_PROD_F1 = [123, 219, 144, 50, 28, 37, 219, 157]
GOLDEN_PROD_F3 = [168, 99, 186, 52, 240, 119]
GOLDEN_PROD_F4 = [166, 128, 133, 47, 7, 80]
# the nonce of audit k = 7 at node 3 under an 80-bit counter
NONCE_3_7 = struct.pack(">I", 3) + (7).to_bytes(10, "big")
# production outputs past the first 64-byte hash chunk
GOLDEN_PROD_F3_NODE3_K7_W200 = bytes.fromhex(
    "01183ed7d6ba83f83e6995ca5ea6152e3cb4987f4fe57a22557403294a49c787"
    "4002535d9d6faa9e4212a0e93e060e8f88b964b6acced53d661d64b82af2fda7"
    "1fbaf0a1da22173929d46603c25fd6bf6ce956eed72cd5141c67665740362706"
    "dfb9ef05aab80ec488fe652137a207d714d22e9e5fceead585f1fd2be8c0532b"
    "8ff0a1c867f03b0413019ddfdd71d0f9cf9b9bfd31b234a9f3ac32b548ea1e9a"
    "52296ff9572e9e3d5a1886ae3e0956b648ebdb673d1caaaaa35f769399b7eb01"
    "f197bce44f6f2c2a"
)
GOLDEN_PROD_F1_KEY2_60_69 = [162, 146, 255, 102, 34, 35, 55, 236, 212, 32]
GOLDEN_PROD_F4_NODE3_K7_60_69 = [198, 37, 210, 223, 178, 113, 56, 172, 216, 222]
GOLDEN_PROD_F3_AT = {63: 222, 64: 80, 65: 196, 128: 205}
# the 4094-symbol mask of the largest 80-bit counter at node 4095
GOLDEN_PROD_F3_W4094_SHA256 = (
    "f9d88e26fe17567444768013be60d627cc38b2c818753e9db415ab70d7efaaec"
)


def test_production_golden_vectors():
    assert prf.derive_r_vector(KEY, FID, 8, 1).tolist() == GOLDEN_PROD_F1
    assert prf.derive_mask(KEY, FID, b"\xaa\xbb", 6).tolist() == GOLDEN_PROD_F3
    assert prf.derive_pad(KEY, FID, b"\xaa\xbb", 6).tolist() == GOLDEN_PROD_F4


def test_production_golden_vectors_across_chunks():
    # ranges that start, end and cross 64-symbol hash chunk boundaries
    assert prf.derive_mask(KEY, FID, NONCE_3_7, 200).tobytes() \
        == GOLDEN_PROD_F3_NODE3_K7_W200
    assert prf.eval_range(KEY, prf.F1, FID, (2,), 69)[59:].tolist() \
        == GOLDEN_PROD_F1_KEY2_60_69
    assert prf.eval_range(KEY, prf.F4, FID, (), 69, nonce=NONCE_3_7)[59:].tolist() \
        == GOLDEN_PROD_F4_NODE3_K7_60_69
    for i, want in GOLDEN_PROD_F3_AT.items():
        assert prf.eval_range(KEY, prf.F3, FID, (), i, nonce=b"\xaa\xbb")[-1] == want
    nonce = struct.pack(">I", 4095) + (2**80 - 1).to_bytes(10, "big")
    row = prf.derive_mask(KEY, FID, nonce, 4094)
    assert hashlib.sha256(row.tobytes()).hexdigest() == GOLDEN_PROD_F3_W4094_SHA256


def test_prefix_stability():
    # longer derivations extend shorter ones symbol-for-symbol
    short = prf.derive_r_vector(KEY, FID, 70, 2)
    long = prf.derive_r_vector(KEY, FID, 200, 2)
    assert np.array_equal(long[:70], short)


def test_function_domains_disjoint():
    # F3 and F4 under one key and nonce: the mask and the pad of an audit
    a = prf.derive_r_vector(KEY, FID, 16, 1)
    b = prf.derive_mask(KEY, FID, NONCE_3_7, 16)
    c = prf.derive_pad(KEY, FID, NONCE_3_7, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_key_index_domains_disjoint():
    assert not np.array_equal(prf.derive_r_vector(KEY, FID, 32, 1),
                              prf.derive_r_vector(KEY, FID, 32, 2))


def test_file_id_separates():
    assert not np.array_equal(prf.derive_r_vector(KEY, FID, 32, 1),
                              prf.derive_r_vector(KEY, b"other", 32, 1))


def test_nonce_separates():
    # the node id and the counter k both sit in the nonce
    other_node = struct.pack(">I", 4) + (7).to_bytes(10, "big")
    other_k = struct.pack(">I", 3) + (8).to_bytes(10, "big")
    for fn in (prf.derive_mask, prf.derive_pad):
        base = fn(KEY, FID, NONCE_3_7, 32)
        assert not np.array_equal(base, fn(KEY, FID, other_node, 32))
        assert not np.array_equal(base, fn(KEY, FID, other_k, 32))


# head indices and nonce for one domain of each function
_DOMAINS = {prf.F1: ((2,), b""), prf.F3: ((), NONCE_3_7), prf.F4: ((), NONCE_3_7)}


@settings(max_examples=80, deadline=None)
@example(prf.F3, 63, 1)   # the first chunk exactly, then one symbol of the next
@example(prf.F4, 127, 130)  # ends with a chunk; the longer range runs into three more
@given(st.sampled_from(sorted(_DOMAINS)), st.integers(1, 400), st.integers(0, 200))
def test_eval_range_is_the_slice_of_a_longer_range(fn, count, after):
    # a range read alone equals the same symbols read at the head of a range
    # that ends `after` symbols later
    head, nonce = _DOMAINS[fn]
    whole = prf.eval_range(KEY, fn, FID, head, count + after, nonce=nonce)
    part = prf.eval_range(KEY, fn, FID, head, count, nonce=nonce)
    assert part.dtype == np.uint8 and part.shape == (count,)
    assert np.array_equal(part, whole[:count])


def test_single_eval_matches_batch():
    # symbol i of a range is the last symbol of the range 1..i
    batch = prf.derive_mask(KEY, FID, b"\xee", 10)
    for i in range(10):
        assert prf.eval_range(KEY, prf.F3, FID, (), i + 1, nonce=b"\xee")[-1] == batch[i]


def test_every_key_byte_counts_and_longer_keys_are_refused():
    # a 128-byte key was cut to its first 64 bytes, so two keys differing
    # only past them gave one mask
    key = bytes(range(64))
    for i in (0, 63):
        other = bytearray(key)
        other[i] ^= 1
        assert not np.array_equal(prf.derive_mask(key, FID, b"\x01", 32),
                                  prf.derive_mask(bytes(other), FID, b"\x01", 32))
    for long_key in (key + b"\x00", key * 2):
        with pytest.raises(ValueError):
            prf.derive_mask(long_key, FID, b"\x01", 32)


def test_nonce_required_only_for_f3_and_f4():
    with pytest.raises(ValueError):
        prf.encode_domain(prf.F1, FID, (1, 1), nonce=b"x")
    for fn in (prf.F3, prf.F4):
        with pytest.raises(ValueError):
            prf.encode_domain(fn, FID, (1,), nonce=None)
    with pytest.raises(ValueError):
        prf.encode_domain(2, FID, (1,))  # no function has id 2


def test_output_distribution_sanity():
    # one-sample smoke check that bytes spread over the full range
    out = prf.derive_r_vector(KEY, FID, 4096, 1)
    counts = np.bincount(out, minlength=256)
    assert counts.min() > 0
    assert counts.max() < 4096 // 256 * 4
