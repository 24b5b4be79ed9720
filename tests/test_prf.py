"""Golden vectors are frozen outputs of an independent plain-Python
reimplementation of the keyed-SHAKE256 keystream, its framing built by hand
(computed once, pinned)."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncaudit import prf

KEY = bytes(range(32))
FID = b"golden-file"

GOLDEN_PROD_F1 = [116, 142, 24, 60, 52, 169, 168, 178]
GOLDEN_PROD_F3 = [30, 78, 99, 236, 208, 107]
GOLDEN_PROD_F4 = [83, 242, 150, 213, 140, 71]
# the nonce of audit k = 7 at node 3 under an 80-bit counter
NONCE_3_7 = struct.pack(">I", 3) + (7).to_bytes(10, "big")
# production outputs past the first 136-byte block SHAKE256 squeezes
GOLDEN_PROD_F3_NODE3_K7_W200 = bytes.fromhex(
    "ea537370674fb85ba06853560a0552ba1d424e535da0b75b9b3f5ef8da7d5921"
    "6da2226463f25c92d214d9dde0176418f991db3fda9088de015d02f2030db1a7"
    "256bb6b63eced66e4113021ce62e110285e7e418c722ddc993fc1061bc183e9c"
    "14583d7ee42bb682d5713ff1ab8d62c88e803993dbdf189e8f57bc10cc53cd36"
    "ead2cc13bb6d03cb01d9b801c0d46d102c6291e591fc5ad93dc9106941638101"
    "de6036640a16c6acfe9640857564c2fdee78535720bffa498e1be59c5f7b7371"
    "fcccfa9c868e418b"
)
GOLDEN_PROD_F1_KEY2_130_139 = [93, 251, 174, 202, 26, 14, 230, 114, 255, 11]
GOLDEN_PROD_F4_NODE3_K7_130_139 = [25, 192, 79, 240, 142, 83, 7, 10, 89, 41]
GOLDEN_PROD_F3_AT = {135: 19, 136: 1, 137: 251, 272: 4}
# the 4094-symbol mask of the largest 80-bit counter at node 4095
GOLDEN_PROD_F3_W4094_SHA256 = (
    "3b4417b9497e73ba33d9b2fd03e9a4c884760f23961fb43140fc99ea80703f43"
)


def test_production_golden_vectors():
    assert prf.derive_r_vector(KEY, FID, 8, 1).tolist() == GOLDEN_PROD_F1
    assert prf.derive_mask(KEY, FID, b"\xaa\xbb", 6).tolist() == GOLDEN_PROD_F3
    assert prf.derive_pad(KEY, FID, b"\xaa\xbb", 6).tolist() == GOLDEN_PROD_F4


def test_production_golden_vectors_across_chunks():
    # ranges that start, end and cross SHAKE256's 136-byte output blocks
    assert prf.derive_mask(KEY, FID, NONCE_3_7, 200).tobytes() \
        == GOLDEN_PROD_F3_NODE3_K7_W200
    assert prf.eval_range(KEY, prf.F1, FID, (2,), 139)[129:].tolist() \
        == GOLDEN_PROD_F1_KEY2_130_139
    assert prf.eval_range(KEY, prf.F4, FID, (), 139, nonce=NONCE_3_7)[129:].tolist() \
        == GOLDEN_PROD_F4_NODE3_K7_130_139
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
@example(prf.F3, 136, 1)   # the first output block exactly, then one symbol of the next
@example(prf.F4, 272, 130)  # ends with a block; the longer range runs into the next
@given(st.sampled_from(sorted(_DOMAINS)), st.integers(1, 400), st.integers(0, 200))
def test_eval_range_is_the_slice_of_a_longer_range(fn, count, after):
    # a range read alone equals the same symbols read at the head of a range
    # that ends `after` symbols later
    head, nonce = _DOMAINS[fn]
    whole = prf.eval_range(KEY, fn, FID, head, count + after, nonce=nonce)
    part = prf.eval_range(KEY, fn, FID, head, count, nonce=nonce)
    assert part.dtype == np.uint8 and part.shape == (count,)
    assert np.array_equal(part, whole[:count])


@settings(max_examples=120, deadline=None)
@example(bytes(64), prf.F1, (1,), b"", 5000)
@example(b"\x00", prf.F3, (), b"\x00", 1)
@given(st.binary(min_size=1, max_size=64), st.sampled_from(sorted(_DOMAINS)),
       st.lists(st.integers(1, 2**32 - 1), max_size=3), st.binary(min_size=1, max_size=20),
       st.integers(1, 5000))
def test_eval_range_is_shake256_of_the_framed_key_and_domain(key, fn, head, nonce, count):
    # symbol i is output byte i - 1 of SHAKE256 over the key, framed by its
    # length in one byte, then the domain
    nonce = nonce if fn in prf.NONCED else b""
    out = prf.eval_range(key, fn, FID, head, count, nonce=nonce)
    want = hashlib.shake_256(bytes([len(key)]) + key
                             + prf.encode_domain(fn, FID, head, nonce)).digest(count)
    assert out.dtype == np.uint8 and out.flags.writeable
    assert out.tobytes() == want


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
