from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import field, prf, spacemac
from ncaudit.blocks import SystemParams
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2)
KEY = bytes(range(16))
FID = b"mac-file"


def _random_block(rng):
    return rng.integers(0, 256, 20, dtype=np.uint8)


def _verifies(block, tags):
    # verification is recomputing the tags
    return np.array_equal(spacemac.mac(KEY, FID, block, ell=len(tags)), tags)


def test_tag_is_keystream_dot(rng):
    b = _random_block(rng)
    tags = spacemac.mac(KEY, FID, b, ell=2)
    for j in (1, 2):
        r = spacemac.r_vector(KEY, FID, 20, j)
        expect = 0
        for x, y in zip(b.tolist(), r.tolist()):
            expect ^= field.mul_shift_reduce(x, y)
        assert tags[j - 1] == expect


def test_verify_accepts_and_rejects(rng):
    b = _random_block(rng)
    tags = spacemac.mac(KEY, FID, b, ell=2)
    assert _verifies(b, tags)
    bad = b.copy()
    bad[5] ^= 1
    assert not _verifies(bad, tags)
    assert not _verifies(b, tags ^ np.uint8(1))


@settings(max_examples=50)
@given(st.lists(st.integers(0, 255), min_size=2, max_size=5))
def test_combined_tag_is_tag_of_combination(alphas):
    rng = np.random.default_rng(len(alphas) * 1000 + sum(alphas))
    rows = np.stack([_random_block(rng) for _ in alphas])
    tag_rows = spacemac.mac(KEY, FID, rows, ell=2)
    combined_tag = field.combine_rows(alphas, tag_rows)
    combined = field.combine_rows(alphas, rows)
    assert _verifies(combined, combined_tag)


def test_row_matrix_tags_match_single_rows(rng):
    rows = np.stack([_random_block(rng) for _ in range(5)])
    tags = spacemac.mac(KEY, FID, rows, ell=3)
    assert tags.shape == (5, 3)
    for row, tag in zip(rows, tags):
        assert np.array_equal(spacemac.mac(KEY, FID, row, ell=3), tag)


def test_forgery_rate_single_tag(rng):
    # blind tag guesses against one key index succeed near 1/q
    b = _random_block(rng)
    hits = sum(
        _verifies(b, np.array([g], dtype=np.uint8))
        for g in range(256))
    assert hits == 1  # exactly one of 256 guesses is the true tag


def test_parallel_tags_independent(rng):
    # tag values may collide but the keystreams behind them must not
    rs = [spacemac.r_vector(KEY, FID, 20, j) for j in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(rs[i], rs[j])


def test_cache_extends_monotonically():
    short = spacemac.r_vector(KEY, FID, 10, 1).copy()
    long = spacemac.r_vector(KEY, FID, 64, 1)
    assert np.array_equal(long[:10], short)


def test_r_cache_is_bounded():
    # one matrix per (k_v, file id, count, length), the least recently
    # used dropped first; a dropped one is derived again, the same
    block = np.arange(20, dtype=np.uint8)
    first = spacemac.mac(KEY, b"file-0", block, ell=2)
    for i in range(100):
        spacemac.mac(KEY, f"file-{i}".encode(), block, ell=2)
        assert spacemac._r_matrix.cache_info().currsize <= spacemac.R_CACHE_SIZE
    with mock.patch.object(prf, "derive_r_vector", wraps=prf.derive_r_vector) as derive:
        spacemac.mac(KEY, b"file-99", block, ell=2)
        assert derive.call_count == 0
        assert np.array_equal(spacemac.mac(KEY, b"file-0", block, ell=2), first)
        assert derive.call_count == 2


def test_r_vectors_are_rows_of_one_read_only_matrix():
    # r_1..r_ell are derived once per length asked for, as the rows of one
    # matrix; a shorter length is derived anew, with the same prefix
    block = np.arange(40, dtype=np.uint8)
    with mock.patch.object(prf, "derive_r_vector", wraps=prf.derive_r_vector) as derive:
        tags = spacemac.mac(KEY, FID, block, ell=3)
        assert derive.call_count == 3
        assert np.array_equal(spacemac.mac(KEY, FID, block, ell=3), tags)
        assert derive.call_count == 3
        spacemac.mac(KEY, FID, block[:30], ell=3)
        assert derive.call_count == 6
    stack = spacemac._r_matrix(KEY, FID, 3, 40)
    assert stack.shape == (3, 40) and not stack.flags.writeable
    for j in (1, 2, 3):
        assert np.array_equal(spacemac.r_vector(KEY, FID, 40, j), stack[j - 1])
        assert np.array_equal(spacemac.r_vector(KEY, FID, 30, j), stack[j - 1, :30])
    with pytest.raises(ValueError):
        spacemac.r_vector(KEY, FID, 50, 3)[0] = 1


def test_r_vector_skips_zero_keystream_symbols():
    # r_j is the F1 keystream with its zeros dropped: symbols in 1..255,
    # the same prefix whatever length is asked first
    stream = prf.derive_r_vector(KEY, FID, 6000, 1)
    assert (stream == 0).any()
    r = spacemac.r_vector(KEY, FID, 5000, 1)
    assert r.min() >= 1 and np.array_equal(r, stream[stream != 0][:5000])
    spacemac._r_matrix.cache_clear()
    assert np.array_equal(spacemac.r_vector(KEY, FID, 300, 1), r[:300])


def test_full_node_audit_catches_a_corruption_where_the_keystream_is_zero():
    # at one tag, most file keys have a data position whose F1 keystream
    # symbol is 0; were that r_1's symbol, a corruption there would pass
    # every audit.  Seed 3's key has one at position 56.
    params = SystemParams(n=64, m=4, N=4, M=2, P=3, Q=1, ell=1, lambda_bits=80)
    c = spawn_cluster(params, "evenodd4", bytes(range(100)), seed=3)
    stream = prf.derive_r_vector(c.user.keys.k_v, c.manifest.file_id.encode(), params.n)
    pos = int(np.flatnonzero(stream == 0)[0])
    assert pos == 56
    c.inject_fault(2, Fault("corrupt_symbol", block=0, position=pos, delta=1))
    assert not any(c.run_audit_round(2, 2)[0] for _ in range(20))
