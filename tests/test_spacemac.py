import numpy as np
from hypothesis import given, settings, strategies as st

from ncaudit import blocks, field, spacemac
from ncaudit.blocks import SystemParams

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
            expect ^= field.mul(x, y)
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
    combined_tag = blocks.combine_blocks(alphas, tag_rows)
    combined = blocks.combine_blocks(alphas, rows)
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
