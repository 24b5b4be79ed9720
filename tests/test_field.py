import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import field

elem = st.integers(0, 255)


def test_table_matches_shift_reduce_oracle():
    # full cross-check of the lookup table against the bitwise definition
    for a in range(256):
        for b in range(0, 256, 7):
            assert field.MUL[a, b] == field.mul_shift_reduce(a, b)


def test_known_products():
    # classic values for the 0x11B field
    assert field.mul(0x53, 0xCA) == 0x01
    assert field.mul(0x02, 0x80) == 0x1B
    assert field.mul(0x57, 0x83) == 0xC1


def test_generator_order():
    # 3 generates the multiplicative group
    x, seen = 1, set()
    for _ in range(255):
        x = field.mul(x, 3)
        seen.add(x)
    assert x == 1 and len(seen) == 255


@given(elem, elem, elem)
def test_ring_axioms(a, b, c):
    assert field.mul(a, b) == field.mul(b, a)
    assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
    assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


@given(st.integers(1, 255))
def test_inverse(a):
    assert field.mul(a, field.inv(a)) == 1


def test_inverse_table_exhaustive():
    for a in range(1, 256):
        assert field.MUL[a, field.inv(a)] == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


@given(st.lists(elem, min_size=1, max_size=32), elem)
def test_vec_scale_matches_scalar(vals, alpha):
    v = field.vec(vals)
    assert field.vec_scale(alpha, v).tolist() == [field.mul(alpha, x) for x in vals]


def _scalar_dot(u, v):
    acc = 0
    for a, b in zip(u.tolist(), v.tolist()):
        acc ^= field.mul(a, b)
    return acc


def test_dot_matches_scalar_sum():
    # matvec: one dot product per row
    r = np.random.default_rng(1)
    rows = r.integers(0, 256, (3, 50), dtype=np.uint8)
    v = r.integers(0, 256, 50, dtype=np.uint8)
    assert field.matvec(rows, v).tolist() == [_scalar_dot(row, v) for row in rows]


_MUL_LISTS = field.MUL.tolist()


def _scalar_combination(alphas, rows):
    # column-wise scalar sum of table products, the reference for combine_rows
    out = [0] * rows.shape[1]
    for a, row in zip(alphas.tolist(), rows.tolist()):
        products = _MUL_LISTS[a]
        for c, x in enumerate(row):
            out[c] ^= products[x]
    return out


@pytest.mark.parametrize("width", [10, 255, 256, 999, 1000, 1500, 2500])
def test_combine_rows_matches_scalar_sum(width):
    # both kernels: combine_rows gathers below 256 columns or 2**17 symbols
    # and bit-slices otherwise, so each width takes row counts on either side
    # of the symbol threshold
    r = np.random.default_rng(width)
    deep = -(-(1 << 17) // width)
    for nrows in (1, 7, deep - 1, deep):
        rows = r.integers(0, 256, (nrows, width), dtype=np.uint8)
        alphas = r.integers(0, 256, nrows, dtype=np.uint8)
        alphas[:3] = [0, 1, 255][:nrows]
        got = field.combine_rows(alphas, rows)
        assert got.tolist() == _scalar_combination(alphas, rows)
        zero = field.combine_rows(np.zeros(nrows, dtype=np.uint8), rows)
        assert got.dtype == zero.dtype == np.uint8
        assert not zero.any()


# one strategy per kernel: small shapes gather, the large ones bit-slice
_SHAPES = st.one_of(st.tuples(st.integers(1, 64), st.integers(1, 600)),
                    st.tuples(st.integers(128, 400), st.integers(1024, 1200)))


@settings(max_examples=40, deadline=None)
@given(_SHAPES, st.integers(0, 2**32 - 1))
def test_combine_rows_property(shape, seed):
    r = np.random.default_rng(seed)
    rows = r.integers(0, 256, shape, dtype=np.uint8)
    alphas = r.integers(0, 256, shape[0], dtype=np.uint8)
    assert field.combine_rows(alphas, rows).tolist() == _scalar_combination(alphas, rows)


def test_counter_counts_each_helper():
    v = field.vec([1, 2, 3, 4])
    with field.counter:
        field.vec_scale(7, v)
        field.matvec(v[None, :], v)
        field.combine_rows(np.array([1, 2], dtype=np.uint8), np.stack([v, v]))
        total = field.counter.value
    assert total == 4 + 4 + 8
    assert not field.counter.enabled


def test_gaussian_solve_unique():
    r = np.random.default_rng(2)
    for _ in range(20):
        a = r.integers(0, 256, (6, 6), dtype=np.uint8)
        if field.matrix_rank(a) < 6:
            continue
        x = r.integers(0, 256, 6, dtype=np.uint8)
        b = field.matvec(a, x)
        res = field.gaussian_solve(a, b)
        assert res.status == "unique"
        assert np.array_equal(res.solution, x)


def test_gaussian_solve_inconsistent():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    b = np.array([0, 1], dtype=np.uint8)
    res = field.gaussian_solve(a, b)
    assert res.status == "inconsistent"


def test_gaussian_solve_rank_deficient():
    a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.uint8)  # row2 = 2*row1
    res = field.gaussian_solve(a, np.zeros(2, dtype=np.uint8))
    assert res.status == "rank_deficient"
    assert res.rank == 1


def test_solve_any_particular_solution():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    b = np.array([5, 9], dtype=np.uint8)
    x = field.solve_any(a, b)
    assert x is not None
    assert np.array_equal(field.matvec(a, x), b)
