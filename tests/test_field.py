import contextlib
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncaudit import audit, dynamics, field
from ncaudit.blocks import SystemParams
from ncaudit.cluster import Fault, make_layout, spawn_cluster

elem = st.integers(0, 255)


def test_table_matches_shift_reduce_oracle():
    # full cross-check of the lookup table against the bitwise definition
    for a in range(256):
        for b in range(0, 256, 7):
            assert field.MUL[a, b] == field.mul_shift_reduce(a, b)


def test_known_products():
    # classic values for the 0x11B field
    assert field.MUL[0x53, 0xCA] == 0x01
    assert field.MUL[0x02, 0x80] == 0x1B
    assert field.MUL[0x57, 0x83] == 0xC1


def test_generator_order():
    # 3 generates the multiplicative group
    x, seen = 1, set()
    for _ in range(255):
        x = int(field.MUL[x, 3])
        seen.add(x)
    assert x == 1 and len(seen) == 255


@given(elem, elem, elem)
def test_ring_axioms(a, b, c):
    mul = field.MUL
    assert mul[a, b] == mul[b, a]
    assert mul[a, mul[b, c]] == mul[mul[a, b], c]
    assert mul[a, b ^ c] == mul[a, b] ^ mul[a, c]


@given(st.integers(1, 255))
def test_inverse(a):
    assert field.mul_shift_reduce(a, int(field._INV[a])) == 1


def test_inverse_table_exhaustive():
    for a in range(1, 256):
        assert field.MUL[a, field._INV[a]] == 1


@given(st.lists(elem, min_size=1, max_size=32), elem)
def test_vec_scale_matches_scalar(vals, alpha):
    v = field.vec(vals)
    assert field.vec_scale(alpha, v).tolist() == [field.mul_shift_reduce(alpha, x) for x in vals]


def _scalar_dot(u, v):
    acc = 0
    for a, b in zip(u.tolist(), v.tolist()):
        acc ^= field.mul_shift_reduce(a, b)
    return acc


def _combine_row_by_row(coeffs, rows):
    # the reference for a 2-D combine_rows: one 1-D combination per output row
    return np.stack([field.combine_rows(c, rows) for c in coeffs])


def _row_dots(rows, v):
    # one dot product per row: the combination of rows' columns weighted by v
    return field.combine_rows(v, rows.T)


def test_dot_matches_scalar_sum():
    r = np.random.default_rng(1)
    rows = r.integers(0, 256, (3, 50), dtype=np.uint8)
    v = r.integers(0, 256, 50, dtype=np.uint8)
    assert _row_dots(rows, v).tolist() == [_scalar_dot(row, v) for row in rows]


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
    # and takes the digit loop otherwise, so each width takes row counts on
    # either side of the symbol threshold
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


# one strategy per kernel: small shapes gather; the large ones take the digit
# loop, whose slabs of half the rows split some runs, or gather where r·w
# falls short of GATHER_MAX
_SHAPES = st.one_of(st.tuples(st.integers(1, 64), st.integers(1, 600)),
                    st.tuples(st.integers(100, 400), st.integers(256, 1400)))
# coefficients that leave digit buckets empty: one value for all (every
# bucket empty but one), a zero high digit, a zero low digit, or 0, 1, 255
_KINDS = st.sampled_from(["random", "equal", "high zero", "low zero", "0/1/255"])


def _alphas(rng, kind, count):
    alphas = rng.integers(0, 256, count, dtype=np.uint8)
    if kind == "equal":
        alphas[:] = alphas[0]
    elif kind == "high zero":
        alphas &= 15
    elif kind == "low zero":
        alphas &= 240
    elif kind == "0/1/255":
        alphas = np.array([0, 1, 255], dtype=np.uint8)[rng.integers(0, 3, count)]
    return alphas


@settings(max_examples=40, deadline=None)
@given(_SHAPES, _KINDS, st.integers(0, 2**32 - 1))
@example((300, 1100), "equal", 1)       # one bucket, its run across both slabs
@example((255, 1024), "high zero", 2)   # an odd row count
@example((256, 1024), "low zero", 3)
@example((127, 1032), "random", 4)      # r·w just under GATHER_MAX
@example((128, 1024), "random", 5)      # r·w at GATHER_MAX
def test_combine_rows_property(shape, kind, seed):
    r = np.random.default_rng(seed)
    rows = r.integers(0, 256, shape, dtype=np.uint8)
    alphas = _alphas(r, kind, shape[0])
    got = field.combine_rows(alphas, rows)
    assert got.tolist() == _scalar_combination(alphas, rows)


@settings(max_examples=40, deadline=None)
@given(_SHAPES, st.integers(0, 40), st.sampled_from(["distinct", "repeats", "in order"]),
       _KINDS, st.integers(0, 2**32 - 1))
@example((1, 300), 5, "distinct", "random", 1)       # a one-row index
@example((300, 1100), 200, "distinct", "random", 2)  # C < M at a digit-loop width
@example((300, 1024), 10, "repeats", "0/1/255", 3)
@example((260, 600), 0, "repeats", "high zero", 4)
@example((200, 700), 30, "repeats", "low zero", 5)
@example((400, 1300), 0, "distinct", "equal", 6)
# every row in order, which a full challenge no longer names (audit.gen_proof),
# on both sides of the kernels' crossover
@example((127, 1032), 0, "in order", "random", 7)    # r·w just under GATHER_MAX: gather
@example((128, 1024), 0, "in order", "random", 8)    # r·w at GATHER_MAX: digit loop
@example((600, 255), 0, "in order", "equal", 9)      # past GATHER_MAX, too narrow for it
@example((300, 4106), 0, "in order", "random", 10)   # a paper-scale store
def test_indexed_combine_matches_scalar_sum(shape, extra, order, kind, seed):
    # the rows named by an index into a larger matrix, on both kernels,
    # against the scalar sum over the selected copy; with no extra rows an
    # index in order names every row, so it must equal no index
    r = np.random.default_rng(seed)
    (count, width), total = shape, shape[0] + extra
    rows = r.integers(0, 256, (total, width), dtype=np.uint8)
    index = (np.arange(count) if order == "in order"
             else r.choice(total, count, replace=order == "repeats"))
    alphas = _alphas(r, kind, count)
    with field.counter:
        got = field.combine_rows(alphas, rows, index)
        assert field.counter.value == count * width
    assert got.dtype == np.uint8
    assert got.tolist() == _scalar_combination(alphas, rows[index])


def test_paper_scale_combination_takes_one_slab_of_scratch():
    # 300 of 300 stored rows of 4,106 symbols: the digit loop takes half
    # the rows at a time through one buffer.  Its scratch is that slab and
    # 16 bucket rows per digit, and a few rows more for the join's planes
    # and the intp indices of its table lookups (16 rows for two rows);
    # a whole copy or a second slab would exceed it by 150 rows
    rng = np.random.default_rng(34)
    r, w = 300, 4106
    rows = rng.integers(0, 256, (r, w), dtype=np.uint8)
    index = rng.permutation(r)
    alphas = rng.integers(1, 256, r, dtype=np.uint8)
    want = field.combine_rows(alphas, rows, index)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = field.combine_rows(alphas, rows, index)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    slab, buckets, slack = -(-r // 2) * w, 2 * 16 * w, 32 * w
    assert slab + buckets <= peak <= slab + buckets + slack, peak


def test_indexed_combine_refuses_bad_indices():
    rows = np.arange(12, dtype=np.uint8).reshape(4, 3)
    alphas = np.array([1, 2], dtype=np.uint8)
    for index in ([0], [0, 1, 2], [0, 4], [-1, 0], [[0, 1]]):
        with pytest.raises(ValueError):
            field.combine_rows(alphas, rows, index)
    with pytest.raises(ValueError):  # an index takes one combination's coefficients
        field.combine_rows(np.ones((2, 2), dtype=np.uint8), rows, [0, 1])
    wide = np.zeros((600, 256), dtype=np.uint8)
    with pytest.raises(ValueError):  # a digit-loop width, past the last row
        field.combine_rows(np.ones(600, dtype=np.uint8), wide, np.arange(1, 601))


def test_counter_counts_each_helper():
    v = field.vec([1, 2, 3, 4])
    with field.counter:
        field.vec_scale(7, v)
        field.combine_rows(np.array([1, 2], dtype=np.uint8), np.stack([v, v]))
        total = field.counter.value
    assert total == 4 + 8
    assert not field.counter.enabled


LO = field.FOUR_RUSSIANS_MIN
# a (k, r) @ (r, w) product with w >= k and fewer products than this is one gather
GATHER = field.GATHER_MAX


def _wide_form(k, r, w):
    """The form a (k, r) @ (r, w) product with w >= k takes."""
    if k * r * w < GATHER:
        return "gather"
    if r == 1:
        return "outer"
    return "four_russians" if min(k, r) >= LO else "per_row"


@st.composite
def _products(draw):
    """(form, k, r, w, coefficient kind): shapes on both sides of each switch
    of a (k, r) @ (r, w) product, r and w often not multiples of 8; a
    "column" product has a narrow output (w < k)."""
    form = draw(st.sampled_from(["column", "gather", "four_russians", "per_row"]))
    if form == "column":
        k = draw(st.integers(2, 2 * LO))
        r, w = draw(st.integers(1, 3 * LO)), draw(st.integers(1, k - 1))
    elif form == "gather":
        k = draw(st.integers(1, 2 * LO))
        r = draw(st.integers(1, min(3 * LO, (GATHER - 1) // (k * k))))
        w = draw(st.integers(k, (GATHER - 1) // (k * r)))
    else:
        if form == "four_russians":
            k, r = draw(st.integers(LO, 2 * LO)), draw(st.integers(LO, 3 * LO))
        else:
            small = st.integers(1, LO - 1)
            k, r = draw(st.one_of(st.tuples(small, st.integers(1, 3 * LO)),
                                  st.tuples(st.integers(1, 2 * LO), small)))
        # at least GATHER products, so the one gather does not take them;
        # Four Russians up to three column chunks
        least = max(k, -(-GATHER // (k * r)))
        most = 2 * field.CHUNK + 40 if form == "four_russians" else least + field.CHUNK + 40
        w = draw(st.integers(least, max(least, most)))
    return form, k, r, w, draw(st.sampled_from(["random", "zero", "0/1/255"]))


@settings(max_examples=60, deadline=None)
@given(_products(), st.integers(0, 2**32 - 1))
@example(("gather", 1, 40, 600, "random"), 1)
@example(("gather", 4, 1, 1024, "random"), 2)
@example(("gather", 1, 1, 1, "0/1/255"), 3)
@example(("gather", 3, 300, 10, "random"), 4)  # narrow: w < r
@example(("per_row", 1, 5, 26215, "0/1/255"), 2)  # the digit loop, digits 0 in some passes
@example(("per_row", 300, 1, 1024, "random"), 5)  # an outer product
@example(("column", 1024, 1, 300, "0/1/255"), 6)  # an outer product, narrow
def test_product_matches_row_by_row(product, seed):
    # every form of the 2-D product against one 1-D combination per row
    form, k, r, w, kind = product
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, 256, (k, r), dtype=np.uint8)
    if kind == "zero":
        coeffs[:] = 0
    elif kind == "0/1/255":
        coeffs = np.array([0, 1, 255], dtype=np.uint8)[rng.integers(0, 3, (k, r))]
    rows = rng.integers(0, 256, (r, w), dtype=np.uint8)
    want = _combine_row_by_row(coeffs, rows)
    with mock.patch.object(field, "_four_russians", wraps=field._four_russians) as fr, \
            mock.patch.object(field, "_combine", wraps=field._combine) as one:
        got = field.combine_rows(coeffs, rows)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert got.flags.c_contiguous
    # a "per_row" draw with r = 1 is an outer product
    form, out_rows = (_wide_form(w, r, k), w) if form == "column" else (_wide_form(k, r, w), k)
    assert fr.called == (form == "four_russians")
    assert one.call_count == {"gather": 0, "four_russians": 0, "outer": 0,
                              "per_row": out_rows}[form]


@pytest.mark.parametrize("k, r, w", [(2 * LO, 3 * LO, 7),          # narrow: one gather
                                     (LO, LO + 5, field.CHUNK + 3),  # Four Russians
                                     (LO - 1, 3 * LO, 2 * LO),     # per row
                                     (3, 9, 1),                   # narrow, tiny
                                     (4, 20, 1026),               # one gather
                                     (1, 1, 5)])                  # one gather, tiny
def test_counter_reads_k_r_w_for_each_form(k, r, w):
    rng = np.random.default_rng(k * r * w)
    coeffs = rng.integers(0, 256, (k, r), dtype=np.uint8)
    rows = rng.integers(0, 256, (r, w), dtype=np.uint8)
    with field.counter:
        field.combine_rows(coeffs, rows)
        assert field.counter.value == k * r * w


@pytest.mark.parametrize("k, w", [(300, 4096), (300, 1024)])
def test_an_outer_product_is_every_scalar_product(k, w):
    # (k, 1) @ (1, w) past GATHER_MAX, and its transpose, against a product
    # table of shift and reduce; counted as k·w multiplications either way
    table = np.array([[field.mul_shift_reduce(a, b) for b in range(256)] for a in range(256)],
                     dtype=np.uint8)
    rng = np.random.default_rng(k * w)
    coeffs = rng.integers(0, 256, (k, 1), dtype=np.uint8)
    row = rng.integers(0, 256, (1, w), dtype=np.uint8)
    want = table[coeffs, row]
    with field.counter:
        assert np.array_equal(field.combine_rows(coeffs, row), want)
        assert field.counter.value == k * w
        assert np.array_equal(field.combine_rows(row.T, coeffs.T), want.T)
        assert field.counter.value == 2 * k * w


def _shift_reduce_product(x, rs):
    # (k, L) or (L,) times (L, ell), every product by shift and reduce
    out = []
    for row in np.atleast_2d(x).tolist():
        acc = [0] * rs.shape[1]
        for a, r_row in zip(row, rs.tolist()):
            for t, b in enumerate(r_row):
                acc[t] ^= field.mul_shift_reduce(a, b)
        out.append(acc)
    return np.array(out, dtype=np.uint8).reshape(np.shape(x)[:-1] + (rs.shape[1],))


@pytest.mark.parametrize("ell", [1, 2, 10])
@pytest.mark.parametrize("layout", ["C", "F", "transposed view"])
@pytest.mark.parametrize("k", [None, 3, 12])
def test_narrow_gather_matches_shift_reduce(ell, layout, k):
    # a MAC's shape: rows times (L, ell) r-vectors, few columns and many
    # rows, which the gather reduces in (ell, L) order whatever the layout;
    # k > ell takes the transposed product, (ell, L) @ (L, k), and k = 3 <=
    # ell = 10 the one gather
    rng = np.random.default_rng(ell * 100 + (k or 0))
    L = 300
    stacked = rng.integers(0, 256, (ell, L), dtype=np.uint8)  # tag-major
    rs = {"C": np.ascontiguousarray(stacked.T), "F": np.asfortranarray(stacked.T),
          "transposed view": stacked.T}[layout]
    x = rng.integers(0, 256, L if k is None else (L, k), dtype=np.uint8)
    x = x if k is None else x.T  # a (k, L) view of an (L, k) matrix
    x[..., :3] = [0, 1, 255]
    with field.counter:
        got = field.combine_rows(x, rs)
        assert field.counter.value == (k or 1) * L * ell
    assert got.dtype == np.uint8
    assert np.array_equal(got, _shift_reduce_product(x, rs))


def test_spawn_cluster_blocks_and_tags_golden():
    # node blocks are (36, 40) @ (40, 605): the Four-Russians form, over
    # full column chunks and a partial one.  The data symbols and
    # coefficients hashed here are those printed before that form existed,
    # from per-row combinations, when nodes stored each block's
    # coefficients too, so they are joined back from the manifest; the tags
    # were restated when MAC vectors began to skip zero keystream symbols,
    # and again when the keystream became keyed SHAKE256
    params = SystemParams(n=605, m=40, N=2, M=36, P=1, Q=1, ell=3, lambda_bits=80)
    data = np.random.default_rng(13).bytes(40 * 603 - 17)
    with mock.patch.object(field, "_four_russians", wraps=field._four_russians) as fr:
        c = spawn_cluster(params, "random_functional", data, seed=13)
    assert fr.call_count == 2
    h = hashlib.sha256()
    for i in sorted(c.nodes):
        rows = c.nodes[i].payload.rows
        h.update(np.hstack([rows[:, :params.n], c.manifest.node_coeffs[i]]).tobytes())
        h.update(rows[:, params.n:].tobytes())
    assert h.hexdigest() == "c0b14411df9a28a13a0209e4c3a90efcc9a7e7235570def3e8b555b69a1ddaa4"


def test_gaussian_solve_unique():
    r = np.random.default_rng(2)
    for _ in range(20):
        a = r.integers(0, 256, (6, 6), dtype=np.uint8)
        if field.matrix_rank(a) < 6:
            continue
        x = r.integers(0, 256, 6, dtype=np.uint8)
        b = _row_dots(a, x)
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
    assert np.array_equal(_row_dots(a, x), b)


def _eliminate_row_by_row(a, b):
    # the per-row reduction, the reference for field._eliminate (which with
    # b None reduces only below each pivot; the pivots and rank are the same)
    if b is None:
        b = np.zeros((a.shape[0], 0), dtype=np.uint8)
    pivots, r = [], 0
    for c in range(a.shape[1]):
        nz = [i for i in range(r, a.shape[0]) if a[i, c]]
        if not nz:
            continue
        a[[r, nz[0]]], b[[r, nz[0]]] = a[[nz[0], r]], b[[nz[0], r]]
        f = int(field._INV[a[r, c]])
        a[r], b[r] = field.MUL[f][a[r]], field.MUL[f][b[r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                g = int(a[i, c])
                a[i] ^= field.MUL[g][a[r]]
                b[i] ^= field.MUL[g][b[r]]
        pivots.append(c)
        r += 1
    return pivots, r


# the crossover of field._eliminate's two row reductions moved so that every
# pivot takes the table of its multiples, or none does; "measured" leaves it
FORMS = {"table": {"TABLE_ROWS": 0, "TABLE_MIN": 1},
         "gather": {"TABLE_ROWS": 0, "TABLE_MIN": 1 << 62}}


def _form(name):
    return mock.patch.multiple(field, **FORMS[name]) if name in FORMS else contextlib.nullcontext()


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([2, 4, 256]),
       st.booleans(), st.booleans(), st.sampled_from([None, 0, 1, 3, 256, 1026]),
       st.sampled_from(["table", "gather", "measured"]), st.integers(0, 2**32 - 1))
def test_elimination_property(rows, cols, alphabet, dup_row, zero_col, width, form, seed):
    # tall, wide and square up to the simulator's sizes, right-hand sides
    # from none to a decode's width; small alphabets and duplicate rows make
    # ranks below min(rows, cols); a zero column is never a pivot.  Each
    # row reduction, forced, gives the row-by-row reference's bytes
    with _form(form):
        _check_elimination(rows, cols, alphabet, dup_row, zero_col, width, seed)


def _check_elimination(rows, cols, alphabet, dup_row, zero_col, width, seed):
    r = np.random.default_rng(seed)
    a = r.integers(0, alphabet, (rows, cols), dtype=np.uint8)
    if dup_row and rows > 1:
        a[-1] = a[0]
    if zero_col:
        a[:, r.integers(cols)] = 0
    rank = field.matrix_rank(a)
    assert rank == field.matrix_rank(a.T) <= min(rows, cols)

    x = r.integers(0, 256, cols if width is None else (cols, width), dtype=np.uint8)
    x2 = x[:, None] if width is None else x
    rhs2 = field.combine_rows(a, x2)
    rhs = rhs2[:, 0] if width is None else rhs2

    want_a, want_b = a.copy(), rhs2.copy()
    got_a, got_b = a.copy(), rhs2.copy()
    pivots, want_rank = want = _eliminate_row_by_row(want_a, want_b)
    assert field._eliminate(got_a, got_b) == want
    assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
    # the rank alone: the same pivots, a row echelon form below them
    assert rank == want_rank
    forward = a.copy()
    assert field._eliminate(forward, None) == want
    for i, c in enumerate(pivots):
        assert forward[i, c] == 1 and not forward[i + 1:, c].any()
    assert not forward[rank:].any()

    res = field.gaussian_solve(a, rhs)
    assert res.rank == rank
    assert res.status == ("unique" if rank == cols else "rank_deficient")
    assert res.solution.shape == x.shape
    sol2 = res.solution[:, None] if width is None else res.solution
    assert np.array_equal(field.combine_rows(a, sol2), rhs2)
    if rank == cols:
        assert np.array_equal(res.solution, x)

    if width == 0:
        return  # no right-hand side can be off
    # a row dependent on the others whose right-hand side is off by a nonzero delta
    c = r.integers(0, 256, rows, dtype=np.uint8)
    delta = np.zeros(rhs2.shape[1], dtype=np.uint8)
    delta[r.integers(delta.size)] = r.integers(1, 256)
    bad_row = field.combine_rows(c, a)[None]
    bad_rhs = (field.combine_rows(c, rhs2) ^ delta)[None]
    bad = field.gaussian_solve(np.concatenate([a, bad_row]),
                               np.concatenate([rhs2, bad_rhs]))
    assert bad.status == "inconsistent" and bad.solution is None


@pytest.mark.parametrize("form", ["table", "gather"])
@pytest.mark.parametrize("width", [None, 0, 5])
def test_pivot_swaps_and_zero_columns_match_row_by_row(width, form):
    # random matrices put a zero in place at a pivot about once in 256
    # steps.  An upper triangular matrix with its first row moved last puts
    # one there at every step but the last, so a row below is swapped up;
    # an all-zero column is skipped, and a dependent last row ends up zero
    r = np.random.default_rng(29)
    u = np.triu(r.integers(1, 256, (7, 7), dtype=np.uint8))
    a = np.insert(np.roll(u, -1, axis=0), 3, 0, axis=1)
    a = np.vstack([a, field.combine_rows([0, 5, 0, 0, 9, 0, 1], a)])
    assert not a[0, 0] and not a[:, 3].any()
    want_a = a.copy()
    if width is None:
        want = _eliminate_row_by_row(want_a, None)
        forward = a.copy()
        with _form(form):
            assert field._eliminate(forward, None) == want
        for i, c in enumerate(want[0]):
            assert forward[i, c] == 1 and not forward[i + 1:, c].any()
        assert not forward[want[1]:].any()
    else:
        b = r.integers(0, 256, (a.shape[0], width), dtype=np.uint8)
        want_b, got_a, got_b = b.copy(), a.copy(), b.copy()
        want = _eliminate_row_by_row(want_a, want_b)
        with _form(form):
            assert field._eliminate(got_a, got_b) == want
        assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
    assert want == ([0, 1, 2, 4, 5, 6, 7], 7)


def test_tall_elimination_past_the_crossover_matches_row_by_row():
    # 260 rows reduce through tables at the measured crossover: with b at
    # every pivot, for the rank alone at the first ones.  A zero column and
    # a column summing two others make the rank 178 of 180 columns, and a
    # row summing two others with b off makes the system inconsistent
    r = np.random.default_rng(25)
    a = r.integers(0, 256, (260, 180), dtype=np.uint8)
    a[:, 7] = 0
    a[:, 100] = a[:, 3] ^ a[:, 4]
    b = r.integers(0, 256, (260, 200), dtype=np.uint8)
    a[-1], b[-1] = a[0] ^ a[1], b[0] ^ b[1] ^ 1
    want_a, want_b = a.copy(), b.copy()
    want = _eliminate_row_by_row(want_a, want_b)
    with mock.patch.object(field, "_multiples", wraps=field._multiples) as table:
        got_a, got_b = a.copy(), b.copy()
        assert field._eliminate(got_a, got_b) == want
        assert table.call_count == want[1]
        forward = a.copy()
        assert field._eliminate(forward, None) == want
    assert table.call_count > want[1]
    assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
    assert want[1] == 178 and field.gaussian_solve(a, b).status == "inconsistent"


def test_paper_scale_layout_check_takes_the_table_form():
    # set-up's span check of m=500 sources over two nodes of 300 rows, which
    # a retuned crossover must not switch back to single products
    params = SystemParams(n=4096, m=500, N=2, M=300, P=1, Q=1, ell=10, lambda_bits=80)
    rng = np.random.default_rng(1)
    code = make_layout("random_functional", params, rng)
    rank, tables = field.matrix_rank, []

    def counted(a):
        before = table.call_count
        result = rank(a)
        tables.append(table.call_count - before)
        return result

    with mock.patch.object(field, "_multiples", wraps=field._multiples) as table, \
            mock.patch.object(field, "matrix_rank", counted):
        manifest, _ = audit.setup_file(b"", params, audit.keygen(params, rng), code, rng)
    assert sorted(manifest.node_coeffs) == [0, 1] and len(tables) == 1 and tables[0] > 250


def _churn_once(seed):
    # one cluster-churn round at n=64: an update, an exact and a functional
    # repair, a corruption caught by full-node audits, a decode
    params = SystemParams(n=64, m=8, N=6, M=2, P=5, Q=2, ell=2, lambda_bits=80)
    rng = np.random.default_rng(seed)
    width = params.n - 2
    data = rng.bytes(params.m * width - 11)
    c = spawn_cluster(params, "random_functional", data, seed=seed)
    chunks = [data[i * width:(i + 1) * width] for i in range(params.m)]
    chunks[3] = rng.bytes(40)
    payloads = {i: node.payload for i, node in c.nodes.items()}
    dynamics.update_block(c.manifest, payloads, c.user.keys, 3, chunks[3], rng)
    c.fail_and_repair(1, "exact")
    c.fail_and_repair(2, "functional")
    c.inject_fault(4, Fault("corrupt_symbol", block=1, position=7, delta=9))
    verdicts = [c.run_audit_round(4, params.M)[0] for _ in range(3)]
    decoded = c.decode_current_file()
    assert not all(verdicts) and decoded == b"".join(chunks)
    return ({i: node.payload.rows.copy() for i, node in c.nodes.items()},
            c.manifest.to_json(), verdicts, decoded)


@pytest.mark.parametrize("seed", [5, 6])
def test_churn_matches_row_by_row_references(seed):
    # the whole write path twice, once with the 2-D products and every
    # elimination swapped for the row-by-row references: the same bytes
    one_d = field.combine_rows

    def combine_row_by_row(coeffs, rows, index=None):
        coeffs = field.vec(coeffs)
        return (one_d(coeffs, rows, index) if coeffs.ndim == 1
                else _combine_row_by_row(coeffs, rows))

    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as plain:
        want = _churn_once(seed)
    with mock.patch.object(field, "_eliminate", wraps=_eliminate_row_by_row) as elim, \
            mock.patch.object(field, "combine_rows", wraps=combine_row_by_row) as comb:
        got = _churn_once(seed)
    # every elimination of the unswapped run took the reference
    assert elim.call_count == plain.call_count > 0 and comb.called
    assert got[0].keys() == want[0].keys()
    assert all(np.array_equal(got[0][i], want[0][i]) for i in want[0])
    assert got[1:] == want[1:]
