"""Arithmetic over GF(2^8) plus small dense linear algebra.

Reduction polynomial is x^8 + x^4 + x^3 + x + 1 (0x11B).  Multiplication is
served from a 256x256 lookup table built once at import time from exp/log
tables of the generator 3; addition is XOR.  Vector work goes through two
kernels on numpy uint8 arrays: vec_scale (one scaled vector) and
combine_rows, coefficients times rows.  With (r,) coefficients combine_rows
makes one combination: it gathers every product at once, through flat
table indices, for small or narrow inputs, and otherwise splits each
coefficient into two 4-bit digits, as Plank, Greenan and Miller split their
tables ("Screaming Fast Galois Field Arithmetic Using Intel SIMD
Instructions", FAST 2013).  For each digit the rows are sorted by digit
value, and each value's run is XOR-reduced into one bucket row; the
buckets of both digits are then joined by halving,
sum_v v·B_v = odd(B) ^ 2·sum_u u·(B_2u ^ B_2u+1), Horner's rule and
16·high ^ low.  So a row is read once per digit, not once per set bit.  An
index may name the combination's rows in a larger matrix, such as a node's
store: the gather takes them once, and the digit loop takes each digit's
rows from the matrix into one reused buffer, half of them at a time.  The
gather of a narrow input (w < r: few columns, many rows, such as a MAC's
r-vectors, whose tag-major cache gives that order for free) lays its
indices out as (w, r), so each output symbol reduces one contiguous run.  A (k, r) @ (r, w) product with a
narrow output (w < k) is computed as its transpose.  Then fewer than 2^17
symbol products are one gather, laid out (k, w, r) when w < r; k and r
both large take the Four-Russians method (Albrecht, Bard and Hart,
"Algorithm 898", ACM TOMS 2010) on each bit-plane, as M4RIE does for
GF(2^e) (Albrecht, ISSAC 2012); an outer product (r = 1) picks its rows
from the row's 256 multiples; the rest make one combination per row.
Gaussian elimination runs on one augmented array [A | B]: each pivot row is
normalised with one table row, then every row is reduced in one step, from
the pivot column on, since the pivot row is zero before it.  A pivot that
reduces few or short rows reads each row's own MUL row at the pivot row, a
gather of every single product; one that reduces many long rows first
builds the pivot row's 256 multiples from its eight doublings, the
Newton-John tables of M4RIE (Albrecht, ISSAC 2012), and each row then XORs
in the table row its factor picks.  A zero factor picks zero either way.
The rank alone reduces only the rows below each pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

POLY = 0x11B
ORDER = 256


def mul_shift_reduce(a: int, b: int) -> int:
    """Shift-and-reduce product in GF(2^8); reference for the lookup table."""
    if not (0 <= a < ORDER and 0 <= b < ORDER):
        raise ValueError("operands must be single field symbols")
    acc, x, y = 0, a, b
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x & 0x100:
            x ^= POLY
    return acc


def _build_tables():
    """MUL and the inverse table from exp/log tables of the generator 3."""
    exp = np.empty(2 * (ORDER - 1), dtype=np.uint8)
    x = 1
    for i in range(ORDER - 1):
        exp[i] = exp[i + ORDER - 1] = x
        x = mul_shift_reduce(x, 3)
    log = np.zeros(ORDER, dtype=np.intp)
    log[exp[: ORDER - 1]] = np.arange(ORDER - 1)
    table = np.zeros((ORDER, ORDER), dtype=np.uint8)
    table[1:, 1:] = exp[log[1:, None] + log[None, 1:]]
    inverse = np.zeros(ORDER, dtype=np.uint8)
    inverse[1:] = exp[(ORDER - 1) - log[1:]]
    return table, inverse


MUL, _INV = _build_tables()


class MultCounter:
    """Counts field multiplications performed by the vector helpers.

    Disabled by default; enable with the context manager for instrumented
    runs.  A table lookup counts as one multiplication per element.
    """

    __slots__ = ("enabled", "value")

    def __init__(self):
        self.enabled = False
        self.value = 0

    def __enter__(self):
        self.enabled = True
        self.value = 0
        return self

    def __exit__(self, *exc):
        self.enabled = False
        return False


counter = MultCounter()


def vec(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint8)


def vec_scale(alpha: int, v: np.ndarray) -> np.ndarray:
    if counter.enabled:
        counter.value += int(v.size)
    return MUL[alpha][v]


# A (k, r) @ (r, w) product with w >= k takes the Four-Russians form when
# min(k, r) reaches this.  On one CPU, for w from 300 to 4,596, it took
# 0.8-0.94x the per-row time at k = r = 32, 0.35-0.75x from 64 on and
# 0.15-0.3x at k, r = 300, 500; with fewer than 32 output rows the tables
# do not pay for themselves, and with fewer than 32 source rows the per-row
# gathers stay faster (up to 1.9x).
FOUR_RUSSIANS_MIN = 32
# Output columns per Four-Russians pass.  At k, r, w = 300, 500, 4,596,
# 256 ran ~10% faster than 512 and halves the accumulator and gather
# buffers (8 bytes per output row and chunk column each).
CHUNK = 256
# Below this many symbol products (k·r·w, or r·w for one combination) a
# product is one gather of flat table indices a << 8 | b, several times
# faster than a two-array index; above it a combination takes the digit
# loop and a product one of the other forms.
GATHER_MAX = 1 << 17
# An elimination pivot that reduces k rows of L symbols from its column on
# reads them from a table of its 256 multiples when (k - TABLE_ROWS) * L
# reaches TABLE_MIN, and otherwise gathers k * L single products.  The
# table costs about what the gathers of 40 rows cost, plus a fixed part.
# On one CPU, measured per pivot, the table won from L = 24 at k = 600,
# 40 at 384, 64 at 256, 90 at 192, 170 at 128, 230 at 96, 450 at 64 and
# 1,200 at 48, (k - 37) * L = 13,000 or so; the rule asks for a little
# more.  Whole eliminations took 0.4x the time for the rank of 600x500,
# 0.2x for a 600x500 | 600x4,106 decode, 0.6-0.7x for 64x64 | 2,048 and
# 96x96 | 512, and 1.0x (no pivot takes the table) for 64x64 | 64 and
# every system of 48 rows or fewer.
TABLE_ROWS = 48
TABLE_MIN = 1 << 14


def combine_rows(coeffs, rows: np.ndarray, index=None) -> np.ndarray:
    """coeffs · rows: (r,) coefficients give the (w,) row
    sum_i coeffs[i] * rows[i], (k, r) ones the (k, w) matrix of k such
    rows.  With (r,) coefficients an (r,) index names the rows to combine,
    sum_i coeffs[i] * rows[index[i]], read from rows with no copy of the
    selection first.  Counts one multiplication per coefficient and
    combined row symbol, k·r·w."""
    coeffs, rows = vec(coeffs), vec(rows)
    if index is not None:
        index = np.asarray(index, dtype=np.intp)
        if coeffs.ndim != 1 or index.ndim != 1:
            raise ValueError("an index takes 1-D coefficients and is 1-D itself")
        # one reduction: read unsigned, a negative entry is past every row
        if index.size and index.view(np.uintp).max() >= rows.shape[0]:
            raise ValueError(f"index outside the {rows.shape[0]} rows")
    r = rows.shape[0] if index is None else index.shape[0]
    if coeffs.shape[-1] != r:
        raise ValueError("length mismatch")
    if counter.enabled:
        counter.value += r * rows.shape[1] * (coeffs.shape[0] if coeffs.ndim == 2 else 1)
    if coeffs.ndim == 1:
        return _combine(coeffs, rows, index)
    if rows.shape[0] == 1 and coeffs.shape[0] * rows.shape[1] >= GATHER_MAX:
        # the row's 256 multiples, one picked per output row: on one CPU 0.3x
        # the per-row gathers' time at (300, 1) @ (1, 4,096), 0.03x transposed
        return MUL.take(rows[0], axis=1).take(coeffs[:, 0], axis=0)
    narrow = rows.shape[1] < coeffs.shape[0]
    if narrow:  # the transposed product, rows.T @ coeffs.T, has the wide output
        coeffs, rows = rows.T, coeffs.T
    (k, r), w = coeffs.shape, rows.shape[1]
    if k * r * w < GATHER_MAX:
        # on one CPU it took 0.3-0.75x the time of the per-row or
        # Four-Russians form, from (4, 1, 1024) to shapes just under the bound
        out = _gather(coeffs, rows)
    else:  # their row selections are slow on a transposed view, so copy it once
        rows = np.ascontiguousarray(rows)
        out = (_four_russians(coeffs, rows) if min(k, r) >= FOUR_RUSSIANS_MIN
               else np.stack([_combine(c, rows) for c in coeffs]))
    return np.ascontiguousarray(out.T) if narrow else out


def _gather(alphas: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """alphas @ rows for (r,) or (k, r) alphas as one gather of every
    product through flat table indices, uncounted."""
    r, w = rows.shape
    if w < r:
        # narrow rows (a MAC's r-vectors): (..., w, r) indices, so that each
        # output symbol reduces one contiguous run, whatever rows' order
        flat = np.empty(alphas.shape[:-1] + (w, r), dtype=np.uint16)
        np.bitwise_or(alphas[..., None, :].astype(np.uint16) << 8, rows.T, out=flat)
        return np.bitwise_xor.reduce(MUL.take(flat), axis=-1)
    flat = (alphas[..., None].astype(np.uint16) << 8) | rows
    return np.bitwise_xor.reduce(MUL.take(flat), axis=-2)


def _combine(alphas: np.ndarray, rows: np.ndarray, index=None) -> np.ndarray:
    """sum_i alphas[i] * rows[index[i]] (rows[i] with no index), uncounted."""
    # The digit loop pays a fixed cost of a few calls per digit and digit
    # value; on one CPU it beats the gather from about 128k symbols in rows
    # at least 256 wide, unless there are very few rows (2x slower at 5).
    r, w = (rows.shape[0] if index is None else index.shape[0]), rows.shape[1]
    if w < 256 or r * w < GATHER_MAX:
        return _gather(alphas, rows if index is None else rows.take(index, axis=0))
    if index is None:
        index = np.arange(r)
    # One buffer of r/2 rows takes each digit's rows in turn, half at a
    # time, so that a paper-scale store and the buffer stay in a 2 MiB L2; a
    # fresh copy per step lands on fresh pages.  The index is in range, so
    # mode="clip" clamps nothing; it lets take fill the buffer unbuffered.
    # On one CPU, against the eight bit-planes this loop replaced, it took
    # 0.5-0.6x their time at 4,596 x 500 and 600 x 4,106, 0.77x at
    # 300 x 4,106, 0.8-0.9x at 200-255 rows of 4,106, 512 x 1,024 and
    # 1,000 x 300, and 0.97x at 128-160 rows of 4,106; it lost below that,
    # 1.04-1.07x at 500 x 300, 1.05-1.25x at 32-96 rows of 4,106 and
    # 1.16-1.36x at 128-256 rows of 1,024.  2-bit digits lost more from 96
    # rows of 4,106 on, and 1-bit ones everywhere; a whole copy in place of
    # the two halves ran 5-10% faster below 160 rows of 4,106, slower from
    # 200 on.
    slab = -(-r // 2)
    buf = np.empty((slab, w), dtype=np.uint8)
    buckets = np.zeros((2, 16, w), dtype=np.uint8)  # [high, low digit][value]
    for d, digits in enumerate((alphas >> 4, alphas & 15)):
        # sorted by digit, the rows of digit value v are end[v-1]:end[v]
        picked = index[np.argsort(digits, kind="stable")]
        end = np.bincount(digits, minlength=16).cumsum().tolist()
        runs = [(v, a, b) for v, a, b in zip(range(1, 16), end, end[1:]) if a < b]
        for lo in range(end[0], r, slab):
            hi = min(lo + slab, r)
            part = buf[: hi - lo]
            np.take(rows, picked[lo:hi], axis=0, out=part, mode="clip")
            for v, a, b in runs:
                if a < lo < b:  # a run begun in the slab before
                    buckets[d, v] ^= np.bitwise_xor.reduce(part[: min(b, hi) - lo], axis=0)
                elif lo <= a < hi:
                    np.bitwise_xor.reduce(part[a - lo: min(b, hi) - lo], axis=0,
                                          out=buckets[d, v])
    # sum_v v * B_v for both digits at once, by halving: the odd v give the
    # digit's bit-plane 0, and the rest is 2 * sum_u u * (B_2u ^ B_2u+1);
    # then Horner's rule, and alpha = 16 * high ^ low
    planes, sums = [], buckets
    while sums.shape[1] > 2:
        planes.append(np.bitwise_xor.reduce(sums[:, 1::2], axis=1))
        sums[:, 0::2] ^= sums[:, 1::2]
        sums = sums[:, 0::2]
    acc = sums[:, 1]
    for plane in reversed(planes):
        acc = MUL[2].take(acc) ^ plane
    return MUL[16].take(acc[0]) ^ acc[1]


def _four_russians(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coeffs @ rows by bit-planes: plane b of coeffs picks, for each group
    of 8 source rows, one XOR of that group's rows, read from a 256-row
    table of all such XORs; the planes are joined by Horner's rule."""
    k, w = coeffs.shape[0], rows.shape[1]
    # index[g, b, i]: bits 8g..8g+7 of plane b of output row i's coefficients
    index = np.stack([np.packbits((coeffs >> b) & 1, axis=1, bitorder="little")
                      for b in range(8)]).transpose(2, 0, 1).copy()
    table = np.empty((256, CHUNK), dtype=np.uint8)
    # one accumulator and one gather buffer for all chunks, reshaped so
    # that each stays contiguous for a partial last chunk
    acc_buf, picked_buf = (np.empty(k * CHUNK, dtype=np.uint64) for _ in range(2))
    out = np.empty((k, w), dtype=np.uint8)
    for lo in range(0, w, CHUNK):
        width = min(CHUNK, w - lo)
        words = -(-width // 8)
        t = table[:, :width]
        t64 = table[:, :8 * words].view(np.uint64)
        acc = acc_buf[: 8 * k * words].reshape(8, k, words)
        picked = picked_buf[: 8 * k * words].reshape(8, k, words)
        acc.fill(0)
        for g in range(index.shape[0]):
            # table row s: the XOR of the group's rows at the set bits of s
            t[0] = 0
            for i, row in enumerate(rows[8 * g: 8 * g + 8, lo: lo + width]):
                np.bitwise_xor(t[: 1 << i], row, out=t[1 << i: 2 << i])
            # mode="clip" lets take fill `picked` in place, unbuffered
            np.take(t64, index[g], axis=0, out=picked, mode="clip")
            acc ^= picked
        planes = acc.view(np.uint8)[:, :, :width]
        chunk = planes[7].copy()
        for b in range(6, -1, -1):
            chunk = MUL[2].take(chunk)
            chunk ^= planes[b]
        out[:, lo: lo + width] = chunk
    return out


_POWERS = MUL[1 << np.arange(8)]  # rows 1, 2, 4, ..., 128 of MUL


def _multiples(v: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """v's 256 multiples, row s being s * v, as a contiguous (256, len(v))
    view of the front of a flat buffer: s * v is the XOR of v's doublings
    2^i * v at the set bits i of s, so the rows take one gather of 8 * len(v)
    products and eight XOR steps, each doubling the rows filled."""
    t = buffer[: ORDER * v.size].reshape(ORDER, v.size)
    doublings = _POWERS.take(v, axis=1)
    t[0] = 0
    for i in range(8):
        np.bitwise_xor(t[: 1 << i], doublings[i], out=t[1 << i: 2 << i])
    return t


def matrix_rank(a: np.ndarray) -> int:
    return _eliminate(np.array(a, dtype=np.uint8, copy=True), None)[1]


@dataclass
class GaussResult:
    """The outcome of gaussian_solve: its status, a particular solution
    (free variables zero; None only when inconsistent) and the rank."""
    status: str  # "unique" | "rank_deficient" | "inconsistent"
    solution: Optional[np.ndarray]
    rank: int


def _eliminate(a: np.ndarray, b: Optional[np.ndarray]):
    """In place, the reduced row echelon form of a with b alongside, or,
    with b None (only the rank is wanted), a row echelon form of a.

    Returns (pivot columns, rank).  Pivot choice is the first nonzero row,
    so the result is deterministic for a given input ordering: the row in
    place when its entry is nonzero, and only otherwise a search of the
    rows below and a swap.
    """
    rows, cols = a.shape
    w = a if b is None else np.concatenate((a, b), axis=1)
    table = None
    pivots, r = [], 0
    for c in range(cols):
        if r == rows:
            break
        if not w[r, c]:  # only then search below for a pivot, and swap it up
            nz = np.flatnonzero(w[r + 1:, c])
            if nz.size == 0:
                continue
            p = r + 1 + int(nz[0])
            w[[r, p]] = w[[p, r]]
        # rows r on are zero left of c, so only w[:, c:] changes
        pivot = MUL[_INV[w[r, c]]].take(w[r, c:])
        # every row at once (for the rank alone, those below the pivot row),
        # each one less its factor times the pivot row; a zero factor's
        # product is zero, so the pivot row, its factor zeroed, stays as it is
        w[r, c] = 0
        lo = r + 1 if b is None else 0
        if (rows - lo - TABLE_ROWS) * pivot.size >= TABLE_MIN:
            # one row of the pivot's multiples per row, picked by its factor;
            # one buffer, as large as the first pivot to use it needs, serves
            # all (a contiguous table built ~15% faster than a strided one)
            if table is None:
                table = np.empty(ORDER * (w.shape[1] - c), dtype=np.uint8)
            w[lo:, c:] ^= _multiples(pivot, table).take(w[lo:, c], axis=0)
        else:  # each row's MUL row, read at the pivot row
            w[lo:, c:] ^= MUL[w[lo:, c]].take(pivot, axis=1)
        w[r, c:] = pivot
        pivots.append(c)
        r += 1
    if b is not None:
        a[:], b[:] = w[:, :cols], w[:, cols:]
    return pivots, r


def gaussian_solve(matrix, rhs) -> GaussResult:
    """Solve matrix @ X = rhs over GF(256).

    Full column rank plus a consistent system yields the unique solution.
    A rank-deficient system is reported with a particular solution (free
    variables zero); an inconsistent system is reported distinctly.
    """
    a = np.array(matrix, dtype=np.uint8, copy=True)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    b = np.array(rhs, dtype=np.uint8, copy=True)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise ValueError("row count mismatch between matrix and rhs")
    pivots, rank = _eliminate(a, b)
    # rows below the rank have an all-zero coefficient part after reduction
    if b[rank:].any():
        return GaussResult("inconsistent", None, rank)
    cols = a.shape[1]
    x = np.zeros((cols, b.shape[1]), dtype=np.uint8)
    x[pivots] = b[:rank]
    x = x[:, 0] if squeeze else x
    return GaussResult("unique" if rank == cols else "rank_deficient", x, rank)


def solve_any(matrix, rhs) -> Optional[np.ndarray]:
    """A particular solution (free variables zero), or None if inconsistent."""
    return gaussian_solve(matrix, rhs).solution
