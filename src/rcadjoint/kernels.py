"""Exact integer convolution behind truncated series multiplication.

``convolve_sum(pairs, prec)`` is the one entry point: it returns the sum
of the truncated convolutions a*b over integer pairs (a, b), all routes
adding the products before anything is rounded or decoded.
``convolve_exact(a, b, prec)`` is its one-pair case, and
``convolve_power(acc, base, n, prec)`` a chain of n such pairs, acc
times base one factor at a time.  The route is picked from the inputs:

* slice-adds on one int64 accumulator, for a sparse side times any other
  (theta times a form, Jacobi's sparse series times its powers) and for
  short products: each nonzero a_i of a pair's sparser side adds
  a_i * b[:prec - i] into out[i:], the slices of a repeated value summed
  first and multiplied once, when the nonzero count times the other
  side's length is within a constant times the FFT's prec * log2(prec)
  plus its fixed cost, and only under the exact certificate
  sum_pairs sum_i |a_i| * max|b| < 2^63, which bounds every int64
  product and partial sum (a sum that fails it takes the dense routes);
  in a chain, the running product stays that int64 array from one
  product to the next,
* ``convolve_fft``, a limb-split floating-point FFT convolution that adds
  every pair's limb products in the frequency domain, for dense inputs,
  on balanced signed limbs of the widest width in [8, 16] whose a-priori
  rounding bound per limb shift (Percival 2003, Thm 5.1, with a term for
  adding a shift's products in the frequency domain, applied to numpy's
  pocketfft under the assumption stated in ``fft_error_bound``), its one
  certificate, holds; a run-time residual check must hold too.  It
  releases each pair's byte rows once their limb rows are transformed,
* Kronecker substitution on Python big integers (the pairs' signed
  products added into one integer), when that bound or that check fails
  (after a failed check, on byte rows built again), and at once when
  some operand has more than two byte limbs per coefficient of prec (the
  limb rule, _KRONECKER_LIMB_RATIO).

A values list has one of three backings: Python ints, an int64 array,
or byte rows, a (length, width) uint8 array of little-endian
two's-complement values trimmed to the bytes of the widest one.
Slice-adds make their sum on an int64 array; the dense routes' output,
packed into byte rows, is read (``_read_rows``) as an int64 array when
every value fits, else kept as those rows trimmed.  ``_convolve`` and
``_convolve_power`` hand either back as it is, and a series keeps it
(``qseries.QSeries.stored_num``) for the next product, the tail fit and
the L-sum.  Arrays are read by numpy operations only: nonzeros by
``np.flatnonzero``, values at some positions by one gather
(``ints_at``), the signs and magnitudes of rows by one negation on their
uint64 words (``_sign_magnitude``), a power of two off every value by one
shift across them (``_without_twos``).  Python ints are made at the
edges only, by ``_listed`` (rows of at most 16 bytes as two int64 words,
hi 2^64 + lo, joined by numpy's object loops a block at a time, wider
ones by ``int.from_bytes``): a series' ``num`` and ``coeff``, the JSON
writer, slice-adds' scaled operands (``_ints``) and the public
``convolve_sum``, ``convolve_exact`` and ``convolve_power``.  They
enter numpy through ``int64_array`` wherever they may fit an int64
(slice-adds' dense side, narrow byte rows, the tail fit's float
screen), and through ``_byte_rows`` as the dense routes' magnitude
rows and negative mask (``_Rows``), one ``int.to_bytes`` at a time past
7 bytes (a series read from JSON).  The FFT route builds its wider
limbs from those rows one limb row at a time.  ``qseries``' divisor
sieve makes its rows in the same format.
Every operand is held as a ``Scaled(values, w, r)``, the list
w * n^r * values[n]: a values list of any backing as
``Scaled(list)``, with w = 1 and r = 0, the bracket's operands with their
own w and r.  Slice-adds read it as that int list.  The dense routes
never form its ints: each distinct values list becomes byte rows once
per call, the rows of n^r values come from those of n^(r-1) values by
one vectorized uint64 multiply-and-carry pass over the limbs
(``_times``; every step is exact while the factor stays below 2^55),
and w is applied in one more such pass, by its 32-bit digits.  The rows
equal those of the int list in limb count, magnitudes and signs, so the
route, the bounds and the output are the same.

Every route is exact and gives exactly ``prec`` coefficients.

``correlate_sum(weights, ns, ops)``, the adjoint's L-sum, correlates
integers A with Scaled operands for many n at once by one float64 limb
product per row and column block, the package's one BLAS call, exact by
its certificate: every partial sum is an integer below 2^53.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import compress, islice
from typing import List, NamedTuple

# Loading numpy starts OpenBLAS's thread pool, one thread per core; on two
# cores that pool is about half of numpy's import time.  Load it with one
# thread unless the user chose a count, and leave the environment as it
# was.  The one BLAS call here is correlate_sum's float64 matmul (the FFT
# route is pocketfft), so it runs on the thread count set at import, and
# it is exact for any OPENBLAS_NUM_THREADS: its partial sums are integers
# below 2^53 in whatever order the threads add them.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# The slice-add route is taken when the sum over pairs of the sparser
# side's nonzero count times (the other side's length + _SLICE_OVERHEAD)
# is at most _SLICE_COST_FACTOR * prec * log2(prec) + _FFT_OVERHEAD, the
# FFT's cost.  One slice-add costs about as much as _SLICE_OVERHEAD more
# coefficients of a slice, so long dense pairs stay on the FFT;
# _FFT_OVERHEAD is the FFT route's fixed cost (loading numpy.fft, planning
# and the Python around its transforms), measured as the crossover of
# dense pairs near prec 75, so that tiny products keep to slice-adds.
_SLICE_COST_FACTOR = 32
_SLICE_OVERHEAD = 1024
_FFT_OVERHEAD = 1 << 16

# The slice-add route's certificate must stay below this: every int64
# product and partial sum is then exact.
_SLICE_LIMIT = 1 << 63

# The limb rule: a dense sum with an operand of more than this many byte
# limbs per coefficient of prec goes straight to Kronecker, whose one
# product grows more slowly than the FFT's limb products, quadratic in the
# limbs.  Placed from a sweep under the summed certificate (BENCH_27.json,
# limb_rule_sweep), in which the two routes crossed at 1.9 to 2.7; the
# ratio predates the per-shift certificate.  Under it (BENCH_29.json,
# limb_rule_sweep) there is no crossover at prec 100, where Kronecker wins
# throughout, it lies at 3 to 4 at prec 150 and past 6 at prec 200-300,
# so one ratio cannot follow it (ROADMAP item 9).
_KRONECKER_LIMB_RATIO = 2

# Bits per limb of the byte rows that both dense routes share.  Fixed, not a
# setting: the rows are uint8, so any other value gives wrong limbs.
_LIMB_BITS = 8
_LIMB_MAX = (1 << _LIMB_BITS) - 1

# Widths of the FFT route's balanced limbs, widest first.  The widest whose
# rounding bound holds is taken: for [E4, E6]_3 (length 8000, ~110-bit
# coefficients) that is 14 bits, bound ~0.24, while 16-bit limbs give ~3.
# 16 at most keeps every limb step within int32.
_FFT_LIMB_BITS = range(16, _LIMB_BITS - 1, -1)

# The FFT route runs at a width whose a-priori rounding bound is below this
# (rint is then exact with room to spare), and is kept only when every
# computed value lies within _RESIDUAL_LIMIT of an integer.
_CERT_LIMIT = 0.25
_RESIDUAL_LIMIT = 0.125

_EPS = 2.0**-53

# correlate_sum's column blocks of at most _BLOCK_TERMS terms, each a product
# of signed 16-bit limbs, keep its float64 partial sums below 2^44 <= 2^53.
_BLOCK_TERMS = 1 << 12
_LIMB16_SQUARE = ((1 << 16) - 1) ** 2

# Bytes of the int64 word that narrow byte rows are read and written as.
_WORD_BYTES = 8
# Wide byte rows are joined, and read back, this many at a time (see
# _byte_rows and _ints_from_rows).
_JOIN_ROWS = 1 << 10


def int64_array(values):
    """The Python ints values as one new little-endian int64 array.

    OverflowError when some value is beyond int64; each caller keeps its
    own path for that case.  np.fromiter, told the dtype and the length,
    reads ints faster than np.array, which first inspects every value.
    """
    return np.fromiter(values, "<i8", len(values))


def _listed(values):
    """values as Python ints: an int64 array's tolist, rows read by
    _wide_ints, any other list as it is."""
    if not isinstance(values, np.ndarray):
        return values
    return values.tolist() if values.ndim == 1 else _wide_ints(values)


def ints_at(values, at):
    """[values[n] for n in at] as Python ints; an array (rows included) is
    read by one gather, so only the values at those positions become ints."""
    if isinstance(values, np.ndarray):
        return _listed(values[at])
    return [values[n] for n in at]


def _nonzero_mask(array):
    """Which entries of an int64 array, or which rows, are nonzero."""
    return array.any(axis=1) if array.ndim > 1 else array


def _nonzero(values) -> list:
    """The positions of the nonzero entries of an int list or an array."""
    if isinstance(values, np.ndarray):
        return np.flatnonzero(_nonzero_mask(values)).tolist()
    return list(compress(range(len(values)), values))


def _peak(values) -> int:
    """max |v| over values, 0 when there are none."""
    if isinstance(values, np.ndarray):  # -(-2^63) is no int64: negate as an int
        return max(int(values.max(initial=0)), -int(values.min(initial=0)))
    return max(map(abs, values), default=0)


def _byte_rows(vals, width):
    """(len(vals), width) uint8 little-endian magnitudes of vals, and vals < 0.

    Every |v| must be below 2^(8 width).  An int64 array, and ints in rows
    of at most 7 bytes, which hold magnitudes below 2^56, are read as one
    int64 array (abs leaves -2^63 in place, whose bytes are those of 2^63);
    wider ints (a series read from JSON) are written one at a time, and
    joined _JOIN_ROWS at a time, since bytes.join holds an 80-byte buffer
    record per row it joins.  Two's-complement rows take _sign_magnitude.
    """
    array = isinstance(vals, np.ndarray)
    if array or width < _WORD_BYTES:
        # A new array either way: abs below writes in place.
        words = vals.astype("<i8") if array else int64_array(vals)
        neg = (words >> 63).astype(bool)  # the shift leaves -1 in negatives
        mags = np.abs(words, out=words).view(np.uint8)
        return mags.reshape(len(vals), _WORD_BYTES)[:, :width], neg
    mags = np.empty((len(vals), width), dtype=np.uint8)
    for start in range(0, len(vals), _JOIN_ROWS):
        part = vals[start : start + _JOIN_ROWS]
        raw = b"".join([abs(v).to_bytes(width, "little") for v in part])
        mags[start : start + len(part)] = np.frombuffer(raw, np.uint8).reshape(-1, width)
    return mags, np.fromiter((v < 0 for v in vals), bool, len(vals))


def _sign_bytes(rows):
    """The byte that sign-extends each row, 0 or 255, as a (count, 1) array."""
    return (rows[:, -1:] >> 7) * np.uint8(_LIMB_MAX)


def _extended(rows, width):
    """Two's-complement rows cut, or sign-extended, to width bytes: a new
    C-contiguous array."""
    out = np.empty((len(rows), width), np.uint8)
    keep = min(width, rows.shape[1])
    out[:, keep:] = _sign_bytes(rows)
    out[:, :keep] = rows[:, :keep]
    return out


def _read_rows(rows):
    """A uint8 array of signed little-endian two's-complement rows, as a
    series stores it: one int64 array when every value fits, else the rows
    trimmed to the bytes of the widest value, a new array.

    The top bytes that only repeat the sign are dropped as whole columns,
    compared as byte strings; one of them comes back when the sign bit of
    some row's new top byte disagrees with its sign.
    """
    sign, width = _sign_bytes(rows).tobytes(), rows.shape[1]
    while width and rows[:, width - 1].tobytes() == sign:
        width -= 1
    if width and _sign_bytes(rows[:, :width]).tobytes() != sign:
        width += 1
    if width <= _WORD_BYTES:
        return _extended(rows, _WORD_BYTES).view("<i8").reshape(len(rows))
    return _extended(rows, width)


def _wide_ints(rows) -> List[int]:
    """Each two's-complement row as a Python int.  Rows of at most 16 bytes
    are read as two int64 words, lo unsigned and hi signed, each value
    hi 2^64 + lo, by numpy's object loops one block of _JOIN_ROWS rows at a
    time (the FFT route's ~116-bit [E4, E6]_3 output, E6); wider rows one
    ``int.from_bytes`` each, from bytes objects made a block at a time."""
    count, width = rows.shape
    if width <= 2 * _WORD_BYTES:
        words, values = _extended(rows, 2 * _WORD_BYTES), []
        low, high = words.view("<u8")[:, 0], words.view("<i8")[:, 1]
        for start in range(0, count, _JOIN_ROWS):
            hi, lo = high[start : start + _JOIN_ROWS], low[start : start + _JOIN_ROWS]
            values += ((hi.astype(object) << 64) + lo.astype(object)).tolist()
        return values
    # Each block's rows become bytes objects in one C loop, the void view's
    # tolist, which holds one block of them at a time.
    voids = np.ascontiguousarray(rows).view(f"V{width}").reshape(count)
    return [
        int.from_bytes(row, "little", signed=True)
        for start in range(0, count, _JOIN_ROWS)
        for row in voids[start : start + _JOIN_ROWS].tolist()
    ]


def _ints_from_rows(rows) -> List[int]:
    """Each row of a uint8 array as a signed little-endian two's-complement
    int, in Python ints (_read_rows, listed)."""
    return _listed(_read_rows(rows))


def _words(rows):
    """Two's-complement rows as (count, k) little-endian uint64 words, the
    fewest that hold every row, sign-extended: a new array."""
    return _extended(rows, -(-rows.shape[1] // _WORD_BYTES) * _WORD_BYTES).view("<u8")


def _negated(words):
    """-x for the two's-complement value x of each row of uint64 words,
    modulo 2^(64 k): ~x + 1, the carry running up while the words below
    are zero."""
    out = ~words
    carry = np.ones(len(words), np.uint64)
    for j in range(words.shape[1]):
        out[:, j] += carry
        carry &= ~words[:, j].astype(bool)
    return out


def _without_twos(values, den):
    """(values / 2^s, den / 2^s) for an int64 array or rows and a den > 0,
    2^s the largest power of two that divides den and every value: the
    rows (an int64 array's are its 8 bytes) shift right by s bits across
    their words and are read again (_read_rows).  Only the bytes below the
    power of two in den are looked at."""
    if values.ndim == 1:
        values = np.ascontiguousarray(values, "<i8")
        rows = values.view(np.uint8).reshape(len(values), _WORD_BYTES)
    else:
        rows = values
    shift = (den & -den).bit_length() - 1
    low = np.bitwise_or.reduce(rows[:, : -(-shift // _LIMB_BITS)], axis=0)
    low = int.from_bytes(low.tobytes(), "little")  # every value's low bytes, or-ed
    if low:
        shift = min(shift, (low & -low).bit_length() - 1)
    if not shift or shift >= _LIMB_BITS * rows.shape[1]:  # the latter: every value is 0
        return values, den >> shift
    words = _words(rows)[:, shift // 64 :]
    out = words >> (shift % 64)
    if shift % 64:
        out[:, :-1] |= words[:, 1:] << (64 - shift % 64)
    out[:, -1] = (words[:, -1].view("<i8") >> (shift % 64)).view("<u8")  # the sign comes in
    return _read_rows(out.view(np.uint8)), den >> shift


def _spread(values, size, start=0, step=1):
    """size entries, values[i] at start + step i and 0 elsewhere: an array
    of values' kind (int64 or rows) when values is one, else an int list."""
    if isinstance(values, np.ndarray):
        out = np.zeros((size,) + values.shape[1:], values.dtype)
    else:
        out = [0] * size
    out[start : start + step * len(values) : step] = values
    return out


class _Rows(NamedTuple):
    """One operand in byte rows: ``mags`` (length, limbs) uint8 holds the
    8-bit limbs of each magnitude, with no all-zero top limb, so it has no
    limbs only when every value is zero; ``neg`` marks the negative values."""

    mags: np.ndarray
    neg: np.ndarray


class Scaled(NamedTuple):
    """The operand w * n^r * values[n], n = 0, 1, ..., kept as its parts.

    values is a list or tuple of Python ints, an int64 array or byte rows.
    Slice-adds read it as that list (``_ints``); the dense routes build its
    byte rows from those of ``values`` (``_dense_rows``)."""

    values: list
    w: int = 1
    r: int = 0


def _ints(op):
    """The int list w * n^r * values[n] of a Scaled operand; values as they
    are when w = 1 and r = 0 (an array included)."""
    w, r = op.w, op.r
    if w == 1 and not r:
        return op.values
    return [w * n**r * v if v else 0 for n, v in enumerate(_listed(op.values))]


def _sign_magnitude(values) -> _Rows:
    """An int list, an int64 array or two's-complement rows as byte rows
    (_Rows), with as many limbs as the largest magnitude needs: rows by
    negating their negative rows on uint64 words (_negated), the others by
    _byte_rows."""
    if not (isinstance(values, np.ndarray) and values.ndim > 1):
        limbs = (_peak(values).bit_length() + _LIMB_BITS - 1) // _LIMB_BITS
        return _Rows(*_byte_rows(values, limbs))
    words = _words(values)
    neg = (words[:, -1] >> 63).astype(bool)
    mags = np.where(neg[:, None], _negated(words), words).view(np.uint8)
    limbs = mags.shape[1]
    while limbs and not mags[:, limbs - 1].any():
        limbs -= 1
    return _Rows(mags[:, :limbs].copy(), neg)


def _times(mags, digits, step):
    """mags times sum_k digits[k] 2^(8 step k), with all-zero top limbs dropped.

    mags is (limbs, count) uint8, the limbs of one magnitude per column;
    each digit is a uint64 scalar or a (count,) uint64 array of one factor
    per column.  One pass over the output limbs adds each limb's products
    into a uint64 carry, keeps its low byte and carries the rest on.  With
    K digits below c, the carry stays at most K c and each step's sum below
    256 K c, so every step is exact while K c < 2^56.
    """
    limbs, count = mags.shape
    if not limbs:
        return mags
    top = max(int(np.max(d)) for d in digits)
    size = limbs + step * (len(digits) - 1) + (top.bit_length() + 7) // 8
    out = np.empty((size, count), dtype=np.uint8)
    carry = np.zeros(count, dtype=np.uint64)
    term = np.empty(count, dtype=np.uint64)
    for j in range(size):
        for k, d in enumerate(digits):
            if 0 <= j - step * k < limbs:
                carry += np.multiply(mags[j - step * k], d, out=term)
        np.bitwise_and(carry, _LIMB_MAX, out=out[j], casting="unsafe")
        carry >>= _LIMB_BITS
    while size and not out[size - 1].any():
        size -= 1
    return out if size == len(out) else out[:size].copy()


def _dense_rows(ops, at=None):
    """Each Scaled operand in ops as byte rows (_Rows), in order, equal to
    the byte rows of its int list in limb count, magnitudes and signs,
    without forming that list; with at, a list of positions n, the rows at
    those n only.

    Each distinct values list becomes byte rows once (_sign_magnitude; with
    at, its values at those n gathered first).  The rows of n^r values come
    from those of n^(r-1) values by one _times pass with the factors n
    (below 2^55 for any list that fits in memory), walking r upwards and
    keeping only the current power; |w| then multiplies by its 32-bit
    digits in one more pass.
    """
    wanted = {(id(op.values), op.r, op.w): op.values for op in ops}
    built, base = {}, None
    for key in sorted(wanted):
        ident, r, w = key
        if base != ident:
            base, power = ident, 0
            values = wanted[key]
            if at is None:
                factors = [np.arange(len(values), dtype=np.uint64)]
            else:
                array = isinstance(values, np.ndarray)  # rows included
                values = values[at] if array else [values[n] for n in at]
                factors = [np.array(at, dtype=np.uint64)]
            mags, neg = _sign_magnitude(values)
            mags = mags.T
        while power < r:
            mags = _times(mags, factors, 0)
            power += 1
        if abs(w) == 1:
            scaled = mags
        elif w:
            digits = [
                np.uint64((abs(w) >> s) & 0xFFFFFFFF)
                for s in range(0, w.bit_length(), 32)
            ]
            scaled = _times(mags, digits, 4)
        else:
            scaled = mags[:0]
        built[key] = _Rows(scaled.T, (neg != (w < 0)) & scaled.any(axis=0))
    return [built[id(op.values), op.r, op.w] for op in ops]


def _kronecker_eval(op: _Rows, width: int) -> int:
    """sum_i v_i 2^(8 width i) over the operand's values v_i, for width at
    least its limb count: positive part minus negative part."""
    mags = np.zeros((len(op.mags), width), dtype=np.uint8)
    mags[:, : op.mags.shape[1]] = op.mags
    pos, negs = (
        int.from_bytes((mags * keep[:, None]).tobytes(), "little")
        for keep in (~op.neg, op.neg)
    )
    return pos - negs


def _convolve_kronecker(terms, prec):
    """Exact truncated sum of convolutions via Kronecker substitution.

    Every operand is evaluated at X = 2^(8 width), with every coefficient
    c_i of the sum below X/2 in magnitude, and the pairs' signed
    big-integer products are added.  Adding X/2 to every slot makes slot
    i hold c_i + X/2 in [0, X), with no borrow between slots; flipping
    each slot's top bit then leaves c_i in two's complement.  The slots
    are read as _fft_sum's rows are: an int64 array when every c_i fits.
    """
    if not terms:
        return [0] * prec
    # An operand of L limbs has magnitudes below 2^(8 L).
    bound = sum(
        min(len(a.mags), len(b.mags)) << _LIMB_BITS * (a.mags.shape[1] + b.mags.shape[1])
        for a, b in terms
    )
    width = (bound.bit_length() + 8) // 8 + 1  # bytes per slot, with headroom
    slots = max(len(a.mags) + len(b.mags) for a, b in terms) - 1
    n_out = min(prec, slots)
    total = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")  # X/2 each
    for a, b in terms:
        total += _kronecker_eval(a, width) * _kronecker_eval(b, width)
    data = total.to_bytes(width * slots, "little")
    rows = np.frombuffer(data, np.uint8, width * n_out).reshape(n_out, width).copy()
    rows[:, -1] ^= 0x80
    return _spread(_read_rows(rows), prec)


def _fft_length(n: int) -> int:
    """The least 5-smooth integer >= n (pocketfft's fast sizes)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _limb_maxima(size, bits):
    """The largest magnitude each balanced bits-bit limb row (_limb_rows)
    of an operand may hold, lowest limb first, as floats, when its largest
    magnitude has bit length size: size // bits limbs of at most
    2^(bits-1), then a top limb of at most 2^(size mod bits)."""
    maxima = np.full(size // bits + 1, float(1 << bits - 1))
    maxima[-1] = 1 << size % bits
    return maxima


def fft_error_bound(shapes, bits) -> float:
    """A-priori bound on the rounding error of every limb-shift sum of
    convolve_fft on balanced bits-bit limbs.

    shapes holds, per pair, the (length, B) of its two operands, B the bit
    length of the largest magnitude; each limb row x_i of such an operand
    has entries at most m_i, its _limb_maxima, so ||x_i|| <= m_i sqrt(length).
    All pairs are transformed at the one length N = _fft_length of the
    longest product, and k = ceil(log2 N).

    C. Percival, "Rapid multiplication modulo the sum and difference of
    highly composite numbers", Math. Comp. 72 (2003), Thm 5.1: a
    floating-point FFT convolution of x and y, of length 2^k, is off by
    less than ||x|| ||y|| G in every coordinate, G = (1+e)^3k
    (1+e sqrt5)^(3k+1) (1+b)^3k - 1, with e the unit roundoff and b the
    error of the precomputed twiddle factors; here e = b = 2^-53.

    _fft_sum gets shift s from one inverse transform of the sum, in the
    frequency domain, of the products of the spectra of limb rows a_i and
    b_j with i + j = s, over every pair: in any one shift at most M = the
    sum over pairs of min(limbs_a, limbs_b) products.  The proof of Thm 5.1
    bounds the error of the two spectra and of their pointwise product (its
    factor 1 + e sqrt5) relative to ||x|| ||y||, and then the error of the
    inverse transform by a norm of the spectrum it is given.  Adding m <= M
    products one after another, the first onto zero, rounds each real and
    imaginary part at most m - 1 times, so the computed sum is the exact
    sum of the products, each changed componentwise by a relative error of
    at most g = (M-1) e / (1 - (M-1) e) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1 and sec. 4.2).  That is one
    more relative rounding of every product, after its own; and a norm of
    the sum is at most the sum of the products' norms.  So the computed
    shift s is off by less than

        E_s = ((1+G)(1+g) - 1) sum over pairs of sum_{i+j=s} ||a_i|| ||b_j||

    in every coordinate, and the bound is max_s E_s, with the norms taken
    as m_i sqrt(length): per pair one np.convolve of the two operands'
    limb maxima, times sqrt(len_a len_b).  Below 1/4 it certifies that
    rint gives every shift exactly.  By Cauchy-Schwarz each exact value of
    shift s is at most that double sum of norms, which is then below
    (1/4) / (e sqrt5) < 2^50 (G >= e sqrt5); _fft_sum's carry pass relies
    on this.

    The theorem is stated for radix-2 transforms; it is applied to
    numpy's pocketfft, which runs mixed radix on the 5-smooth N used
    here, under the assumption that its transforms meet the same error
    model.  convolve_fft therefore also checks every computed value's
    distance to the nearest integer at run time.
    """
    shapes = list(shapes)
    if not shapes:
        return 0.0
    size = _fft_length(max(len_a + len_b for (len_a, _), (len_b, _) in shapes) - 1)
    k = (size - 1).bit_length()
    norms = np.zeros(max(a // bits + b // bits + 1 for (_, a), (_, b) in shapes))
    products = 0
    for (len_a, size_a), (len_b, size_b) in shapes:
        pair = np.convolve(_limb_maxima(size_a, bits), _limb_maxima(size_b, bits))
        norms[: len(pair)] += pair * math.sqrt(len_a * len_b)
        products += min(size_a, size_b) // bits + 1
    summation = (products - 1) * _EPS / (1 - (products - 1) * _EPS)
    growth = math.expm1(
        6 * k * math.log1p(_EPS)
        + (3 * k + 1) * math.log1p(_EPS * math.sqrt(5))
        + math.log1p(summation)
    )
    return float(norms.max()) * growth


def _bit_shape(op: _Rows):
    """(length, bit length of the largest magnitude) of a nonzero operand."""
    length, limbs = op.mags.shape
    return length, _LIMB_BITS * (limbs - 1) + int(op.mags[:, -1].max()).bit_length()


def _limb_width(terms):
    """(bits, bound): the widest width in _FFT_LIMB_BITS whose balanced
    limbs' fft_error_bound is below _CERT_LIMIT, and that bound; (None,
    the bound at the narrowest width) when no width certifies."""
    shapes = [(_bit_shape(a), _bit_shape(b)) for a, b in terms]
    for bits in _FFT_LIMB_BITS:
        bound = fft_error_bound(shapes, bits)
        if bound < _CERT_LIMIT:
            return bits, bound
    return None, bound


def _limb_rows(op: _Rows, bits, out):
    """Yield op's balanced bits-bit limb rows, lowest first, each written
    into out (float64, one entry per value): the d_i with every value
    v = sum_i d_i 2^(bits i), the digits of |v| in (-2^(bits-1), 2^(bits-1)]
    times the sign of v.  There are B // bits + 1 of them, B as in
    _bit_shape: the top one takes the balanced carry (2^16 - 1 has the
    three 8-bit limbs -1, 0 and 1, and 2^63 - 1 the 16-bit limbs -1, 0, 0
    and 2^15).

    Each magnitude's bytes feed one int32 accumulator, per limb until it
    holds bits bits or the bytes run out.  Its digit is d = ((acc + h - 1)
    mod 2^bits) - (h - 1), h = 2^(bits-1), the residue of acc in (-h, h],
    and acc keeps (acc - d) / 2^bits, the carry included; d then takes the
    value's sign.  acc stays below 2^(bits+8) + h, within int32.
    """
    length, nbytes = op.mags.shape
    half = 1 << bits - 1
    signs = np.where(op.neg, -1.0, 1.0)
    acc = np.zeros(length, np.int32)
    digit = np.empty(length, np.int32)
    held = byte = 0
    for _ in range(_bit_shape(op)[1] // bits + 1):
        while held < bits and byte < nbytes:
            acc += np.left_shift(op.mags[:, byte], held, out=digit, dtype=np.int32)
            held, byte = held + _LIMB_BITS, byte + 1
        acc += half - 1
        np.bitwise_and(acc, (1 << bits) - 1, out=digit)
        acc >>= bits
        held -= bits
        np.subtract(digit, half - 1, out=out)
        yield np.multiply(out, signs, out=out)


def convolve_fft(terms, prec):
    """Exact truncated sum of convolutions by a limb-split floating-point FFT.

    terms holds the pairs as byte rows (_Rows), every operand nonzero.
    The pairs are transformed, by _fft_sum, at the widest balanced limb
    width in 16..8 whose fft_error_bound, the largest rounding bound of a
    limb shift (Percival 2003, Thm 5.1, applied to numpy's pocketfft under
    the assumption stated there), certifies rounding, i.e. is below 1/4
    (_limb_width).  Returns None, and computes nothing, when no width
    certifies; None when some computed value lies farther than 1/8 from an
    integer; and otherwise exactly ``prec`` values, an int64 array when
    every one fits, else byte rows (_read_rows).

    Once a width certifies, the list is the sum's: _fft_sum takes each
    pair out of it (its entry becomes None) as it reads it, so the byte
    rows are released pair by pair, each once its limb rows are
    transformed, unless the caller holds them elsewhere (a caller that
    reuses the rows passes a copy).  When no width certifies the list is
    untouched, and convolve_sum hands the same rows to Kronecker; when the
    residual check refuses, it builds them again for Kronecker.
    """
    bits = _limb_width(terms)[0]
    return None if bits is None else _fft_sum(terms, prec, bits)


def _fft_sum(terms, prec, bits):
    """convolve_fft's sum on balanced bits-bit limbs, with no bound checked.

    Each coefficient is split into limbs carrying its sign (_limb_rows);
    the limb rows are transformed with real FFTs of a 5-smooth length
    N >= the longest len(a) + len(b) - 1, and the products of limb rows i
    and j of every pair are summed in the frequency domain per shift
    s = i + j.  One inverse FFT per shift then gives integers after rint.
    The shifts, of weight 2^(bits s), are carry-normalised into the bytes
    of one row per coefficient: an int64 carry at the weight of the next
    byte takes each shift and gives up every byte below bit bits (s + 1).
    The final carry is appended as 8 more bytes, so that the row read as a
    signed int is the coefficient (_read_rows: an int64 array when every
    coefficient fits one, else the rows trimmed; padded with zeros to prec
    by _spread).  None when a value lies farther than _RESIDUAL_LIMIT from
    an integer.

    The pairs are read in order, each taken out of terms (its entry set
    to None) as it is read, so a pair's byte rows are released once its
    limb rows are transformed and the next pair is read; by the last pair
    only its own rows are alive.  Per pair, only the spectra of the
    operand with fewer limbs are kept.  A shift's sum is allocated when a
    product first reaches it, and finished and released as soon as no
    product is left for it: in the last pair, after its row s of the other
    operand.  One pair thus keeps as many sums as its smaller limb count,
    and several pairs at most one per shift.
    """
    if not terms:
        return [0] * prec
    counts = [
        tuple(_bit_shape(op)[1] // bits + 1 for op in pair) for pair in terms
    ]
    longest = max(len(a.mags) + len(b.mags) for a, b in terms) - 1
    n_out = min(prec, longest)
    size = _fft_length(longest)
    shifts = max(map(sum, counts)) - 1
    # Fixed buffers, reused for every limb row and shift: `row` holds a
    # signed limb row, then the rounded values of a shift; `prod` holds
    # one limb product, then the inverse transform of a shift, then (as
    # `whole`, once the residual is checked) that shift's int64 values
    # scaled to the weight of the next byte.
    row = np.empty(max(n_out, *(max(len(a.mags), len(b.mags)) for a, b in terms)))
    spec = np.empty(size // 2 + 1, dtype=np.complex128)
    prod = np.empty_like(spec)
    x = prod.view(np.float64)[:size]
    whole = prod.view(np.int64)[:n_out]
    sums = [None] * shifts  # the frequency-domain sum of each open shift
    # Row i: the bytes of coefficient i below bit bits * shifts, then its
    # final carry.  Every shift is below 2^50 in magnitude (fft_error_bound).
    # After shift s the carry holds the shifts up to s, whose sum is below
    # 2^(bits s + 50) 256/255, over the at least 2^(bits s + 1) of the bytes
    # written, so it is below 2^50; the next shift lands at most 7 bits
    # above the carry's weight, so the carry stays below 2^58.
    done = bits * shifts // _LIMB_BITS
    digits = np.empty((n_out, done + 8), dtype=np.uint8)
    carry = np.zeros(n_out, dtype="<i8")
    finished = written = 0

    def finish(end):
        """Round shifts finished..end-1 and carry them into the digits;
        False when a value lies farther than _RESIDUAL_LIMIT from an integer."""
        nonlocal finished, written
        for s in range(finished, end):
            np.fft.irfft(sums[s], size, out=x)
            sums[s] = None
            value = x[:n_out]
            rounded = np.rint(value, out=row[:n_out])
            residual = np.abs(np.subtract(value, rounded, out=value), out=value)
            if np.max(residual) > _RESIDUAL_LIMIT:
                return False
            # Bit bits * s lies 0-7 bits above the next byte, written.
            scale = 1 << bits * s - _LIMB_BITS * written
            np.add(carry, np.multiply(rounded, scale, out=whole, casting="unsafe"),
                   out=carry)
            while _LIMB_BITS * (written + 1) <= bits * (s + 1):
                np.bitwise_and(carry, _LIMB_MAX, out=digits[:, written], casting="unsafe")
                np.right_shift(carry, _LIMB_BITS, out=carry)
                written += 1
        finished = end
        return True

    last = len(terms) - 1
    for t, (count_a, count_b) in enumerate(counts):
        (a, b), terms[t] = terms[t], None
        if count_b > count_a:
            a, b = b, a
        spectra_b = [
            np.fft.rfft(limb, size) for limb in _limb_rows(b, bits, row[: len(b.mags)])
        ]
        for i, limb in enumerate(_limb_rows(a, bits, row[: len(a.mags)])):
            np.fft.rfft(limb, size, out=spec)
            for j, spec_b in enumerate(spectra_b):
                if sums[i + j] is None:
                    sums[i + j] = np.zeros_like(spec)
                sums[i + j] += np.multiply(spec, spec_b, out=prod)
            if t == last and not finish(i + 1):
                return None
        del spectra_b
    if not finish(shifts):
        return None
    digits[:, done:] = carry.view(np.uint8).reshape(n_out, 8)
    return _spread(_read_rows(digits), prec)


def _slice_terms(held, nonzeros):
    """(terms, bound): per pair with a nonzero sparser side a, the tuple
    (indices of a's nonzeros, those values as Python ints, the other side
    b as an int64 array), and the certificate bound = sum over pairs of
    sum_i |a_i| * max|b|; (None, bound) as soon as the bound summed so far
    reaches _SLICE_LIMIT.

    held and nonzeros are _read_pairs' pairs and nonzero counts; the
    sparser side is the one with fewer nonzeros, the first on a tie.  A
    side that is an int64 array (convolve_power's running product) is
    read as it is, rows through _read_rows and an int list through
    int64_array.  A pair whose sparser side is all zero is skipped before
    its other side is read: that side may hold values an int64 cannot.
    """
    terms, bound = [], 0
    for (a, b), (nnz_a, nnz_b) in zip(held, nonzeros):
        if not min(nnz_a, nnz_b):
            continue
        if nnz_a > nnz_b:
            a, b = b, a
        a, b = _ints(a), _ints(b)
        index = _nonzero(a)
        values = ints_at(a, index)
        if isinstance(b, np.ndarray) and b.ndim > 1:
            b = _read_rows(b)
            b = b if b.ndim == 1 else _listed(b)  # past int64: refused below
        try:
            array = b if isinstance(b, np.ndarray) else int64_array(b)
            peak = _peak(array)
        except OverflowError:
            # Some |b_j| >= 2^63, so the bound reaches the limit below.
            peak = _peak(b)
        bound += sum(map(abs, values)) * peak
        if bound >= _SLICE_LIMIT:
            return None, bound
        terms.append((index, values, array))
    return terms, bound


def _convolve_slices(terms, prec):
    """The sum of the pairs' products, as the int64 array it is made on.

    For each nonzero a_i of a pair's sparser side, b[:prec - i] goes into
    out[i:] times a_i.  The slices of a value that occurs more than once
    are added into one scratch accumulator, which is multiplied by that
    value once (theta's 2s); a value that occurs once is multiplied and
    added on its own.  terms comes from _slice_terms, whose bound, below
    2^63, is at least every |a_i * b_j|, every scratch sum times its value
    and every partial sum's magnitude, so no int64 step overflows.
    """
    out = np.zeros(prec, dtype=np.int64)
    scratch = np.empty(prec, dtype=np.int64)
    for index, values, array in terms:
        starts = {}
        for i, v in zip(index, values):
            starts.setdefault(v, []).append(i)
        for v, group in starts.items():
            if len(group) == 1:
                (i,) = group
                n = min(len(array), prec - i)
                out[i : i + n] += np.multiply(array[:n], v, out=scratch[:n])
                continue
            low = group[0]  # index is increasing
            acc = scratch[low:]
            acc.fill(0)
            for i in group:
                n = min(len(array), prec - i)
                acc[i - low : i - low + n] += array[:n]
            out[low:] += np.multiply(acc, v, out=acc)
    return out


def _cut(op, prec):
    """(op as a Scaled cut to prec, copied only when longer, its length, its
    nonzero count); a values list of any backing is taken as Scaled(op)."""
    op = op if isinstance(op, Scaled) else Scaled(op)
    values = op.values if len(op.values) <= prec else op.values[:prec]
    nnz = 0
    if op.w:
        if isinstance(values, np.ndarray):
            nnz = int(np.count_nonzero(_nonzero_mask(values)))
        else:
            nnz = len(values) - values.count(0)
        nnz -= bool(op.r and nnz and ints_at(values, [0])[0])  # n^r is 0 at n = 0
    return op._replace(values=values), len(values), nnz


def _read_pairs(pairs, prec):
    """(held, nonzeros, cost): the pairs cut to prec, in order, each
    operand a Scaled; each pair's two nonzero counts; and
    the slice-add cost, the sum over pairs of the sparser side's nonzero
    count times (the other side's length + _SLICE_OVERHEAD)."""
    held, nonzeros, cost = [], [], 0
    for a, b in pairs:
        (a, len_a, nnz_a), (b, len_b, nnz_b) = _cut(a, prec), _cut(b, prec)
        other = len_b if nnz_a <= nnz_b else len_a
        cost += min(nnz_a, nnz_b) * (other + _SLICE_OVERHEAD)
        held.append((a, b))
        nonzeros.append((nnz_a, nnz_b))
    return held, nonzeros, cost


def _dense_terms(held):
    """(terms, limbs): the pairs of held as byte rows (_Rows), less those
    with an all-zero operand, and the byte-limb count of every operand of
    held, in order."""
    rows = iter(_dense_rows([op for pair in held for op in pair]))
    pairs = list(zip(rows, rows))
    limbs = [op.mags.shape[1] for pair in pairs for op in pair]
    return [(a, b) for a, b in pairs if a.mags.shape[1] and b.mags.shape[1]], limbs


def _convolve(pairs, prec):
    """convolve_sum's sum, after its DEBUG line: the int64 array that
    slice-adds make it on, the dense routes' int64 array when every value
    fits one, else their byte rows (_read_rows)."""
    held, nonzeros, cost = _read_pairs(pairs, prec)
    logging = sys.modules.get("logging")  # never imported: DEBUG is off
    debug = logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG)
    detail = ""
    if debug and len(held) == 1:
        detail = " len=%d,%d" % tuple(len(op.values) for op in held[0])
    slice_terms = slice_bound = None
    fft_cost = _SLICE_COST_FACTOR * prec * math.log2(max(prec, 1)) + _FFT_OVERHEAD
    if cost <= fft_cost:
        slice_terms, slice_bound = _slice_terms(held, nonzeros)
    if slice_terms is not None:
        route, out = "slices", _convolve_slices(slice_terms, prec)
        if debug:
            detail += f" nnz={sum(map(min, nonzeros))} bound={slice_bound} limit=2^63"
    else:
        terms, limbs = _dense_terms(held)
        widest = max((op.mags.shape[1] for pair in terms for op in pair), default=0)
        wide = widest > _KRONECKER_LIMB_RATIO * prec  # the limb rule
        if debug:  # taken before the FFT route frees the rows
            if len(held) == 1:
                detail += " limbs=%d,%d" % tuple(limbs)
            if slice_bound is not None:  # slice-adds refused by their bound
                detail += f" slice_bound_bits={slice_bound.bit_length()}"
            if wide:
                detail += f" max_limbs={widest} limit={_KRONECKER_LIMB_RATIO * prec}"
            else:
                bits, bound = _limb_width(terms)
                detail += f" bound={bound} limit={_CERT_LIMIT}"
                if bits is not None:  # the FFT runs at this width
                    detail += f" limb_bits={bits}"
        out = None if wide else convolve_fft(terms, prec)
        route = "fft" if out is not None else "kronecker"
        if out is None:
            if terms and terms[0] is None:  # the FFT ran, freeing the rows
                terms = _dense_terms(held)[0]
            out = _convolve_kronecker(terms, prec)
    if debug:
        logging.getLogger(__name__).debug(
            "convolve_sum route=%s pairs=%d prec=%d%s", route, len(held), prec, detail
        )
    return out


def convolve_sum(pairs, prec):
    """Exact sum of the truncated convolutions a*b over the (a, b) in
    pairs; pairs may be any iterable, read once.  Each operand is a list
    of Python ints, an int64 array, byte rows or a ``Scaled(values, w,
    r)``, the list w * n^r * values[n], whose byte rows the dense routes
    build from those of values without forming its ints.

    Slice-adds run when the pairs' slice-add cost is at most
    _SLICE_COST_FACTOR * prec * log2(prec) + _FFT_OVERHEAD and their int64
    certificate holds; otherwise the Kronecker route when some operand has
    more than _KRONECKER_LIMB_RATIO * prec byte limbs (the limb rule), else
    the FFT route, and the Kronecker route when the FFT refuses.  Returns
    exactly ``prec`` Python ints, whichever route runs.  One DEBUG line per
    call names the route, the number of pairs, and for one pair the
    operands' lengths (and, on the dense routes, byte-limb counts), then
    the route's certificate against its limit: for slice-adds the sparser
    sides' nonzero count and the int64 bound; for the dense routes, after
    ``slice_bound_bits=`` when the int64 bound refused slice-adds, the
    largest byte-limb count ``max_limbs=`` against twice prec when the limb
    rule chose Kronecker, and otherwise the FFT bound at the widest
    certified width (8 bits when none certifies) against 1/4, then
    ``limb_bits=``, that width, when one certifies.  ``logging`` is not
    imported here.
    """
    return _listed(_convolve(pairs, prec))


def convolve_exact(a, b, prec):
    """Exact truncated convolution of two lists of Python ints: the
    one-pair case of convolve_sum."""
    return convolve_sum([(a, b)], prec)


def _convolve_power(acc, base, n, prec):
    """convolve_power's product, as _convolve gives its last factor."""
    for _ in range(n):
        acc = _convolve([(acc, base)], prec)
    return acc


def convolve_power(acc, base, n, prec):
    """acc * base^n truncated to prec, base multiplied in one factor at a
    time (n >= 1), as exactly ``prec`` Python ints.

    Each product is the one pair (running product, base) of convolve_sum,
    with its route rule, certificate and DEBUG line.  While slice-adds
    make the products, the running product stays the int64 array they
    make it on, and is converted to Python ints once, at the end; a
    product that the cost rule or the certificate refuses takes the dense
    routes, from Python ints, exactly as convolve_exact would.
    """
    return _listed(_convolve_power(acc, base, n, prec))


def _limbs16(mags, neg):
    """(rows, ceil(limbs / 2)) float64: byte rows' magnitudes as 16-bit
    limbs, each carrying its row's sign."""
    rows, limbs = mags.shape
    pairs = np.zeros((rows, limbs + limbs % 2), np.uint8)
    pairs[:, :limbs] = mags
    out = pairs.view("<u2").astype(np.float64)
    out *= np.where(neg, -1.0, 1.0)[:, None]
    return out


def correlate_sum(weights, ns, ops):
    """For every n in ns, [sum_m A[n+m] op[m] for op in ops] in Python ints.

    ops are Scaled operands of one values list; its K nonzero entries are
    the terms m.  weights(js) returns A[j] for an increasing list of j and
    is asked once for each j = n + m that a term reaches.  A and the
    operands are split into signed 16-bit limbs, through ``_byte_rows``
    and ``_dense_rows``, and one float64 ``np.matmul`` per row and column
    block of at most _BLOCK_TERMS terms multiplies a window (consecutive
    j) or a gather of A's limbs with every operand's limbs.  Every partial
    sum is an integer below 2^53, exact in any order of addition and with
    any number of BLAS threads; the blocks add up in int64, exact while
    K (2^16 - 1)^2 < 2^62, and a carry pass and shifts recombine the limbs.
    One DEBUG line per call gives the rows, K, the limb counts of A (its
    widest block) and of each operand, the blocks, and the bit length of
    the float64 certificate against 53; ``logging`` is not imported here.
    """
    b = ops[0].values
    if any(op.values is not b for op in ops):
        raise ValueError("the operands must share one values list")
    nonzero = _nonzero(b)
    if len(nonzero) * _LIMB16_SQUARE >= 1 << 62:
        raise ValueError(f"{len(nonzero)} terms overflow the int64 sum of the blocks")
    g_rows = _dense_rows(ops, nonzero)
    terms = np.array(nonzero, dtype=np.int64)
    g_limbs = [(rows.mags.shape[1] + 1) // 2 for rows in g_rows]
    rows = np.fromiter(ns, np.int64, len(ns))
    low, high = int(rows.min()), int(rows.max())
    reached = np.zeros(high + int(terms.max(initial=0)) + 1, bool)
    for n in rows.tolist():
        reached[terms + n] = True
    acc = np.zeros((len(rows), sum(g_limbs), 0), np.int64)
    held, done = [], -1  # A[j] at the last block's reached j, up to done
    blocks = range(0, len(terms), _BLOCK_TERMS)
    for start in blocks:
        cut = slice(start, start + _BLOCK_TERMS)
        offsets = terms[cut] - terms[start]
        lo = low + int(terms[start])
        # The table holds A[j] at every reached j of the window, index[j - lo]
        # its row; A at the j up to the last block's end, done, are kept.
        window = reached[lo : high + int(terms[cut][-1]) + 1]
        index = np.cumsum(window) - 1
        skip = max(done + 1 - lo, 0)
        kept = int(index[skip - 1]) + 1 if skip else 0
        fresh = (np.flatnonzero(window[skip:]) + (lo + skip)).tolist()
        held = held[len(held) - kept :] + weights(fresh)
        done = lo + len(window) - 1
        width = (max(map(abs, held)).bit_length() + 15) // 16
        table = _limbs16(*_byte_rows(held, 2 * width))
        y = np.concatenate([_limbs16(r.mags[cut], r.neg[cut]) for r in g_rows], 1)
        if width > acc.shape[2]:
            grow = np.zeros(acc.shape[:2] + (width - acc.shape[2],), np.int64)
            acc = np.concatenate([acc, grow], axis=2)
        span = int(offsets[-1])
        for out, t in zip(acc, (rows - low).tolist()):
            first = int(index[t])
            if index[t + span] - first == len(offsets) - 1:  # consecutive j
                a = table[first : first + len(offsets)]
            else:
                a = table[index[offsets + t]]
            out[:, :width] += np.matmul(y.T, a).astype(np.int64)
    logging = sys.modules.get("logging")  # never imported: DEBUG is off
    if logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG):
        logging.getLogger(__name__).debug(
            "correlate_sum rows=%d terms=%d limbs=%d,%s blocks=%d bound_bits=%d "
            "limit_bits=53", len(rows), len(terms), acc.shape[2],
            "+".join(map(str, g_limbs)), len(blocks),
            (min(len(terms), _BLOCK_TERMS) * _LIMB16_SQUARE).bit_length(),
        )
    # Per row and operand limb: the base-2^16 digits of sum_i acc[..., i]
    # 2^(16 i), then the final int64 carry.
    sums = acc.reshape(acc.shape[0] * acc.shape[1], acc.shape[2])
    digits = np.empty(sums.shape, "<u2")
    carry = np.zeros(len(sums), "<i8")
    for i in range(sums.shape[1]):
        carry += sums[:, i]
        np.bitwise_and(carry, 0xFFFF, out=digits[:, i], casting="unsafe")
        carry >>= 16
    digit_rows = np.concatenate([digits.view(np.uint8), carry[:, None].view(np.uint8)], 1)
    limb_sums = iter(_ints_from_rows(digit_rows))
    return [
        [
            sum(map(int.__lshift__, islice(limb_sums, k), range(0, 16 * k, 16)))
            for k in g_limbs
        ]
        for _ in ns
    ]
