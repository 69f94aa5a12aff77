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
  every pair's limb products in the frequency domain, for dense inputs
  whose summed a-priori rounding bound (Percival 2003, Thm 5.1, applied
  to numpy's pocketfft under the assumption stated in
  ``fft_error_bound``) for unsigned 8-bit limbs and run-time residual
  check both hold; it then transforms balanced signed limbs of the widest
  width in [8, 16] whose own bound also holds,
* Kronecker substitution on Python big integers (the pairs' signed
  products added into one integer), only when that bound or that check
  fails.

Python ints enter numpy through one reader, ``int64_array``, wherever
they may fit an int64: slice-adds' dense side, narrow byte rows and, in
``adjoint``, the tail fit's float screen; each caller keeps its own path
for values beyond int64.  Both dense routes share one byte-row format:
``_byte_rows`` turns ints into rows of little-endian magnitude bytes and
a negative mask, and ``_ints_from_rows`` reads rows back as signed
two's-complement ints.  The FFT route builds its wider limbs from the
byte rows one limb row at a time, and packs its coefficients back into
byte rows.  The codec picks how from its input: rows of at
most 7 bytes are written, and rows whose values all fit in an int64 are
read, as one int64 array; wider rows go through ``int.to_bytes`` and
``int.from_bytes`` one int at a time.
Every operand is held as a ``Scaled(values, w, r)``, the list
w * n^r * values[n]: an int list (or a chain's int64 array) as
``Scaled(list)``, with w = 1 and r = 0, the bracket's operands with their
own w and r.  Slice-adds read it as that int list.  The dense routes
never form its ints: each distinct values list becomes byte rows once
per call, the rows of n^r values come from those of n^(r-1) values by
one vectorized uint64 multiply-and-carry pass over the limbs
(``_times``; every step is exact while the factor stays below 2^55),
and w is applied in one more such pass, by its 32-bit digits.  The rows
equal those of the int list in limb count, magnitudes and signs, so the
route, the bounds and the output are the same.

Every route is exact and returns exactly ``prec`` Python ints.

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
from typing import List, NamedTuple, Optional

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

# Bits per limb of the byte rows that both dense routes share, and of the
# unsigned limbs of the FFT route's certificate.  Fixed, not a setting: the
# rows are uint8, so any other value gives wrong limbs.
_LIMB_BITS = 8
_LIMB_MAX = (1 << _LIMB_BITS) - 1

# Widths of the FFT route's balanced limbs, widest first.  The widest whose
# rounding bound holds is taken: for [E4, E6]_3 (length 8000, ~110-bit
# coefficients) that is 12 bits, bound ~0.12, while 16-bit limbs give ~16;
# the bound at 8 bits is below the unsigned bytes', so 8 always holds when
# the certificate does.  16 at most keeps every limb step within int32.
_FFT_LIMB_BITS = range(16, _LIMB_BITS - 1, -1)

# The FFT route is taken when the a-priori rounding bound is below this
# (rint is then exact with room to spare), and kept only when every
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
# Wide byte rows are joined this many at a time (see _byte_rows).
_JOIN_ROWS = 1 << 12


def int64_array(values):
    """The Python ints values as one new little-endian int64 array.

    OverflowError when some value is beyond int64; each caller keeps its
    own path for that case.  np.fromiter, told the dtype and the length,
    reads ints faster than np.array, which first inspects every value.
    """
    return np.fromiter(values, "<i8", len(values))


def _byte_rows(vals, width):
    """(len(vals), width) uint8 little-endian magnitudes of vals, and vals < 0.

    Every |v| must be below 2^(8 width).  Rows of at most 7 bytes hold
    magnitudes below 2^56, which are read as one int64 array; wider rows
    are written one int at a time, and joined _JOIN_ROWS at a time, since
    bytes.join holds an 80-byte buffer record per row it joins.
    """
    if width < _WORD_BYTES:
        words = int64_array(vals)
        neg = (words >> 63).astype(bool)  # the shift leaves -1 in negatives
        mags = np.abs(words, out=words).view(np.uint8)
        return mags.reshape(len(vals), _WORD_BYTES)[:, :width], neg
    mags = np.empty((len(vals), width), dtype=np.uint8)
    for start in range(0, len(vals), _JOIN_ROWS):
        part = vals[start : start + _JOIN_ROWS]
        raw = b"".join([abs(v).to_bytes(width, "little") for v in part])
        mags[start : start + len(part)] = np.frombuffer(raw, np.uint8).reshape(-1, width)
    return mags, np.fromiter((v < 0 for v in vals), bool, len(vals))


def _ints_from_rows(rows) -> List[int]:
    """Each row of a uint8 array as a signed little-endian two's-complement int.

    When rows have at least 8 bytes and every row's bytes past the 8th
    only sign-extend its first 8 (every value fits in an int64), the rows
    are read as one int64 array; otherwise one int at a time.
    """
    count, width = rows.shape
    if width >= _WORD_BYTES:
        low = np.ascontiguousarray(rows[:, :_WORD_BYTES]).view("<i8").reshape(count)
        # Compared as byte strings: the first call of a numpy comparison
        # loop would map about 128 KB more of numpy's code.
        extension = (low >> 63).astype(np.uint8).repeat(width - _WORD_BYTES)
        if rows[:, _WORD_BYTES:].tobytes() == extension.tobytes():
            return low.tolist()
    raw = rows.tobytes()
    return [
        int.from_bytes(raw[off : off + width], "little", signed=True)
        for off in range(0, len(raw), width)
    ]


class _Rows(NamedTuple):
    """One operand in byte rows: ``mags`` (length, limbs) uint8 holds the
    8-bit limbs of each magnitude, with no all-zero top limb, so it has no
    limbs only when every value is zero; ``neg`` marks the negative values."""

    mags: np.ndarray
    neg: np.ndarray


class Scaled(NamedTuple):
    """The operand w * n^r * values[n], n = 0, 1, ..., kept as its parts.

    Slice-adds read it as that int list; the dense routes build its byte
    rows from those of ``values`` (``_dense_rows``)."""

    values: list
    w: int = 1
    r: int = 0


def _ints(op):
    """The int list w * n^r * values[n] of a Scaled operand."""
    w, r = op.w, op.r
    if w == 1 and not r:
        return op.values
    return [w * n**r * v if v else 0 for n, v in enumerate(op.values)]


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

    Each distinct values list becomes byte rows once, with as many limbs
    as its largest magnitude needs (an int64 array, convolve_power's
    running product, as its list of ints).  The rows of n^r values come
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
            if isinstance(values, np.ndarray):
                values = values.tolist()
            if at is None:
                factors = [np.arange(len(values), dtype=np.uint64)]
            else:
                values = [values[n] for n in at]
                factors = [np.array(at, dtype=np.uint64)]
            peak = max(map(abs, values), default=0)
            limbs = (peak.bit_length() + _LIMB_BITS - 1) // _LIMB_BITS
            mags, neg = _byte_rows(values, limbs)
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
    each slot's top bit then leaves c_i in two's complement.
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
    return _ints_from_rows(rows) + [0] * (prec - n_out)


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


def fft_error_bound(shapes, bits=None) -> float:
    """A-priori bound on the rounding error of each limb-shift sum of convolve_fft.

    shapes holds, per pair, the (length, size) of its two operands; all
    pairs are transformed at the one length N = _fft_length of the longest
    product.  C. Percival, "Rapid multiplication modulo the sum and
    difference of highly composite numbers", Math. Comp. 72 (2003),
    Thm 5.1: a floating-point FFT convolution of x and y, of length 2^k, is
    off by less than ||x|| ||y|| ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1)
    in every coordinate, with e the unit roundoff and b the error of the
    precomputed twiddle factors.  Here e = b = 2^-53, k = ceil(log2 N), and
    ||x|| <= m sqrt(len) for a limb row whose entries are at most m in
    magnitude.  The bound is summed over every pair and, within a pair,
    over all limb pairs, which overcounts the at most min(limbs_a, limbs_b)
    pairs that meet in one shift; the sum covers adding all those products
    in the frequency domain before one inverse transform per shift.

    Without bits, size is the operand's number of unsigned 8-bit limbs,
    each at most 255: the route's certificate.  With bits, size is the bit
    length B of the operand's largest magnitude, split into balanced
    bits-bit limbs (_limb_rows): B // bits limbs at most 2^(bits-1) in
    magnitude, and a top limb at most min(2^(bits-1), 2^(B mod bits)).  Its
    bound at bits = 8 is below the certificate's, since each operand's limb
    maxima sum to at most 128 (B // 8) + 128 <= 255 ceil(B / 8), or to
    128 (B / 8) + 1 when 8 divides B.

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
    growth = math.expm1(
        6 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(_EPS * math.sqrt(5))
    )
    peak = _LIMB_MAX if bits is None else 1 << bits - 1

    def weight(size):
        """An operand's limb maxima, summed, in units of peak."""
        if bits is None:
            return size
        return size // bits + min(peak, 1 << size % bits) / peak

    norms = sum(
        weight(size_a) * weight(size_b) * math.sqrt(len_a * len_b)
        for (len_a, size_a), (len_b, size_b) in shapes
    )
    return norms * peak**2 * growth


def _bit_shape(op: _Rows):
    """(length, bit length of the largest magnitude) of a nonzero operand."""
    length, limbs = op.mags.shape
    return length, _LIMB_BITS * (limbs - 1) + int(op.mags[:, -1].max()).bit_length()


def _limb_width(terms):
    """(bits, bound): the widest width in _FFT_LIMB_BITS whose balanced
    limbs' fft_error_bound is below _CERT_LIMIT, and that bound.  Width 8
    is taken last unchecked: its bound is below the route's certificate."""
    shapes = [(_bit_shape(a), _bit_shape(b)) for a, b in terms]
    for bits in _FFT_LIMB_BITS:
        bound = fft_error_bound(shapes, bits)
        if bound < _CERT_LIMIT or bits == _LIMB_BITS:
            return bits, bound


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


def convolve_fft(terms, prec) -> Optional[List[int]]:
    """Exact truncated sum of convolutions by a limb-split floating-point FFT.

    terms holds the pairs as byte rows (_Rows), every operand nonzero.
    Returns None, and computes nothing, when fft_error_bound of the
    unsigned byte limbs (Percival 2003, Thm 5.1, applied to numpy's
    pocketfft under the assumption stated there) does not certify
    rounding, i.e. the bound is >= 1/4.  Otherwise the pairs are
    transformed at the widest balanced limb width whose own bound is below
    1/4 (_limb_width; 8 bits always qualifies), by _fft_sum, which returns
    None when some computed value lies farther than 1/8 from an integer,
    and exactly ``prec`` Python ints otherwise.
    """
    if fft_error_bound((a.mags.shape, b.mags.shape) for a, b in terms) >= _CERT_LIMIT:
        return None
    return _fft_sum(terms, prec, _limb_width(terms)[0])


def _fft_sum(terms, prec, bits) -> Optional[List[int]]:
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
    signed int is the coefficient.  None when a value lies farther than
    _RESIDUAL_LIMIT from an integer.

    Per pair, only the spectra of the operand with fewer limbs are kept.
    A shift's sum is allocated when a product first reaches it, and
    finished and released as soon as no product is left for it: in the
    last pair, after its row s of the other operand.  One pair thus keeps
    as many sums as its smaller limb count, and several pairs at most one
    per shift.
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
    # final carry.  Every shift is below 2^49 in magnitude (the bound's
    # norms are, for a bound below 1/4), so the carry stays below 2^57.
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
    for t, ((a, b), (count_a, count_b)) in enumerate(zip(terms, counts)):
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
    return _ints_from_rows(digits) + [0] * (prec - n_out)


def _slice_terms(held, nonzeros):
    """(terms, bound): per pair with a nonzero sparser side a, the tuple
    (indices of a's nonzeros, their values as Python ints, the other side
    b as an int64 array), and the certificate bound = sum over pairs of
    sum_i |a_i| * max|b|; (None, bound) as soon as the bound summed so far
    reaches _SLICE_LIMIT.

    held and nonzeros are _read_pairs' pairs and nonzero counts; the
    sparser side is the one with fewer nonzeros, the first on a tie.  A
    side that is an int64 array (convolve_power's running product) is
    read as it is, and an int list through int64_array.  A pair whose
    sparser side is all zero is skipped before its other side is read:
    that side may hold values an int64 cannot.
    """
    terms, bound = [], 0
    for (a, b), (nnz_a, nnz_b) in zip(held, nonzeros):
        if not min(nnz_a, nnz_b):
            continue
        if nnz_a > nnz_b:
            a, b = b, a
        a, b = _ints(a), _ints(b)
        if isinstance(a, np.ndarray):
            nonzero = np.flatnonzero(a)
            index, values = nonzero.tolist(), a[nonzero].tolist()
        else:
            index = list(compress(range(len(a)), a))
            values = [a[i] for i in index]
        try:
            array = b if isinstance(b, np.ndarray) else int64_array(b)
            peak = max(int(array.max()), -int(array.min()))
        except OverflowError:
            # Some |b_j| >= 2^63, so the bound reaches the limit below.
            peak = max(map(abs, b))
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
    nonzero count); an int list or int64 array is taken as Scaled(op)."""
    op = op if isinstance(op, Scaled) else Scaled(op)
    values = op.values if len(op.values) <= prec else op.values[:prec]
    nnz = 0
    if isinstance(values, np.ndarray):
        nnz = np.count_nonzero(values)
    elif op.w:  # n^r vanishes at n = 0 when r > 0
        nnz = len(values) - values.count(0) - bool(op.r and values and values[0])
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


def _shape(op):
    """(length, limbs) of a held operand; limbs is None before byte rows."""
    if isinstance(op, Scaled):
        return len(op.values), None
    return op.mags.shape


def _convolve(pairs, prec):
    """convolve_sum's sum, after its DEBUG line: the int64 array that
    slice-adds make it on, or the dense routes' list of Python ints."""
    held, nonzeros, cost = _read_pairs(pairs, prec)
    slice_terms = slice_bound = None
    fft_cost = _SLICE_COST_FACTOR * prec * math.log2(max(prec, 1)) + _FFT_OVERHEAD
    if cost <= fft_cost:
        slice_terms, slice_bound = _slice_terms(held, nonzeros)
    if slice_terms is not None:
        route, out = "slices", _convolve_slices(slice_terms, prec)
    else:
        rows = iter(_dense_rows([op for pair in held for op in pair]))
        held = list(zip(rows, rows))
        terms = [(a, b) for a, b in held if a.mags.shape[1] and b.mags.shape[1]]
        route, out = "fft", convolve_fft(terms, prec)
        if out is None:
            route, out = "kronecker", _convolve_kronecker(terms, prec)
    logging = sys.modules.get("logging")  # never imported: DEBUG is off
    if logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG):
        shapes = [(_shape(a), _shape(b)) for a, b in held]
        detail = width = ""
        if len(shapes) == 1:
            ((len_a, limbs_a), (len_b, limbs_b)), = shapes
            detail = f" len={len_a},{len_b} limbs={limbs_a},{limbs_b}"
        if route == "slices":
            detail += f" nnz={sum(map(min, nonzeros))}"
            bound, limit = slice_bound, "2^63"
        else:
            if slice_bound is not None:  # slice-adds refused by their bound
                detail += f" slice_bound_bits={slice_bound.bit_length()}"
            bound = fft_error_bound((a.mags.shape, b.mags.shape) for a, b in terms)
            limit = _CERT_LIMIT
            if bound < limit:  # the FFT ran, at this width
                width = " limb_bits=%d limb_bound=%s" % _limb_width(terms)
        logging.getLogger(__name__).debug(
            "convolve_sum route=%s pairs=%d prec=%d%s bound=%s limit=%s%s",
            route, len(held), prec, detail, bound, limit, width,
        )
    return out


def convolve_sum(pairs, prec):
    """Exact sum of the truncated convolutions a*b over the (a, b) in
    pairs; pairs may be any iterable, read once.  Each operand is a list
    of Python ints, an int64 array or a ``Scaled(values, w, r)``, the list
    w * n^r * values[n], whose byte rows the dense routes build from those
    of values without forming its ints.

    Slice-adds run when the pairs' slice-add cost is at most
    _SLICE_COST_FACTOR * prec * log2(prec) + _FFT_OVERHEAD and their int64
    certificate holds; otherwise the FFT route, and the Kronecker route
    when the FFT refuses.  Returns exactly ``prec`` Python ints, whichever route runs.
    One DEBUG line per call names the route, the number of pairs and the
    route's certificate against its limit: for slice-adds the sparser
    sides' nonzero count and the int64 bound, for the dense routes the
    summed FFT bound (after ``slice_bound_bits=``, the int64 bound's bit
    length, when that bound refused slice-adds), and for one pair the
    operands' lengths and limb counts; when that bound let the FFT run,
    ``limb_bits=`` and ``limb_bound=`` give its limb width and that width's
    bound.  ``logging`` is not imported here.
    """
    out = _convolve(pairs, prec)
    return out.tolist() if isinstance(out, np.ndarray) else out


def convolve_exact(a, b, prec):
    """Exact truncated convolution of two lists of Python ints: the
    one-pair case of convolve_sum."""
    return convolve_sum([(a, b)], prec)


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
    for _ in range(n):
        acc = _convolve([(acc, base)], prec)
    return acc.tolist() if isinstance(acc, np.ndarray) else acc


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
    nonzero = list(compress(range(len(b)), b))
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
