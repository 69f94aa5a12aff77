"""Exact integer convolution behind truncated series multiplication.

``convolve_exact`` is the one entry point; it picks one of three routes
from its inputs:

* a loop over nonzero pairs, when the inputs are sparse enough that
  there are few of them,
* ``convolve_fft``, a limb-split floating-point FFT convolution, for
  dense inputs whose a-priori rounding bound (Percival 2003, Thm 5.1,
  applied to numpy's pocketfft under the assumption stated in
  ``fft_error_bound``) and run-time residual check both hold,
* Kronecker substitution on Python big integers (``convolve_bigint``,
  one signed product), only when that bound or that check fails.

Both dense routes share one byte-row format: ``_byte_rows`` turns ints into
rows of little-endian magnitude bytes and a negative mask, and
``_ints_from_rows`` reads rows back as signed two's-complement ints.  The
codec picks how from its input: rows of at most 7 bytes are written, and
rows whose values all fit in an int64 are read, as one int64 array; wider
rows go through ``int.to_bytes`` and ``int.from_bytes`` one int at a time.

Every route is exact and returns exactly ``prec`` Python ints.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from typing import List, Optional

# Loading numpy starts OpenBLAS's thread pool, one thread per core, though
# nothing here calls BLAS (the FFT route is pocketfft); on two cores that
# pool is about half of numpy's import time.  Load it with one thread
# unless the user chose a count, and leave the environment as it was.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

_log = logging.getLogger(__name__)

# Below this many nonzero coefficient pairs per output coefficient, the
# sparse loop beats the dense routes.
_SPARSE_COST_FACTOR = 16

# Bits per limb of the FFT route: the limbs are the bytes of each
# magnitude.  With 16-bit limbs the rounding bound of the bracket products
# (length ~8000, ~110-bit coefficients) exceeds 1; with bytes it is ~1e-3.
# Fixed, not a setting: limbs are the byte rows of _byte_rows and the digit
# rows are uint8, so any other value gives wrong limbs.
_LIMB_BITS = 8
_LIMB_MAX = (1 << _LIMB_BITS) - 1

# The FFT route is taken when the a-priori rounding bound is below this
# (rint is then exact with room to spare), and kept only when every
# computed value lies within _RESIDUAL_LIMIT of an integer.
_CERT_LIMIT = 0.25
_RESIDUAL_LIMIT = 0.125

_EPS = 2.0**-53

# Bytes of the int64 word that narrow byte rows are read and written as.
_WORD_BYTES = 8


def _byte_rows(vals, width):
    """(len(vals), width) uint8 little-endian magnitudes of vals, and vals < 0.

    Every |v| must be below 2^(8 width).  Rows of at most 7 bytes hold
    magnitudes below 2^56, which numpy reads as one int64 array; wider rows
    are written one int at a time.
    """
    if width < _WORD_BYTES:
        words = np.array(vals, dtype="<i8")
        neg = (words >> 63).astype(bool)  # the shift leaves -1 in negatives
        mags = np.abs(words, out=words).view(np.uint8)
        return mags.reshape(len(vals), _WORD_BYTES)[:, :width], neg
    raw = b"".join([abs(v).to_bytes(width, "little") for v in vals])
    mags = np.frombuffer(raw, dtype=np.uint8).reshape(len(vals), width)
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


def _kronecker_eval(vals, width) -> int:
    """sum_i vals[i] * 2^(8 width i) for signed ints vals: positive part
    minus negative part."""
    mags, neg = _byte_rows(vals, width)
    pos, negs = (
        int.from_bytes((mags * keep[:, None]).tobytes(), "little")
        for keep in (~neg, neg)
    )
    return pos - negs


def convolve_bigint(a, b, prec):
    """Exact truncated convolution via Kronecker substitution.

    a and b are evaluated at X = 2^(8 width), with every product
    coefficient c_i below X/2 in magnitude, and multiplied once as signed
    big integers.  Adding X/2 to every slot makes slot i hold
    c_i + X/2 in [0, X), with no borrow between slots; flipping each
    slot's top bit then leaves c_i in two's complement.
    """
    a, b = a[:prec], b[:prec]
    max_a = max((abs(v) for v in a), default=0)
    max_b = max((abs(v) for v in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * prec
    bound = max_a * max_b * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8 + 1  # bytes per slot, with headroom
    slots = len(a) + len(b) - 1
    n_out = min(prec, slots)
    half = _kronecker_eval([1 << (8 * width - 1)] * slots, width)  # X/2 per slot
    product = _kronecker_eval(a, width) * _kronecker_eval(b, width) + half
    data = product.to_bytes(width * slots, "little")
    rows = np.frombuffer(data, np.uint8, width * n_out).reshape(n_out, width).copy()
    rows[:, -1] ^= 0x80
    return _ints_from_rows(rows) + [0] * (prec - n_out)


def _head(vals, prec):
    """The first prec entries of vals, copied only when it is longer."""
    return vals if len(vals) <= prec else vals[:prec]


def _limb_count(vals) -> int:
    bits = max(map(abs, vals), default=0).bit_length()
    return (bits + _LIMB_BITS - 1) // _LIMB_BITS


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


def fft_error_bound(limbs_a: int, limbs_b: int, len_a: int, len_b: int) -> float:
    """A-priori bound on the rounding error of each limb-shift sum of convolve_fft.

    C. Percival, "Rapid multiplication modulo the sum and difference of
    highly composite numbers", Math. Comp. 72 (2003), Thm 5.1: a
    floating-point FFT convolution of x and y, of length 2^k, is off by
    less than ||x|| ||y|| ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1) in
    every coordinate, with e the unit roundoff and b the error of the
    precomputed twiddle factors.  Here e = b = 2^-53, k = ceil(log2 N),
    ||x|| <= 255 sqrt(len_a) for one 8-bit limb row, and the bound is
    summed over all limbs_a * limbs_b limb pairs, which overcounts the at
    most min(limbs_a, limbs_b) pairs that meet in one shift and leaves
    room for adding them in the frequency domain.

    The theorem is stated for radix-2 transforms; it is applied to
    numpy's pocketfft, which runs mixed radix on the 5-smooth N used
    here, under the assumption that its transforms meet the same error
    model.  convolve_fft therefore also checks every computed value's
    distance to the nearest integer at run time.
    """
    k = (_fft_length(len_a + len_b - 1) - 1).bit_length()
    growth = math.expm1(
        6 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(_EPS * math.sqrt(5))
    )
    return limbs_a * limbs_b * _LIMB_MAX**2 * math.sqrt(len_a * len_b) * growth


def fft_certificate(a, b):
    """(limbs_a, limbs_b, bound): the 8-bit limb counts of a and b and
    fft_error_bound for their product by convolve_fft."""
    limbs_a, limbs_b = _limb_count(a), _limb_count(b)
    return limbs_a, limbs_b, fft_error_bound(limbs_a, limbs_b, len(a), len(b))


def convolve_fft(a, b, prec, certificate=None) -> Optional[List[int]]:
    """Exact truncated convolution by a limb-split floating-point FFT.

    Each coefficient's magnitude is split into 8-bit limbs carrying its
    sign; the limb rows are transformed with real FFTs of a 5-smooth
    length N >= len(a) + len(b) - 1, the products of limb rows i and j
    are summed in the frequency domain per shift s = i + j, and one
    inverse FFT per shift gives integers after rint.  The shifts are
    carry-normalised in base 2^8 into one row of digits per coefficient;
    the row's final int64 carry is appended as 8 more bytes, so that the
    row read as a signed int is the coefficient.  Only the spectra of the
    operand with fewer limbs, and one accumulator per open shift, are
    kept alive.

    Returns None, and computes nothing, when fft_error_bound (Percival
    2003, Thm 5.1, applied to numpy's pocketfft under the assumption
    stated there) does not certify rounding, i.e. the bound is >= 1/4;
    returns None when some computed value lies farther than 1/8 from an
    integer.  Otherwise returns exactly ``prec`` Python ints.

    ``certificate``, if given, is fft_certificate of the first ``prec``
    coefficients of a and b, so that a caller who has it need not
    compute it again.
    """
    a, b = _head(a, prec), _head(b, prec)
    limbs_a, limbs_b, bound = certificate or fft_certificate(a, b)
    if not limbs_a or not limbs_b:
        return [0] * prec
    if bound >= _CERT_LIMIT:
        return None
    if limbs_b > limbs_a:
        a, b, limbs_a, limbs_b = b, a, limbs_b, limbs_a
    n_out = min(prec, len(a) + len(b) - 1)
    size = _fft_length(len(a) + len(b) - 1)
    mags_a, neg_a = _byte_rows(a, limbs_a)
    mags_b, neg_b = _byte_rows(b, limbs_b)
    signs_a, signs_b = np.where(neg_a, -1.0, 1.0), np.where(neg_b, -1.0, 1.0)
    # Fixed buffers, reused for every limb row and shift: `row` holds a
    # signed limb row, then the rounded values of a shift; the inverse
    # transform of a shift is written over `prod`, free until the next row.
    row = np.empty(max(len(a), len(b), n_out))
    spec = np.empty(size // 2 + 1, dtype=np.complex128)
    prod = np.empty_like(spec)
    x = prod.view(np.float64)[:size]
    spectra_b = [
        np.fft.rfft(np.multiply(mags_b[:, j], signs_b, out=row[: len(b)]), size)
        for j in range(limbs_b)
    ]
    shifts = limbs_a + limbs_b - 1
    # Row i: the base-2^8 digits of coefficient i, then its final carry.
    digits = np.empty((n_out, shifts + 8), dtype=np.uint8)
    carry = np.zeros(n_out, dtype="<i8")
    # open_shifts[j] accumulates shift s + j while limb row s of a is added.
    open_shifts = deque(np.zeros_like(spec) for _ in range(limbs_b))
    for s in range(shifts):
        if s < limbs_a:
            np.multiply(mags_a[:, s], signs_a, out=row[: len(a)])
            np.fft.rfft(row[: len(a)], size, out=spec)
            for acc, spec_b in zip(open_shifts, spectra_b):
                acc += np.multiply(spec, spec_b, out=prod)
        # No later row of a reaches shift s: it is complete.
        acc = open_shifts.popleft()
        np.fft.irfft(acc, size, out=x)
        if s + limbs_b < shifts:
            acc[:] = 0
            open_shifts.append(acc)
        value = x[:n_out]
        rounded = np.rint(value, out=row[:n_out])
        if np.max(np.abs(np.subtract(value, rounded, out=value), out=value)) > (
            _RESIDUAL_LIMIT
        ):
            return None
        np.add(carry, rounded, out=carry, casting="unsafe")
        np.bitwise_and(carry, _LIMB_MAX, out=digits[:, s], casting="unsafe")
        carry >>= _LIMB_BITS
    digits[:, shifts:] = carry.view(np.uint8).reshape(n_out, 8)
    return _ints_from_rows(digits) + [0] * (prec - n_out)


def _convolve_sparse(nza, nzb, prec):
    # nza, nzb: (index, value) pairs of the nonzero coefficients, by index.
    if len(nza) > len(nzb):
        nza, nzb = nzb, nza
    out = [0] * prec
    for i, ci in nza:
        for j, cj in nzb:
            if i + j >= prec:
                break
            out[i + j] += ci * cj
    return out


def convolve_exact(a, b, prec):
    """Exact truncated convolution of two lists of Python ints.

    Returns exactly ``prec`` Python ints, whichever route runs.
    """
    a, b = _head(a, prec), _head(b, prec)
    pairs = (len(a) - a.count(0)) * (len(b) - b.count(0))
    certificate = (None, None, None)
    if pairs <= _SPARSE_COST_FACTOR * prec:
        route = "sparse"
        out = _convolve_sparse(
            [(i, v) for i, v in enumerate(a) if v],
            [(j, v) for j, v in enumerate(b) if v],
            prec,
        )
    else:
        certificate = fft_certificate(a, b)
        route, out = "fft", convolve_fft(a, b, prec, certificate)
        if out is None:
            route, out = "kronecker", convolve_bigint(a, b, prec)
    _log.debug(
        "convolve_exact route=%s len=%d,%d prec=%d limbs=%s,%s bound=%s limit=%s",
        route, len(a), len(b), prec, *certificate, _CERT_LIMIT,
    )
    return out
