"""Exact integer convolution behind truncated series multiplication.

``convolve_exact`` is the one entry point; it picks a route from its
inputs:

* a loop over nonzero pairs, when the inputs are sparse enough that
  there are few of them,
* ``np.convolve`` on int64, when a bound on every output coefficient
  proves it cannot overflow,
* Kronecker substitution on Python big integers otherwise.

Every route is exact and returns exactly ``prec`` coefficients.
"""

from __future__ import annotations

import numpy as np

# Largest value of len * max|a| * max|b| we allow through the int64 route.
# One bit of headroom under 2**63 for the running sum.
_INT64_LIMIT = 1 << 62

# Below this many nonzero coefficient pairs per output coefficient, the
# sparse loop beats the dense routes.
_SPARSE_COST_FACTOR = 16


def int64_safe(max_a: int, max_b: int, length: int) -> bool:
    """True when a truncated convolution provably fits in int64."""
    return max_a * max_b * max(length, 1) < _INT64_LIMIT


def convolve_int64(a, b, prec):
    """Truncated convolution as an int64 array; caller certifies no overflow."""
    out = np.zeros(prec, dtype=np.int64)
    a = np.asarray(a[:prec], dtype=np.int64)
    b = np.asarray(b[:prec], dtype=np.int64)
    if len(a) and len(b):
        full = np.convolve(a, b)[:prec]
        out[: len(full)] = full
    return out


def _pack(vals, width):
    buf = bytearray(width * len(vals))
    for i, v in enumerate(vals):
        if v:
            off = i * width
            buf[off : off + (v.bit_length() + 7) // 8] = v.to_bytes(
                (v.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(buf, "little")


def _kronecker_nonneg(a, b, prec, width):
    out_len = len(a) + len(b)
    c = _pack(a, width) * _pack(b, width)
    data = c.to_bytes(width * out_len, "little")
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(prec)
    ]


def convolve_bigint(a, b, prec):
    """Exact truncated convolution via Kronecker substitution.

    Signed inputs are split into positive/negative parts (four nonnegative
    products) so that packed slots never interact.
    """
    a, b = a[:prec], b[:prec]
    max_a = max((abs(v) for v in a), default=0)
    max_b = max((abs(v) for v in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * prec
    bound = max_a * max_b * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8 + 1  # bytes per slot, with headroom
    ap = [v if v > 0 else 0 for v in a]
    an = [-v if v < 0 else 0 for v in a]
    bp = [v if v > 0 else 0 for v in b]
    bn = [-v if v < 0 else 0 for v in b]
    pp = _kronecker_nonneg(ap, bp, prec, width)
    nn = _kronecker_nonneg(an, bn, prec, width)
    pn = _kronecker_nonneg(ap, bn, prec, width)
    np_ = _kronecker_nonneg(an, bp, prec, width)
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(prec)]


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
    a, b = a[:prec], b[:prec]
    nza = [(i, v) for i, v in enumerate(a) if v]
    nzb = [(j, v) for j, v in enumerate(b) if v]
    if not nza or not nzb:
        return [0] * prec
    if len(nza) * len(nzb) <= _SPARSE_COST_FACTOR * prec:
        return _convolve_sparse(nza, nzb, prec)
    max_a = max(abs(v) for _, v in nza)
    max_b = max(abs(v) for _, v in nzb)
    if int64_safe(max_a, max_b, min(len(a), len(b))):
        return convolve_int64(a, b, prec).tolist()
    return convolve_bigint(a, b, prec)
