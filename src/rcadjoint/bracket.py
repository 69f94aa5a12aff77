"""The nu-th Rankin-Cohen bracket and its scalar coefficients.

Exact for integral and half-integral weights: every scalar here is a
``Fraction``, with gamma-function ratios evaluated as telescoping
integer products over a power of two, so no transcendental values
appear.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .kernels import Scaled, _convolve
from .qseries import CharacterMod4, FormMeta, QSeries, _from_ints


class _BracketFields(NamedTuple):
    k2: int
    l2: int
    nu: int


class BracketParams(_BracketFields):
    """The (k, l, nu) triple of a Rankin-Cohen bracket.

    The weights are stored as twice their values, k2 = 2k and l2 = 2l, the
    integers ``FormMeta.twice_weight`` holds, so half-integral weights are
    exact.  ``nu`` is checked on every construction path, as
    ``FormMeta``'s fields are.
    """

    __slots__ = ()

    def __new__(cls, k2: int, l2: int, nu: int):
        if nu < 0:
            raise ValueError("bracket order nu must be nonnegative")
        return super().__new__(cls, k2, l2, nu)

    @classmethod
    def _make(cls, iterable) -> "BracketParams":
        return cls(*iterable)


def _twice_rising(w2: int, hi: int, lo: int) -> int:
    """prod_{j=lo}^{hi-1} (w2 + 2j) = 2^(hi-lo) Gamma(w2/2+hi)/Gamma(w2/2+lo)."""
    out = 1
    for j in range(lo, hi):
        out *= w2 + 2 * j
    return out


def _rc_numerator(p: BracketParams, r: int) -> int:
    """2^nu rc_coefficient(p, r), an integer."""
    sign = -1 if (p.nu - r) % 2 else 1
    return (
        sign
        * math.comb(p.nu, r)
        * _twice_rising(p.k2, p.nu, r)
        * _twice_rising(p.l2, p.nu, p.nu - r)
    )


def rc_coefficient(p: BracketParams, r: int) -> Fraction:
    """The scalar weighting D^r f D^(nu-r) g inside the bracket.

    (-1)^(nu-r) C(nu,r) Gamma(k+nu)/Gamma(k+r) Gamma(l+nu)/Gamma(l+nu-r):
    the two ratios contribute 2^(nu-r) and 2^r, so one integer over 2^nu.
    """
    if not 0 <= r <= p.nu:
        raise ValueError("need 0 <= r <= nu")
    return Fraction(_rc_numerator(p, r), 1 << p.nu)


def cohen_character(k2: int, l2: int) -> CharacterMod4:
    """The extra character picked up by a bracket of weights k2/2, l2/2.

    Trivial for two integral weights; a power of (-4/.) otherwise, with
    the exponent read off the integral part(s) of the weights.
    """
    k2_even = k2 % 2 == 0
    l2_even = l2 % 2 == 0
    if k2_even and l2_even:
        return CharacterMod4.TRIVIAL
    if k2_even:
        exponent = k2 // 2
    elif l2_even:
        exponent = l2 // 2
    else:
        exponent = (k2 + l2) // 2
    return CharacterMod4.CHI_MINUS4 if exponent % 2 else CharacterMod4.TRIVIAL


def rc_bracket(f: QSeries, g: QSeries, p: BracketParams) -> QSeries:
    """The nu-th Rankin-Cohen bracket of two truncated expansions.

    Output weight is k + l + 2*nu; for nu > 0 the result is a cusp form,
    for nu = 0 it is the plain product (``series_mul``).

    The bracket is one exact sum of nu + 1 integer convolutions, of
    w_r n^r f_n with n^(nu-r) g_n for w_r = 2^nu rc_coefficient(p, r),
    over the one denominator 2^nu f.den g.den.  Each operand is passed as
    ``Scaled(values, w, r)`` of the stored numerators (``stored_num``, an
    int64 array or a tuple), so the dense routes build its byte rows from
    those of f or g without forming its ints.  The sum is kept as the
    route gives it: the int64 array of slice-adds, which the result keeps
    over the denominator 1, or the dense routes' Python ints.
    """
    if f.meta is not None and f.meta.twice_weight != p.k2:
        raise ValueError(
            f"f has twice-weight {f.meta.twice_weight}, bracket expects {p.k2}"
        )
    if g.meta is not None and g.meta.twice_weight != p.l2:
        raise ValueError(
            f"g has twice-weight {g.meta.twice_weight}, bracket expects {p.l2}"
        )
    prec = min(f.precision, g.precision)
    f_num, g_num = f.stored_num[:prec], g.stored_num[:prec]
    pairs = [
        (Scaled(f_num, _rc_numerator(p, r), r), Scaled(g_num, 1, p.nu - r))
        for r in range(p.nu + 1)
    ]
    num = _convolve(pairs, prec)
    meta = None
    if f.meta is not None and g.meta is not None:
        meta = FormMeta(
            twice_weight=p.k2 + p.l2 + 4 * p.nu,
            level=math.lcm(f.meta.level, g.meta.level),
            character=f.meta.character
            * g.meta.character
            * cohen_character(p.k2, p.l2),
        )
    return _from_ints(num, (f.den * g.den) << p.nu, meta)


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """The product a*b, truncated to the minimum precision of the inputs.

    It is the nu = 0 bracket, so it carries the bracket's weight, level
    and character when both series carry metadata.  A series without
    metadata is given weight 0, which nothing at nu = 0 reads.
    """
    k2, l2 = (s.meta.twice_weight if s.meta else 0 for s in (a, b))
    return rc_bracket(a, b, BracketParams(k2, l2, 0))
