"""The nu-th Rankin-Cohen bracket and its scalar coefficients.

Exact for integral and half-integral weights: every scalar here is a
``Fraction``, with gamma-function ratios evaluated as telescoping
integer products over a power of two, so no transcendental values
appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    apply_D,
    series_add,
    series_mul,
    zero_series,
)


@dataclass(frozen=True, order=True)
class TwiceWeight:
    """A weight in (1/2)Z, stored exactly as twice its value."""

    w2: int

    @property
    def weight(self) -> Fraction:
        return Fraction(self.w2, 2)

    @property
    def is_integral(self) -> bool:
        return self.w2 % 2 == 0

    def __repr__(self):
        return f"TwiceWeight({self.w2})"


@dataclass(frozen=True)
class BracketParams:
    """The (k, l, nu) triple of a Rankin-Cohen bracket."""

    k: TwiceWeight
    l: TwiceWeight
    nu: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("bracket order nu must be nonnegative")


def _twice_rising(w2: int, hi: int, lo: int) -> int:
    """prod_{j=lo}^{hi-1} (w2 + 2j) = 2^(hi-lo) Gamma(w2/2+hi)/Gamma(w2/2+lo)."""
    out = 1
    for j in range(lo, hi):
        out *= w2 + 2 * j
    return out


def rc_coefficient(p: BracketParams, r: int) -> Fraction:
    """The scalar weighting D^r f D^(nu-r) g inside the bracket.

    (-1)^(nu-r) C(nu,r) Gamma(k+nu)/Gamma(k+r) Gamma(l+nu)/Gamma(l+nu-r):
    the two ratios contribute 2^(nu-r) and 2^r, so one integer over 2^nu.
    """
    if not 0 <= r <= p.nu:
        raise ValueError("need 0 <= r <= nu")
    sign = -1 if (p.nu - r) % 2 else 1
    top = (
        sign
        * math.comb(p.nu, r)
        * _twice_rising(p.k.w2, p.nu, r)
        * _twice_rising(p.l.w2, p.nu, p.nu - r)
    )
    return Fraction(top, 1 << p.nu)


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
    for nu = 0 it is the plain product.
    """
    if f.meta is not None and f.meta.twice_weight != p.k.w2:
        raise ValueError(
            f"f has twice-weight {f.meta.twice_weight}, bracket expects {p.k.w2}"
        )
    if g.meta is not None and g.meta.twice_weight != p.l.w2:
        raise ValueError(
            f"g has twice-weight {g.meta.twice_weight}, bracket expects {p.l.w2}"
        )
    prec = min(f.precision, g.precision)
    acc = zero_series(prec)
    for r in range(p.nu + 1):
        term = series_mul(apply_D(f, r), apply_D(g, p.nu - r))
        acc = series_add(acc, term, 1, rc_coefficient(p, r))
    meta = None
    if f.meta is not None and g.meta is not None:
        meta = FormMeta(
            twice_weight=p.k.w2 + p.l.w2 + 4 * p.nu,
            level=math.lcm(f.meta.level, g.meta.level),
            character=f.meta.character
            * g.meta.character
            * cohen_character(p.k.w2, p.l.w2),
        )
    return acc.with_meta(meta)
