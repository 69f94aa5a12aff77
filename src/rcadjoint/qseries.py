"""Exact truncated q-expansion arithmetic and classical constructors.

A series stores its coefficients as Python-int numerators over one
common positive denominator, in lowest terms, so every operation runs on
integers: products are integer convolutions over the product of the
denominators, derivatives scale numerators, and sums put both sides over
one least common denominator.  ``Fraction`` appears only at the edges
(the public constructor, ``coeff``/``coeffs`` and JSON input); floating
point never enters this module.  A series knows exactly ``precision``
coefficients (of q^0 .. q^(precision-1)) and arithmetic never reports
coefficients beyond the minimum precision of its inputs.

Form metadata (``FormMeta``) holds weight, level and character only;
whether a series is a cusp form at infinity is read off its constant
term, so no operation has to keep a separate flag in step with it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .kernels import convolve_exact


class CharacterMod4(Enum):
    """Dirichlet characters mod 4: the trivial one and (-4/.)."""

    TRIVIAL = "trivial"
    CHI_MINUS4 = "chi_minus4"

    def __mul__(self, other: "CharacterMod4") -> "CharacterMod4":
        if self is other:
            return CharacterMod4.TRIVIAL
        if self is CharacterMod4.TRIVIAL:
            return other
        return self


@dataclass(frozen=True)
class FormMeta:
    """Weight/level/character bookkeeping attached to a series.

    ``twice_weight`` stores 2k so half-integral weights are exact.
    Half-integral weight forces 4 | level (such forms live inside
    Gamma_0(4)).  Cusp-ness at infinity is not stored: it is the
    vanishing of the series' constant term.
    """

    twice_weight: int
    level: int
    character: CharacterMod4

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("level must be positive")
        if self.twice_weight % 2 != 0 and self.level % 4 != 0:
            raise ValueError("half-integral weight requires 4 | level")

    @property
    def weight(self) -> Fraction:
        return Fraction(self.twice_weight, 2)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _lowest_terms(num: Sequence[int], den: int) -> tuple:
    """(num', den') with num'[i]/den' == num[i]/den and gcd(den', *num') == 1.

    den > 0.  For reduced fractions p_i/q_i, den' is lcm(q_i).
    """
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return tuple(v // g for v in num), den // g
    return num, den


def _store(series: "QSeries", num, den: int, meta: Optional[FormMeta]) -> None:
    """Set num/den/meta on a new series, in canonical form.

    num[i]/den is the coefficient of q^i; den > 0 on entry.  Canonical
    means gcd(den, *num) == 1, so equal series have equal (num, den).
    """
    num, den = _lowest_terms(tuple(num), den)
    if not num:
        raise ValueError("a series must know at least one coefficient")
    object.__setattr__(series, "num", num)
    object.__setattr__(series, "den", den)
    object.__setattr__(series, "meta", meta)


def _from_ints(num, den: int, meta: Optional[FormMeta] = None) -> "QSeries":
    """The series with coefficients num[i]/den (den > 0)."""
    series = object.__new__(QSeries)
    _store(series, num, den, meta)
    return series


# A coefficient string as to_json_dict writes it, sign and "/q" optional.
_COEFF_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class QSeries:
    """Truncated q-expansion with exact rational coefficients.

    Stored as a tuple of integer numerators ``num`` over one positive
    denominator ``den``, in lowest terms (gcd(den, *num) == 1).
    Immutable; safe to share between threads.
    """

    __slots__ = ("num", "den", "meta")

    def __init__(self, coeffs: Sequence, meta: Optional[FormMeta] = None):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _store(self, (c.numerator * (den // c.denominator) for c in cs), den, meta)

    def __setattr__(self, *args):
        raise AttributeError("QSeries is immutable")

    @property
    def precision(self) -> int:
        return len(self.num)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions (built on each access)."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n < len(self.num):
            raise IndexError(
                f"coefficient of q^{n} unknown (precision {len(self.num)})"
            )
        return Fraction(self.num[n], self.den)

    def truncate(self, precision: int) -> "QSeries":
        if not 1 <= precision <= len(self.num):
            raise ValueError("cannot truncate beyond known precision")
        return _from_ints(self.num[:precision], self.den, self.meta)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    def with_meta(self, meta: Optional[FormMeta]) -> "QSeries":
        return _from_ints(self.num, self.den, meta)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.num, self.den, self.meta) == (other.num, other.den, other.meta)

    def __hash__(self):
        return hash((self.num, self.den, self.meta))

    def __repr__(self):
        head = ", ".join(str(self.coeff(n)) for n in range(min(6, len(self.num))))
        tail = ", ..." if len(self.num) > 6 else ""
        return f"QSeries([{head}{tail}], precision={len(self.num)})"

    def to_json_dict(self) -> dict:
        m = self.meta
        den = self.den
        coeffs = []
        for v in self.num:
            g = math.gcd(v, den)
            coeffs.append(f"{v // g}/{den // g}")
        return {
            "twice_weight": m.twice_weight if m else None,
            "level": m.level if m else None,
            "character": m.character.value if m else None,
            "precision": len(self.num),
            "coeffs": coeffs,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        """Inverse of ``to_json_dict``; malformed input raises ValueError.

        Each coefficient must be a JSON integer or a string in the form
        ``to_json_dict`` writes, an optional sign and digits with an
        optional "/digits" ("-3/4", "5"); ``twice_weight`` and ``level``
        must be JSON integers.  Floats, booleans, null and strings such
        as "1e5" or "1.5" are rejected rather than read inexactly.
        """
        if not (isinstance(d, dict) and isinstance(d.get("coeffs"), list)):
            raise ValueError("a series must be a JSON object with a 'coeffs' list")
        if not d["coeffs"]:
            raise ValueError("a series must know at least one coefficient")
        for s in d["coeffs"]:
            if isinstance(s, str):
                ok = _COEFF_STRING.fullmatch(s) is not None
            else:
                ok = isinstance(s, int) and not isinstance(s, bool)
            if not ok:
                raise ValueError(
                    f"bad coefficient {s!r}: expected a string 'p/q' or an integer"
                )
        try:
            coeffs = [Fraction(s) for s in d["coeffs"]]
        except ZeroDivisionError as exc:
            raise ValueError(f"bad coefficient: {exc}") from None
        if d.get("precision") not in (None, len(coeffs)):
            raise ValueError("precision field disagrees with coefficient count")
        meta = None
        if d.get("twice_weight") is not None:
            for key in ("twice_weight", "level"):
                value = d.get(key)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(
                        f"bad form metadata: {key} must be an integer, got {value!r}"
                    )
            try:
                meta = FormMeta(
                    twice_weight=d["twice_weight"],
                    level=d["level"],
                    character=CharacterMod4(d["character"]),
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad form metadata: {exc!r}") from None
        return cls(coeffs, meta)


def zero_series(precision: int) -> QSeries:
    return _from_ints((0,) * precision, 1)


def series_add(a: QSeries, b: QSeries, ca=1, cb=1) -> QSeries:
    """Coefficient-wise ca*a + cb*b at the minimum of the two precisions.

    ca and cb are exact rationals (int or Fraction).  Both sides are put
    over the common denominator lcm(ca.den * a.den, cb.den * b.den).
    """
    for c in (ca, cb):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot interpret {c!r} as an exact rational")
    prec = min(a.precision, b.precision)
    da = ca.denominator * a.den
    db = cb.denominator * b.den
    den = math.lcm(da, db)
    ma = ca.numerator * (den // da)
    mb = cb.numerator * (den // db)
    num = [ma * x + mb * y for x, y in zip(a.num[:prec], b.num[:prec])]
    return _from_ints(num, den, a.meta if a.meta == b.meta else None)


def _mul_meta(a: QSeries, b: QSeries) -> Optional[FormMeta]:
    if a.meta is None or b.meta is None:
        return None
    return FormMeta(
        twice_weight=a.meta.twice_weight + b.meta.twice_weight,
        level=math.lcm(a.meta.level, b.meta.level),
        character=a.meta.character * b.meta.character,
    )


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product truncated to the minimum precision of the inputs."""
    prec = min(a.precision, b.precision)
    num = convolve_exact(a.num, b.num, prec)
    return _from_ints(num, a.den * b.den, _mul_meta(a, b))


def apply_D(a: QSeries, r: int) -> QSeries:
    """The normalized derivative (2*pi*i)^-1 d/dz, applied r times.

    Multiplies the n-th coefficient by n^r.  Metadata is dropped: the
    derivative of a modular form is not modular.
    """
    if r < 0:
        raise ValueError("derivative order must be nonnegative")
    if r == 0:
        return a.with_meta(None) if a.meta is not None else a
    return _from_ints(
        [v * n**r if v else 0 for n, v in enumerate(a.num)], a.den
    )


def make_theta(precision: int) -> QSeries:
    """The classical weight-1/2 theta series on Gamma_0(4).

    Sum over all integers n of q^(n^2): constant term 1, coefficient 2
    at every positive perfect square.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    num = [0] * precision
    num[0] = 1
    n = 1
    while n * n < precision:
        num[n * n] = 2
        n += 1
    return _from_ints(num, 1, FormMeta(1, 4, CharacterMod4.TRIVIAL))


def _euler_factor(step: int, exponent: int, prec: int) -> list:
    """Integer coefficients of prod_{n>=1} (1 - q^(step*n))^exponent.

    In x = q^step this is P = B^e for the pentagonal series
    B = prod (1 - x^n) = sum_k (-1)^k x^(k(3k-1)/2), which has B_0 = 1.
    Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7),
    n P_n = sum_{j=1..n} ((e+1) j - n) B_j P_(n-j),
    gives P exactly in integers for every integer e, negative included.
    """
    size = (prec - 1) // step + 1  # coefficients of x^0 .. x^(size-1)
    pentagonal = []  # (j, B_j) for the nonzero B_j with 1 <= j < size
    k = 1
    while k * (3 * k - 1) // 2 < size:
        sign = -1 if k % 2 else 1
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if j < size:
                pentagonal.append((j, sign))
        k += 1
    e1 = exponent + 1
    p = [0] * size
    p[0] = 1
    for n in range(1, size):
        acc = 0
        for j, bj in pentagonal:
            if j > n:
                break
            acc += (e1 * j - n) * bj * p[n - j]
        p[n], rem = divmod(acc, n)
        if rem:
            raise ArithmeticError(f"Miller recurrence: {n} does not divide {acc}")
    out = [0] * prec
    out[::step] = p
    return out


def make_eta_product(
    factors: Sequence[tuple],
    precision: int,
    meta: Optional[FormMeta] = None,
) -> QSeries:
    """Expansion of prod_i eta(multiplier_i * z)^exponent_i.

    Each eta factor contributes a leading power q^(multiplier*exponent/24);
    the total leading power must be a nonnegative integer, otherwise the
    product is not a q-series and we refuse.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    order24 = 0
    for mult, expo in factors:
        if mult <= 0:
            raise ValueError("eta multiplier must be positive")
        order24 += mult * expo
    if order24 % 24 != 0 or order24 < 0:
        raise ValueError(
            f"non-integral order: leading q-power {order24}/24 is not a "
            "nonnegative integer"
        )
    shift = order24 // 24
    if shift >= precision:
        return _from_ints([0] * precision, 1, meta)
    inner = precision - shift
    prod = [0] * inner
    prod[0] = 1
    for mult, expo in factors:
        prod = convolve_exact(prod, _euler_factor(mult, expo, inner), inner)
    return _from_ints([0] * shift + prod, 1, meta)


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = sum(math.comb(m + 1, j) * b[j] for j in range(m))
        b[m] = -acc / (m + 1)
    return b[n]


def make_eisenstein(weight_k: int, precision: int) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if weight_k % 2 != 0 or weight_k < 4:
        raise ValueError("Eisenstein weight must be an even integer >= 4")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    factor = Fraction(-2 * weight_k) / bernoulli_number(weight_k)
    sigma = [0] * precision
    for d in range(1, precision):
        dk = d ** (weight_k - 1)
        for mult in range(d, precision, d):
            sigma[mult] += dk
    # 1 + (p/q) sum sigma(n) q^n, over the denominator q of the factor.
    p, q = factor.numerator, factor.denominator
    num = [q] + [p * sigma[n] for n in range(1, precision)]
    return _from_ints(num, q, FormMeta(2 * weight_k, 1, CharacterMod4.TRIVIAL))
