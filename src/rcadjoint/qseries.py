"""Exact truncated q-expansion arithmetic and classical constructors.

A series stores its coefficients as Python-int numerators over one
common positive denominator, in lowest terms, so every operation runs on
integers: products (``bracket.series_mul``) are integer convolutions
over the product of the denominators.  ``Fraction`` appears only at the
edges (the public constructor and ``coeff``/``coeffs``); JSON input is
read as integers p and q, and floating point never enters this module.
A series knows exactly ``precision`` coefficients (of q^0 ..
q^(precision-1)) and arithmetic never reports coefficients beyond the
minimum precision of its inputs.

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
from itertools import repeat
from typing import Optional, Sequence

from .kernels import convolve_exact, convolve_power, np


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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _store(series: "QSeries", num, den: int, meta: Optional[FormMeta]) -> None:
    """Set num/den/meta on a new series, in canonical form.

    num[i]/den is the coefficient of q^i; den > 0 on entry.  Canonical
    means gcd(den, *num) == 1, so equal series have equal (num, den).
    """
    num = tuple(num)
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(v // g for v in num), den // g
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


# A coefficient string as to_json_dict writes it, sign and "/q" optional;
# the groups are p and q.  _COEFF_READ: the same with q nonzero.
_COEFF_STRING = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_COEFF_READ = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _coeff_strings(num, den: int) -> list:
    """Each num[i]/den as the string "p/q" in lowest terms."""
    if den == 1:
        return [str(v) + "/1" for v in num]
    return [f"{v // g}/{den // g}" for v in num for g in (math.gcd(v, den),)]


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
        return {
            "twice_weight": m.twice_weight if m else None,
            "level": m.level if m else None,
            "character": m.character.value if m else None,
            "precision": len(self.num),
            "coeffs": _coeff_strings(self.num, self.den),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "QSeries":
        """Inverse of ``to_json_dict``; malformed input raises ValueError.

        Each coefficient must be a JSON integer or a string in the form
        ``to_json_dict`` writes, an optional sign and digits with an
        optional "/digits" ("-3/4", "5"), with a nonzero denominator;
        ``twice_weight`` and ``level`` must be JSON integers, and so must
        ``precision`` when given, equal to the coefficient count.  Floats,
        booleans, null and strings such as "1e5", "1.5" or " 5" are
        rejected rather than read inexactly.  One pass matches every
        coefficient (an int as its digits) and keeps only the distinct q;
        a second reads each p/q as the integers p and q, put over the one
        denominator lcm(q).  Only when a match fails are the coefficients
        checked one by one, to name the first bad one.
        """
        if not (isinstance(d, dict) and isinstance(d.get("coeffs"), list)):
            raise ValueError("a series must be a JSON object with a 'coeffs' list")
        coeffs = d["coeffs"]
        if not coeffs:
            raise ValueError("a series must know at least one coefficient")
        texts = map(str, coeffs) if {*map(type, coeffs)} <= {str, int} else [""]
        # str and int only, an int as its digits; None marks a failed match.
        qs = {m[2] or "" if m else None for m in map(_COEFF_READ.fullmatch, texts)}
        if None in qs:
            for s in coeffs:
                match = _COEFF_STRING.fullmatch(s) if type(s) is str else None
                if match is None and type(s) is not int:
                    raise ValueError(f"bad coefficient {s!r}: expected a string "
                                     "'p/q' or an integer")
                if match and int(match[2] or 1) == 0:
                    raise ValueError(f"bad coefficient {s!r}: zero denominator")
        dens = {q: int(q or 1) for q in qs}
        den = math.lcm(*dens.values())
        scale = {q: den // v for q, v in dens.items()}
        parts = map(str.partition, map(str, coeffs), repeat("/"))
        nums = [int(p) * scale[q] for p, _, q in parts]
        precision = d.get("precision")
        if precision is not None:
            if isinstance(precision, bool) or not isinstance(precision, int):
                raise ValueError(
                    f"bad precision: must be an integer, got {precision!r}"
                )
            if precision != len(coeffs):
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
        return _from_ints(nums, den, meta)


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


def _power_product(powers, size: int) -> list:
    """prod base^n over the (base, n) pairs, to size coefficients.

    A power with (sum |base_i|)^n < 2^63 is built one factor at a time by
    convolve_power: every coefficient of base^k is at most
    (sum |base_i|)^k, so each product base^k * base passes slice-adds'
    int64 certificate (for Jacobi's J, a sparse side against a dense one),
    and the running power stays one int64 array from the first product to
    the last.  A product with an earlier factor in front may still fail
    that certificate; it then takes the dense routes.  Any other power is
    built by square-and-multiply, each product through convolve_exact.
    The first factor is taken as it is, so only an empty product (every n
    zero) is the series 1.
    """
    result = None

    def times(base):
        return base if result is None else convolve_exact(result, base, size)

    for base, n in powers:
        if n > 1 and sum(map(abs, base)) ** n < 1 << 63:
            if result is None:
                result, n = base, n - 1
            result = convolve_power(result, base, n, size)
            continue
        while n:
            if n & 1:
                result = times(base)
            n >>= 1
            if n:
                base = convolve_exact(base, base, size)
    return [1] + [0] * (size - 1) if result is None else result


def _pentagonal(size: int) -> list:
    """B = prod (1 - x^n) = sum_k (-1)^k x^(k(3k-1)/2), k over all integers
    (Euler's pentagonal number theorem), to size coefficients."""
    b = [0] * size
    k = 0
    while k * (3 * k - 1) // 2 < size:
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if j < size:
                b[j] = -1 if k % 2 else 1
        k += 1
    return b


def _jacobi(size: int) -> list:
    """J = prod (1 - x^n)^3 = sum_{k>=0} (-1)^k (2k+1) x^(k(k+1)/2)
    (Jacobi's identity; Hardy & Wright, Thm 357), to size coefficients."""
    jac = [0] * size
    k = 0
    while k * (k + 1) // 2 < size:
        jac[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return jac


def _miller_power(exponent: int, size: int) -> list:
    """B^exponent to size coefficients, for any integer exponent.

    Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7) on the sparse
    B, n P_n = sum_{j=1..n} ((e+1) j - n) B_j P_(n-j), is exact in
    integers; it costs O(size^1.5) Python-int steps.
    """
    pentagonal = [(j, bj) for j, bj in enumerate(_pentagonal(size)) if bj][1:]
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
    return p


def _euler_factor(step: int, exponent: int, prec: int) -> list:
    """Integer coefficients of prod_{n>=1} (1 - q^(step*n))^exponent.

    In x = q^step this is B^e for the pentagonal series B = prod (1 - x^n).
    For e >= 0 it is J^(e // 3) * B^(e % 3), with J = B^3 the sparse
    series of Jacobi's identity: a few products (``_power_product``).  A
    power J^q with (sum |J_i|)^q < 2^63 multiplies J in one factor at a
    time (``convolve_power``), each product by int64 slice-adds on one
    int64 array that is read back into Python ints once; a larger one is
    built by square-and-multiply through convolve_exact, J * J by
    slice-adds and the dense later products by the certified FFT route.
    For e < 0 (eta quotients such as eta(2z)^-4) a power of J or B would
    first need a dense series inverse, while Miller's recurrence gives
    B^e directly, so negative exponents keep it.
    """
    size = (prec - 1) // step + 1  # coefficients of x^0 .. x^(size-1)
    if exponent < 0:
        p = _miller_power(exponent, size)
    else:
        q, r = divmod(exponent, 3)
        p = _power_product([(_jacobi(size), q), (_pentagonal(size), r)], size)
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
    product is not a q-series and we refuse.  The rest of factor i is
    prod_n (1 - q^(multiplier_i n))^exponent_i (``_euler_factor``): for a
    nonnegative exponent e, J^(e // 3) * B^(e % 3) from Jacobi's identity
    prod (1 - x^n)^3 = sum_k (-1)^k (2k+1) x^(k(k+1)/2) and the pentagonal
    series B; for a negative one, Miller's recurrence, since powers of J
    and B reach it only through a series inverse.  The factors are
    multiplied with convolve_exact, starting from the first one.  For
    eta(2z)^12 at the flagship's sizes, the one factor is J^4, built as
    J * J, J^2 * J and J^3 * J by slice-adds on one int64 array.
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
    prod = _power_product(
        ((_euler_factor(mult, expo, inner), 1) for mult, expo in factors), inner
    )
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


def _divisor_power_sums(e: int, size: int) -> list:
    """sigma_e(n) = sum_{d | n} d^e for 0 <= n < size, with sigma_e(0) = 0,
    as exact Python ints.

    Multiplicative, from a smallest-prime-factor sieve: for n = p m with p
    the least prime factor of n, sigma(n) = (1 + p^e) sigma(m) when p does
    not divide m, and (1 + p^e) sigma(m) - p^e sigma(m / p) when it does.
    """
    spf = np.zeros(size, dtype=np.int64)
    for p in range(2, math.isqrt(max(size - 1, 0)) + 1):
        if not spf[p]:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    primes = spf == 0
    spf[primes] = np.flatnonzero(primes)
    sigma = [0] * size
    if size > 1:
        sigma[1] = 1
    for n, p in enumerate(spf[2:size].tolist(), 2):
        m = n // p
        pe = p**e
        sigma[n] = (1 + pe) * sigma[m]
        if m % p == 0:
            sigma[n] -= pe * sigma[m // p]
    return sigma


def make_eisenstein(weight_k: int, precision: int) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if weight_k % 2 != 0 or weight_k < 4:
        raise ValueError("Eisenstein weight must be an even integer >= 4")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    factor = Fraction(-2 * weight_k) / bernoulli_number(weight_k)
    sigma = _divisor_power_sums(weight_k - 1, precision)
    # 1 + (p/q) sum sigma(n) q^n, over the denominator q of the factor.
    p, q = factor.numerator, factor.denominator
    num = [q] + [p * sigma[n] for n in range(1, precision)]
    return _from_ints(num, q, FormMeta(2 * weight_k, 1, CharacterMod4.TRIVIAL))
