"""Exact truncated q-expansion arithmetic and classical constructors.

A series stores its coefficients as integer numerators over one common
positive denominator, in lowest terms, so every operation runs on
integers: products (``bracket.series_mul``) are integer convolutions
over the product of the denominators.  The numerators are a tuple of
Python ints, or, over the denominator 1, the read-only int64 array that a
kernel made them on (slice-adds' accumulator, a dense route's output whose
values all fit, theta, the eta powers, E4 up to 317940 coefficients and E6
up to 1776): the next product, the tail fit and the L-sum read that array
as it is, and the tuple ``num`` is built only when something asks for it.
``Fraction`` appears only at the edges (the public constructor and
``coeff``/``coeffs``); JSON input is read as integers p and q, and
floating point never enters this module.
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
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from .kernels import _convolve_power, _ints_from_rows, _listed, _read_rows, np


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


class _FormMetaFields(NamedTuple):
    twice_weight: int
    level: int
    character: CharacterMod4


class FormMeta(_FormMetaFields):
    """Weight/level/character bookkeeping attached to a series.

    ``twice_weight`` stores 2k so half-integral weights are exact.
    Half-integral weight forces 4 | level (such forms live inside
    Gamma_0(4)).  Cusp-ness at infinity is not stored: it is the
    vanishing of the series' constant term.  The checks run on every
    construction path: NamedTuple's own ``_make``, which ``_replace``
    calls, would skip ``__new__``, so here it calls the constructor.
    """

    __slots__ = ()

    def __new__(cls, twice_weight: int, level: int, character: CharacterMod4):
        if level <= 0:
            raise ValueError("level must be positive")
        if twice_weight % 2 != 0 and level % 4 != 0:
            raise ValueError("half-integral weight requires 4 | level")
        return super().__new__(cls, twice_weight, level, character)

    @classmethod
    def _make(cls, iterable) -> "FormMeta":
        return cls(*iterable)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _store(series: "QSeries", num, den: int, meta: Optional[FormMeta]) -> None:
    """Set the numerators, den and meta of a new series, in canonical form.

    num[i]/den is the coefficient of q^i; den > 0 on entry.  Canonical
    means gcd(den, *num) == 1, so equal series have equal (num, den).  An
    int64 array is kept, made read-only, over den 1 (the series takes it
    over: nothing else may write to it); over any other den it is read
    into Python ints and reduced as any other num.
    """
    if isinstance(num, np.ndarray) and den == 1:
        num.flags.writeable = False
        ints = None
    else:
        num = tuple(num.tolist() if isinstance(num, np.ndarray) else num)
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num, den = tuple(v // g for v in num), den // g
        ints = num
    if not len(num):
        raise ValueError("a series must know at least one coefficient")
    object.__setattr__(series, "stored_num", num)
    object.__setattr__(series, "_num", ints)
    object.__setattr__(series, "den", den)
    object.__setattr__(series, "meta", meta)


def _from_ints(num, den: int, meta: Optional[FormMeta] = None) -> "QSeries":
    """The series with coefficients num[i]/den (den > 0): num is an iterable
    of Python ints, or an int64 array the series takes over."""
    series = object.__new__(QSeries)
    _store(series, num, den, meta)
    return series


# A coefficient string as to_json_dict writes it, sign and "/q" optional;
# the groups are p and q.  _COEFF_READ: the same with q nonzero.
_COEFF_STRING = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_COEFF_READ = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _coeff_strings(num, den: int) -> list:
    """Each num[i]/den as the string "p/q" in lowest terms; num is a
    sequence of Python ints or an int64 array."""
    if isinstance(num, np.ndarray):
        num = num.tolist()
    if den == 1:
        return [str(v) + "/1" for v in num]
    return [f"{v // g}/{den // g}" for v in num for g in (math.gcd(v, den),)]


class QSeries:
    """Truncated q-expansion with exact rational coefficients.

    Stored as integer numerators over one positive denominator ``den``, in
    lowest terms (gcd(den, *num) == 1).  ``stored_num`` holds the
    numerators as the kernels read them: a tuple of Python ints, or, over
    den 1, the read-only int64 array a kernel made.  ``num`` is always the
    tuple: for an array it is built on first access and kept.  Equality,
    hashing, ``repr``, ``coeff``/``coeffs``, ``truncate`` and the JSON text
    do not depend on which one is stored.  Immutable: no attribute can be
    set and the array cannot be written; safe to share between threads (two
    threads that build ``num`` at once build equal tuples, and either is
    kept).
    """

    __slots__ = ("stored_num", "_num", "den", "meta")

    def __init__(self, coeffs: Sequence, meta: Optional[FormMeta] = None):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _store(self, (c.numerator * (den // c.denominator) for c in cs), den, meta)

    def __setattr__(self, *args):
        raise AttributeError("QSeries is immutable")

    @property
    def num(self) -> tuple:
        """The numerators as a tuple of Python ints."""
        num = self._num
        if num is None:
            num = tuple(self.stored_num.tolist())
            object.__setattr__(self, "_num", num)
        return num

    @property
    def precision(self) -> int:
        return len(self.stored_num)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions (built on each access)."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n < self.precision:
            raise IndexError(
                f"coefficient of q^{n} unknown (precision {self.precision})"
            )
        return Fraction(int(self.stored_num[n]), self.den)

    def truncate(self, precision: int) -> "QSeries":
        if not 1 <= precision <= self.precision:
            raise ValueError("cannot truncate beyond known precision")
        return _from_ints(self.stored_num[:precision], self.den, self.meta)

    def is_zero(self) -> bool:
        num = self.stored_num
        return not (num.any() if isinstance(num, np.ndarray) else any(num))

    def with_meta(self, meta: Optional[FormMeta]) -> "QSeries":
        return _from_ints(self.stored_num, self.den, meta)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.num, self.den, self.meta) == (other.num, other.den, other.meta)

    def __hash__(self):
        return hash((self.num, self.den, self.meta))

    def __repr__(self):
        head = ", ".join(str(self.coeff(n)) for n in range(min(6, self.precision)))
        tail = ", ..." if self.precision > 6 else ""
        return f"QSeries([{head}{tail}], precision={self.precision})"

    def json_fields(self) -> dict:
        """The fields of ``to_json_dict`` that come before "coeffs"."""
        m = self.meta
        return {
            "twice_weight": m.twice_weight if m else None,
            "level": m.level if m else None,
            "character": m.character.value if m else None,
            "precision": self.precision,
        }

    def to_json_dict(self) -> dict:
        coeffs = _coeff_strings(self.stored_num, self.den)
        return {**self.json_fields(), "coeffs": coeffs}

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
    at every positive perfect square.  Its numerators are an int64 array.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    num = np.zeros(precision, dtype=np.int64)
    num[np.arange(1, math.isqrt(precision - 1) + 1) ** 2] = 2
    num[0] = 1
    return _from_ints(num, 1, FormMeta(1, 4, CharacterMod4.TRIVIAL))


def _power_product(powers, size):
    """prod base^n over the (base, n) pairs, to size coefficients: an int
    list, or the int64 array that slice-adds or the FFT made it on.

    A power with (sum |base_i|)^n < 2^63 is built one factor at a time by
    _convolve_power: every coefficient of base^k is at most
    (sum |base_i|)^k, so each product base^k * base passes slice-adds'
    int64 certificate (for Jacobi's J, a sparse side against a dense one),
    and the running power stays one int64 array from the first product to
    the last, which is returned as it is.  A product with an earlier factor
    in front may still fail that certificate; it then takes the dense
    routes.  Any other power is built by square-and-multiply, each product
    one _convolve_power factor, kept as its route gives it (the dense
    routes' int64 array when every value fits one).  The first factor is
    taken as it is, so only an empty product (every n zero) is the series 1.
    """
    result = None

    def times(base):
        return base if result is None else _convolve_power(result, base, 1, size)

    for base, n in powers:
        if n > 1 and sum(map(abs, base)) ** n < 1 << 63:
            if result is None:
                result, n = base, n - 1
            result = _convolve_power(result, base, n, size)
            continue
        while n:
            if n & 1:
                result = times(base)
            n >>= 1
            if n:
                base = _convolve_power(base, base, 1, size)
    return [1] + [0] * (size - 1) if result is None else result


def _spread(p, size: int, start: int = 0, step: int = 1):
    """size coefficients, p[i] at start + step i and 0 elsewhere: an int64
    array when p is one, else an int list."""
    out = np.zeros(size, np.int64) if isinstance(p, np.ndarray) else [0] * size
    out[start::step] = p
    return out


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


def _euler_factor(step: int, exponent: int, prec: int):
    """Integer coefficients of prod_{n>=1} (1 - q^(step*n))^exponent, as an
    int list or the int64 array ``_power_product`` made them on.

    In x = q^step this is B^e for the pentagonal series B = prod (1 - x^n).
    For e >= 0 it is J^(e // 3) * B^(e % 3), with J = B^3 the sparse
    series of Jacobi's identity: a few products (``_power_product``).  A
    power J^q with (sum |J_i|)^q < 2^63 multiplies J in one factor at a
    time (``_convolve_power``), each product by int64 slice-adds on one
    int64 array, which is kept; a larger one is built by
    square-and-multiply, J * J by slice-adds and the dense later products
    by the certified FFT route, whose int64 output is kept too.
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
    return _spread(p, prec, step=step)


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
    multiplied one product at a time, starting from the first one.  For
    eta(2z)^12 at the flagship's sizes, the one factor is J^4, built as
    J * J, J^2 * J and J^3 * J by slice-adds on one int64 array (above
    54991 coefficients as J^2 * J^2 on the FFT route, whose output is an
    int64 array too), and the series keeps that array, spread to
    q^(1 + 2i).
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
    return _from_ints(_spread(prod, precision, shift), 1, meta)


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


def _divisor_sum_rows(e: int, size: int, factor: int = 1):
    """factor sigma_e(n) for 0 <= n < size, with sigma_e(0) = 0, as (size,
    width) uint8 rows of little-endian two's-complement bytes.

    A divisor-pair sieve in base-2^32 digits (uint64, exact) modulo
    2^(32 count): for each d <= sqrt(size - 1), one strided add puts q^e
    into every n = d q with q >= d, and one more puts d^e into those with
    q > d.  The terms factor q^e are e multiply-and-carry passes by q on
    the digits of factor mod 2^(32 count), so a negative factor comes out
    in two's complement.  count digits hold factor sigma_e(n), below
    |factor| 2^(e B + 1) with B the bit length of size - 1 (sigma_e(n) <
    zeta(e) n^e for e >= 2), and its sign bit.
    """
    bits = max(size - 1, 1).bit_length()
    top = e * bits + (1 if e >= 2 else bits) + abs(factor).bit_length()
    count = top // 32 + 1
    modular = factor % (1 << 32 * count)
    digits = [[modular >> s & 0xFFFFFFFF] for s in range(0, 32 * count, 32)]
    terms = np.array(digits, np.uint64).repeat(size, axis=1)
    q = np.arange(size, dtype=np.uint64)
    carry = np.empty(size, np.uint64)
    for _ in range(e):
        carry.fill(0)
        for digit in terms:
            digit *= q
            digit += carry
            np.right_shift(digit, 32, out=carry)
            digit &= 0xFFFFFFFF
    sums = np.zeros_like(terms)
    for d in range(1, math.isqrt(max(size - 1, 0)) + 1):
        sums[:, d * d :: d] += terms[:, d : (size - 1) // d + 1]
        sums[:, d * d + d :: d] += terms[:, d, None]
    del terms
    carry.fill(0)
    for digit in sums:
        carry += digit
        np.bitwise_and(carry, 0xFFFFFFFF, out=digit)
        carry >>= 32
    return sums.T.astype("<u4", order="C").view(np.uint8)


def _divisor_power_sums(e: int, size: int) -> list:
    """sigma_e(n) = sum_{d | n} d^e for 0 <= n < size, with sigma_e(0) = 0,
    as exact Python ints (_divisor_sum_rows read by the kernels' codec)."""
    return _ints_from_rows(_divisor_sum_rows(e, size))


def make_eisenstein(weight_k: int, precision: int) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    The numerators q and p sigma_{k-1}(n) over the denominator q of
    -2k/B_k = p/q come from the divisor sieve (_divisor_sum_rows).  Over
    q = 1 the series keeps the int64 array the codec reads them as when
    every one fits (E4 up to 317940 coefficients, E6 up to 1776).
    """
    if weight_k % 2 != 0 or weight_k < 4:
        raise ValueError("Eisenstein weight must be an even integer >= 4")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    factor = Fraction(-2 * weight_k) / bernoulli_number(weight_k)
    p, q = factor.numerator, factor.denominator
    num = _read_rows(_divisor_sum_rows(weight_k - 1, precision, p))
    if q != 1:  # an array is kept over the denominator 1 only
        num = _listed(num)
    num[0] = q
    return _from_ints(num, q, FormMeta(2 * weight_k, 1, CharacterMod4.TRIVIAL))
