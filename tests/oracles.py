"""Independent brute-force oracles used by the test suite.

Everything here avoids the package's series engine on purpose: naive
convolution, direct lattice-point counting, a separate Bernoulli
recurrence, a term-by-term alpha and beta from mpmath's Gamma and pi, the
series file as ``json.dumps`` writes it and read one coefficient at a
time, so that equalities between library output and oracle output are
genuine cross-checks.
"""

import json
import math
import re
from fractions import Fraction
from itertools import compress

import mpmath

from rcadjoint.adjoint import GUARD_BITS, _floor_weight, gamma_s
from rcadjoint.bracket import _rc_numerator, rc_coefficient
from rcadjoint.qseries import CharacterMod4, FormMeta, QSeries


def naive_mul(a, b, prec):
    """Schoolbook truncated polynomial product."""
    out = [Fraction(0)] * prec
    for i, ai in enumerate(a[:prec]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: prec - i]):
            out[i + j] += ai * bj
    return out


def series_add(a, b, ca=1, cb=1):
    """ca*a + cb*b coefficient-wise, for exact rationals (int or Fraction),
    to the shorter of the two lengths.  A coefficient that is zero on both
    sides is 0 without any arithmetic, so sparse sums stay cheap."""
    return [ca * x + cb * y if x or y else 0 for x, y in zip(a, b)]


def apply_D(a, r):
    """The derivation q d/dq applied r times: a[n] * n^r, with 0^0 = 1."""
    return [c * n**r for n, c in enumerate(a)]


def eta_power_oracle(exponent, prec):
    """Expand prod_{n>=1} (1 - q^n)^exponent naively.

    Multiplies the binomials one at a time; no pentagonal shortcut.
    """
    out = [Fraction(0)] * prec
    out[0] = Fraction(1)
    for n in range(1, prec):
        for _ in range(exponent):
            # multiply by (1 - q^n)
            for idx in range(prec - 1, n - 1, -1):
                out[idx] -= out[idx - n]
    return out


def delta_oracle(prec):
    """tau(n) for n < prec via q * prod (1-q^n)^24, naive expansion."""
    inner = eta_power_oracle(24, prec)
    return [Fraction(0)] + inner[: prec - 1]


def delta_4_6_oracle(prec):
    """Coefficients of q * prod (1-q^(2n))^12, naive expansion."""
    out = [Fraction(0)] * prec
    out[0] = Fraction(1)
    for n in range(2, prec, 2):
        for _ in range(12):
            for idx in range(prec - 1, n - 1, -1):
                out[idx] -= out[idx - n]
    return [Fraction(0)] + out[: prec - 1]


def two_squares_count(n):
    """Number of (x, y) in Z^2 with x^2 + y^2 = n, by direct search."""
    count = 0
    x = 0
    while x * x <= n:
        rest = n - x * x
        y = 0
        while y * y < rest:
            y += 1
        if y * y == rest:
            if x == 0 and y == 0:
                count += 1
            elif x == 0 or y == 0:
                count += 2
            else:
                count += 4
        x += 1
    return count


def bernoulli_oracle(n):
    """B_n via the Akiyama-Tanigawa algorithm (B_1 = +1/2 convention;
    only even indices are used by callers)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def alpha_coeff(p, n, m):
    """alpha(k, l, nu; n, m) = sum_r c_r n^r m^(nu-r), the adjoint sum's kernel.

    Built term by term from the bracket's scalar coefficients, with the
    bracket's own convention that m^0 = 1, so m = 0 gives c_nu n^nu.  It
    equals the q^(n+m) coefficient of the bracket of q^n and q^m, which
    test_criterion_1 checks over a full grid.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return sum(
        rc_coefficient(p, r) * n**r * m ** (p.nu - r) for r in range(p.nu + 1)
    )


def l_series_sums_loop(f, g, p, ns, M):
    """The exact L-sum rows of ``adjoint._l_series_sums``, term by term.

    For each n, sum over the nonzero b(m), m = 0..M, of
    A[n+m] * b(m) * sum_r w_r n^r m^(nu-r) (Horner in m), with the same
    integers w_r = 2^nu c_r and A[j] = a(j) floor(2^P j^-gamma) at the
    same P, over 2^(nu+P) f.den g.den: so the rows must equal the
    library's Fractions exactly.
    """
    gamma = gamma_s(p)
    top = max(ns) + M
    W = [_rc_numerator(p, r) for r in range(p.nu + 1)]
    A = f.num
    B = [(m, g.num[m]) for m in compress(range(M + 1), g.num)]
    den = (f.den * g.den) << p.nu
    two_gamma = int(2 * gamma)
    P = GUARD_BITS + math.ceil(gamma * top.bit_length())
    floor_weight = _floor_weight(P, two_gamma)
    w = [None] * (top + 1)
    sums = []
    for n in ns:
        # Horner in m, from m^nu (coefficient w_0) down to m^0 (w_nu n^nu).
        horner = [w_r * n**r for r, w_r in enumerate(W)]
        total = 0
        for m, b in B:
            j = n + m
            wj = w[j]
            if wj is None:
                a = A[j]
                wj = w[j] = a * floor_weight(j) if a else 0
            if not wj:
                continue
            alpha = 0
            for h in horner:
                alpha = alpha * m + h
            total += wj * (b * alpha)
        sums.append(Fraction(total, den << P))
    return sums


def to_mpf(x):
    """An exact rational as an mpf at the working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def beta_oracle(p, n):
    """beta(n) = Gamma(gamma)/Gamma(k-1) n^(k-1) / (4 pi)^(l+2 nu) in mpmath."""
    k, l = to_mpf(Fraction(p.k2, 2)), to_mpf(Fraction(p.l2, 2))
    return (
        mpmath.gamma(k + l + 2 * p.nu - 1)
        / mpmath.gamma(k - 1)
        * mpmath.power(n, k - 1)
        / mpmath.power(4 * mpmath.pi, l + 2 * p.nu)
    )


def tail_constant_oracle(num, den, exponent):
    """max |a(n)|/den/n^exponent over the nonzero a(n) = num[n]/den, n >= 1.

    The exact expression at every n, in order, as a loop; ValueError names
    the first n whose |a(n)|/den, or whose n^exponent, is out of float range.
    """
    constant = 0.0
    for n, v in enumerate(num[1:], start=1):
        if v:
            try:
                quotient = abs(v) / den
            except OverflowError:
                raise ValueError(
                    f"coefficient {n} is out of float range for the tail profile"
                ) from None
            try:
                power = n**exponent
            except OverflowError:
                raise ValueError(
                    f"n^{exponent} is out of float range at n = {n} for the "
                    "tail profile"
                ) from None
            constant = max(constant, quotient / power)
    return constant


def series_file_dumps(series):
    """A series file as ``json.dumps`` writes it, through the pure-Python
    indent encoder: the text that ``cli._series_parts`` must join to."""
    return json.dumps(series.to_json_dict(), indent=2) + "\n"


_ONE_COEFF = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def series_from_json_loop(d):
    """``QSeries.from_json_dict``, one coefficient at a time.

    Each coefficient is matched on its own and read as the integers p and q,
    the first bad one raising its ValueError; the series is then built from
    Fractions by the public constructor.  Same checks, in the same order, as
    the library's one-pass reader, so the two must agree on every input:
    the same series, or the same message.
    """
    if not (isinstance(d, dict) and isinstance(d.get("coeffs"), list)):
        raise ValueError("a series must be a JSON object with a 'coeffs' list")
    if not d["coeffs"]:
        raise ValueError("a series must know at least one coefficient")
    coeffs = []
    for s in d["coeffs"]:
        match = _ONE_COEFF.fullmatch(s) if isinstance(s, str) else None
        if match is not None:
            p, q = int(match[1]), int(match[2] or 1)
        elif isinstance(s, int) and not isinstance(s, bool):
            p, q = s, 1
        else:
            raise ValueError(
                f"bad coefficient {s!r}: expected a string 'p/q' or an integer"
            )
        if q == 0:
            raise ValueError(f"bad coefficient {s!r}: zero denominator")
        coeffs.append(Fraction(p, q))
    precision = d.get("precision")
    if precision is not None:
        if isinstance(precision, bool) or not isinstance(precision, int):
            raise ValueError(f"bad precision: must be an integer, got {precision!r}")
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
    return QSeries(coeffs, meta)
