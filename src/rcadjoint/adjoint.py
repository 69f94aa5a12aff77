"""Special values of the adjoint-map coefficient formula.

The adjoint of T_{g,nu}: f -> [f, g]_nu is fixed by the same triple
(k, l, nu) as the bracket, a ``BracketParams``: k is the weight of the
adjoint's image, l the weight of g.  Callers give f, g and nu, and
``adjoint_case`` reads the triple off the forms' metadata (f lies in
weight k + l + 2 nu).  Everything else is derived from it: the
configuration ``case_id`` (integral/integral, both half-integral, or
one of the two mixed cases) from the parities of k and l, the point
``gamma_s`` = k + l + 2 nu - 1, and

    c(n) = beta(n) * L_{f,g,nu,n}(gamma),
    beta(n) = Gamma(gamma)/Gamma(k-1) * n^(k-1) / (4 pi)^(l+2 nu),

one formula for all four configurations; only the convergence
hypotheses differ between them.  The Dirichlet series runs over m >= 0
and carries a bound on its truncation error from empirical
coefficient-growth profiles.

The series arithmetic upstream is exact.  Each L-sum row is an integer
sum of the stored numerators with the bracket's own integers w_r and
g-side operands, all rows at once by one exact limb product
(``kernels.correlate_sum``), within 2^-168 times its terms' absolute sum
(``_l_series_sums``), and beta is a rational times integer powers of
sqrt(n) and pi, taken to BETA_BITS bits (``beta_value``).  Each printed
number is one Fraction, rounded to a float once.
"""

from __future__ import annotations

import math
import sys
import warnings
from enum import Enum
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .bracket import BracketParams, _rc_numerator, _twice_rising
from .kernels import Scaled, _listed, correlate_sum, int64_array, ints_at, np
from .qseries import QSeries

GUARD_BITS = 168
BETA_BITS = 320
DEFAULT_EPSILON = 0.1

# The float64 screen of the tail fit keeps every n within this relative
# distance of its largest value, far above its few-ulp rounding error.
_SCREEN_SLACK = 1e-9
_FLOAT_TINY = sys.float_info.min


class HypothesisWarning(UserWarning):
    """A theorem hypothesis fails; the computation proceeds regardless."""


class CaseId(Enum):
    INTEGRAL = "integral"
    HALF_HALF = "1"  # both weights half-integral
    INT_FROM_HALF_G = "2"  # integral target, half-integral g
    HALF_FROM_INT_G = "3"  # half-integral target, integral g


def adjoint_case(f_w2: int, g_w2: int, nu: int) -> BracketParams:
    """The triple (k, l, nu) of the bracket map whose adjoint is applied to f.

    f lies in the image weight k + l + 2 nu, so the target twice-weight
    is f_w2 - g_w2 - 4 nu; ValueError if nu < 0 or that weight is <= 1,
    since beta needs Gamma(k-1) at a positive argument.
    """
    p = BracketParams(f_w2 - g_w2 - 4 * nu, g_w2, nu)
    if p.k2 < 3:
        raise ValueError(
            f"target weight {Fraction(p.k2, 2)} must exceed 1: "
            "beta needs Gamma(k-1) at a positive argument"
        )
    return p


def case_id(p: BracketParams) -> CaseId:
    """The weight configuration, read off the parities of k and l."""
    if p.k2 % 2 == 0:
        return CaseId.INTEGRAL if p.l2 % 2 == 0 else CaseId.INT_FROM_HALF_G
    return CaseId.HALF_FROM_INT_G if p.l2 % 2 == 0 else CaseId.HALF_HALF


def gamma_s(p: BracketParams) -> Fraction:
    """The point gamma = k + l + 2 nu - 1 at which the series is taken."""
    return Fraction(p.k2 + p.l2, 2) + 2 * p.nu - 1


def _twice_weights(f: QSeries, g: QSeries) -> Tuple[int, int]:
    if f.meta is None or g.meta is None:
        raise ValueError("f and g need form metadata (their weights)")
    return f.meta.twice_weight, g.meta.twice_weight


def validate_hypotheses(p: BracketParams, g_is_cusp: bool) -> Optional[str]:
    """The message of the failed convergence hypothesis, or None.

    These hypotheses are all that differ between the four cases; a
    failure is a warning and never blocks computation.
    """
    k, l, case = p.k2 // 2, p.l2 // 2, case_id(p)
    if case is CaseId.INTEGRAL:
        if k < 6:
            return f"integral case needs k >= 6 (k={k})"
        if g_is_cusp or l < k - 3:
            return None
        return f"non-cusp g needs l < k - 3 (l={l}, k={k})"
    if case is CaseId.HALF_HALF:
        if g_is_cusp:
            return None if k > 2 else f"cusp g needs k > 2 (k={k})"
        if Fraction(l) < Fraction(k) - Fraction(3, 2):
            return None
        return f"non-cusp g needs l < k - 3/2 (l={l}, k={k})"
    # Cases 2 and 3 share their hypothesis.
    if g_is_cusp:
        return None if k > 3 else f"cusp g needs k > 3 (k={k})"
    if l < k - 2:
        return None
    return f"non-cusp g needs l < k - 2 (l={l}, k={k})"


class TailProfile(NamedTuple):
    """Empirical coefficient growth |a(n)| <= constant * n^exponent.

    The constant is empirical: the maximum of |a(n)|/n^exponent over the
    computed range, with the exponent supplied by the growth lemmas.
    """

    exponent: float
    constant: float


def growth_exponent(series: QSeries) -> float:
    """Growth-lemma exponent for a form's coefficients (before epsilon).

    Weight w (from the metadata): non-cusp forms grow like n^(w-1), cusp
    forms (constant term 0) like n^(w/2 - 1/4), for integral and
    half-integral weight alike.  Floored at 0 (an exponent below zero
    would let the empirical constant drift with precision while
    coefficients of bounded forms stay put).
    """
    w = float(series.meta.twice_weight) / 2.0
    e = (w - 1.0) if series.coeff(0) else (w / 2.0 - 0.25)
    return max(e, 0.0)


def _tail_candidates(coeffs, den: int, exponent: float) -> Optional[List[int]]:
    """The n at which |a(n)|/den/n^exponent can be largest, a(n) = coeffs[n-1]
    (Python ints, an int64 array or rows).

    A float64 screen: every quotient is computed in floats, and the n whose
    value is within _SCREEN_SLACK relative of the largest are returned.  The
    float value is within a few ulps of the exact expression's when every
    operand and quotient is a normal float, so the largest exact value is
    among them.  None, so that every n is evaluated exactly, when the screen
    cannot vouch for that: a float conversion overflows, n^exponent at a
    nonzero a(n) is not a normal float below 2^1023, |a(n)|/den is
    subnormal, or the largest value is not finite or is near the subnormals
    (the zero series included).

    An int64 array is cast to float64 as it is; Python ints, and rows read
    into them, are read as int64 and then cast when they all fit, and as
    floats directly otherwise: each way rounds each int correctly to
    nearest, so the floats are the same.  The magnitudes are taken after
    the cast, where -2^63 has one.
    """
    if isinstance(coeffs, np.ndarray) and coeffs.ndim > 1:
        coeffs = _listed(coeffs)
    try:
        try:
            if not isinstance(coeffs, np.ndarray):
                coeffs = int64_array(coeffs)
            floats = coeffs.astype(np.float64)
        except OverflowError:
            floats = np.array(coeffs, dtype=np.float64)
        mags = np.abs(floats, out=floats)
        scale = float(den)
    except OverflowError:
        return None
    n = np.flatnonzero(mags) + 1
    if not n.size:
        return None
    with np.errstate(all="ignore"):
        quotients = mags[n - 1] / scale
        powers = np.power(n.astype(np.float64), exponent)
        if not (
            quotients.min() >= _FLOAT_TINY
            and _FLOAT_TINY <= powers.min()
            and powers.max() < 2.0**1023
        ):
            return None
        quotients /= powers
        peak = quotients.max()
        if not 2 * _FLOAT_TINY <= peak < math.inf:
            return None
        return n[quotients >= peak * (1 - _SCREEN_SLACK)].tolist()


def fit_tail_profile(series: QSeries, epsilon: float = DEFAULT_EPSILON) -> TailProfile:
    """Fit an empirical growth constant for a series over its computed range.

    The exponent is ``growth_exponent(series)`` plus epsilon.  The constant
    is the largest |a(n)|/den/n^exponent, evaluated exactly at the n that
    ``_tail_candidates`` screens in, or at every n when it cannot screen.
    ValueError names a coefficient whose quotient is out of float range,
    or the exponent and the n at which n^exponent is.
    """
    if series.precision < 10:
        raise ValueError("need at least 10 coefficients to fit a tail profile")
    exponent = growth_exponent(series) + epsilon
    constant = 0.0
    den = series.den
    coeffs = series.stored_num[1:]
    candidates = _tail_candidates(coeffs, den, exponent)
    if candidates is None:
        candidates = range(1, len(coeffs) + 1)
    for n, v in zip(candidates, ints_at(series.stored_num, candidates)):
        if v:
            try:
                # int / int rounds correctly, exactly as float(Fraction) does.
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
    return TailProfile(exponent, constant)


def _tail_bound(
    f: QSeries, g: QSeries, p: BracketParams, M: int, epsilon: float
) -> float:
    """Bound on the terms m > M of every _l_series_sums sum (free of n).

    Uses the empirical growth profiles of f and g plus the integral
    comparison sum_{m>M} m^t <= M^(t+1)/(-t-1), valid when t < -1.
    """
    pf = fit_tail_profile(f, epsilon)
    pg = fit_tail_profile(g, epsilon)
    alpha_weight = _rounded(
        Fraction(sum(abs(_rc_numerator(p, r)) for r in range(p.nu + 1)), 1 << p.nu)
    )
    t = pf.exponent + p.nu + pg.exponent - float(gamma_s(p))
    if t < -1.0:
        bound = pf.constant * pg.constant * alpha_weight * M ** (t + 1) / (-(t + 1))
        # An alpha_weight beyond float range is inf, and inf times a zero
        # factor is nan; inf is then still a bound.
        return math.inf if math.isnan(bound) else bound
    warnings.warn(
        f"tail exponent {t:.3f} >= -1: truncated series not certified "
        "convergent under the fitted profiles",
        HypothesisWarning,
        stacklevel=3,
    )
    return math.inf


def _floor_weight(P: int, two_gamma: int):
    """j -> floor(2^P j^-gamma), exactly, for gamma = two_gamma / 2 >= 0."""
    if two_gamma % 2:
        # floor(sqrt(floor(x))) = floor(sqrt(x)) for x = 2^2P j^-2gamma.
        top = 1 << 2 * P
        return lambda j: math.isqrt(top // j**two_gamma)
    top, half = 1 << P, two_gamma // 2
    return lambda j: top // j**half


def _l_series_sums(
    f: QSeries,
    g: QSeries,
    p: BracketParams,
    ns: Sequence[int],
    M: int,
) -> List[Fraction]:
    """Partial sums of sum_m a(n+m) b(m) alpha(k,l,nu;n,m) (n+m)^-gamma.

    Summed over m = 0..M for every n in ns, in integers; coefficients must
    be real, so the conjugate on b is the identity.  The m = 0 term
    b(0) a(n) c_nu n^nu n^-s is the one the unfolding picks up when g is
    not a cusp form.  gamma is ``gamma_s(p)``.

    With A[j] = f.num[j] floor(2^P j^-gamma), computed once for each j = n+m
    that a nonzero b(m) reaches (f's stored numerators read at those j
    only), row n is
    sum_r w_r n^r sum_m A[n+m] m^(nu-r) g.num[m], all over
    2^(nu+P) f.den g.den: w_r = 2^nu c_r are the weights rc_bracket
    convolves with, and m^(nu-r) g.num[m] its g-side operands
    ``Scaled(g.num, 1, nu - r)``.  The nu + 1 inner sums of every row come
    from one limb product, ``kernels.correlate_sum``, whose float64 partial
    sums are certified integers, so every row is exact in integers.
    P = GUARD_BITS + ceil(gamma * bit_length(max(ns) + M)) keeps every
    floor above 2^GUARD_BITS, so each returned Fraction is within 2^-168
    times the sum of the terms' absolute values of the exact partial sum.
    """
    if min(ns) < 1:
        raise ValueError("n must be positive")
    if M < 1:
        raise ValueError("M must be positive")
    gamma = gamma_s(p)
    if gamma < 0:
        raise ValueError(f"gamma = {gamma} must be nonnegative (f of weight >= 1)")
    top = max(ns) + M
    if f.precision < top + 1:
        raise ValueError(
            f"f needs at least {top + 1} coefficients, has {f.precision}"
        )
    if g.precision < M + 1:
        raise ValueError(
            f"g needs at least {M + 1} coefficients, has {g.precision}"
        )
    a = f.stored_num
    two_gamma = int(2 * gamma)
    P = GUARD_BITS + math.ceil(gamma * top.bit_length())
    floor_weight = _floor_weight(P, two_gamma)

    def weights(js):
        return [v * floor_weight(j) if v else 0 for j, v in zip(js, ints_at(a, js))]

    b = g.stored_num[: M + 1]
    W = [_rc_numerator(p, r) for r in range(p.nu + 1)]
    g_side = [Scaled(b, 1, p.nu - r) for r in range(p.nu + 1)]
    inner = correlate_sum(weights, ns, g_side)
    den = (f.den * g.den) << (p.nu + P)
    return [
        Fraction(sum(w * n**r * s for r, (w, s) in enumerate(zip(W, row))), den)
        for n, row in zip(ns, inner)
    ]


def _pi_fixed(bits: int) -> int:
    """floor(pi 2^bits), give or take 1: Machin's formula in integers.

    pi = 16 arctan(1/5) - 4 arctan(1/239); 16 guard bits absorb the floor
    of every series term.
    """
    one = 1 << (bits + 16)

    def arctan_inv(x: int) -> int:
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> 16


_PI = _pi_fixed(BETA_BITS)


def _gamma_rational(x: Fraction) -> Fraction:
    """Gamma(x), less its factor sqrt(pi) when x is half-integral (x > 0).

    Gamma(x0 + m) = Gamma(x0) * prod_{j<m} (x0 + j) with x0 = 1 or 1/2,
    and Gamma(1) = 1, Gamma(1/2) = sqrt(pi).
    """
    w2 = 2 if x.denominator == 1 else 1
    m = int(x - Fraction(w2, 2))
    return Fraction(_twice_rising(w2, m, 0), 1 << m)


def beta_value(p: BracketParams, n: int) -> Fraction:
    """beta(k,l,nu;n) = Gamma(gamma)/Gamma(k-1) n^(k-1) / (4 pi)^(l+2 nu).

    Gamma at a half-integer is a rational times sqrt(pi), and the sqrt(pi)
    of Gamma(gamma), Gamma(k-1) and (4 pi)^(l+2 nu) cancel, so beta is
    R n^floor(k-1) (times sqrt(n) if k is not integral) pi^-j, R rational
    and j an integer.  pi and sqrt(n) are BETA_BITS-bit fixed-point
    integers, so the Fraction returned is within (|j| + 2) 2^-BETA_BITS
    relative of beta(n): below 2^-250 for any |j| < 2^69.
    """
    gamma = gamma_s(p)
    if gamma <= 0:
        raise ValueError(f"gamma = {gamma} must be positive: beta needs Gamma(gamma)")
    k2, twice_exponent = p.k2, p.l2 + 4 * p.nu  # (4 pi)^(l+2 nu)
    half_k = k2 % 2
    # pi^(twice_exponent/2) times the sqrt(pi) of Gamma(k-1), over that of
    # Gamma(gamma): an integer power of pi.
    j = (twice_exponent + half_k - (gamma.denominator == 2)) // 2
    value = (
        _gamma_rational(gamma)
        / _gamma_rational(Fraction(k2 - 2, 2))
        * Fraction(2) ** -twice_exponent
        * n ** ((k2 - 2) // 2)
        * Fraction(_PI, 1 << BETA_BITS) ** -j
    )
    if half_k:
        value *= Fraction(math.isqrt(n << 2 * BETA_BITS), 1 << BETA_BITS)
    return value


def _rounded(x: Fraction) -> float:
    """x rounded to a float once, or +-inf when x is beyond float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def adjoint_coefficients(
    f: QSeries,
    g: QSeries,
    nu: int,
    n_max: int,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> List[Tuple[int, float, float]]:
    """Coefficients c(n) = beta(n) * L_{f,g,nu,n}(gamma) for n = 1..n_max.

    f and g must carry form metadata: the triple (k, l, nu) is
    ``adjoint_case`` of their twice-weights and nu, derived before
    anything is summed.

    The series includes its m = 0 term, which is nonzero when g has a
    constant term; without it the adjoint identity fails for non-cusp g,
    and with it c(n) is exactly proportional to the basis coefficients on
    one-dimensional spaces.

    Returns (n, c_n, err_bound) triples; err_bound is beta(n) times the
    L-value tail bound.  Emits a HypothesisWarning when the relevant
    theorem's hypotheses fail (the numbers are still computed).
    """
    p = adjoint_case(*_twice_weights(f, g), nu)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if f.coeff(0):
        raise ValueError("f must be a cusp form at infinity (a(0) = 0)")
    message = validate_hypotheses(p, g_is_cusp=not g.coeff(0))
    if message is not None:
        warnings.warn(message, HypothesisWarning, stacklevel=2)
    if n_max == 0:
        return []
    ns = range(1, n_max + 1)
    sums = _l_series_sums(f, g, p, ns, M)
    tail = _tail_bound(f, g, p, M, epsilon)
    rows = []
    for n, total in zip(ns, sums):
        beta = beta_value(p, n)
        err = _rounded(beta * Fraction(tail)) if math.isfinite(tail) else tail
        rows.append((n, _rounded(beta * total), err))
    return rows


def rows_to_csv(rows: List[Tuple[int, float, float]]) -> str:
    lines = ["n,c_n,err_bound"]
    for n, c_n, err in rows:
        lines.append(f"{n},{c_n:.17g},{err:.17g}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, terms_used: int, p: BracketParams) -> list:
    return [
        {
            "n": n,
            "value": f"{c_n:.17g}",
            "tail_bound": f"{err:.17g}",
            "terms_used": terms_used,
            "s": str(gamma_s(p)),
        }
        for n, c_n, err in rows
    ]
