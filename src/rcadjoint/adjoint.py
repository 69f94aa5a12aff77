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

The series arithmetic upstream is exact; the L-sums and Gamma factors
here run at RC_ADJOINT_PRECISION_DIGITS significant decimal digits
(default 50, at most 10000) via mpmath.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .bracket import BracketParams, TwiceWeight, rc_coefficient
from .qseries import QSeries, _lowest_terms

PRECISION_ENV = "RC_ADJOINT_PRECISION_DIGITS"
DIGITS_RANGE = (15, 10000)
DEFAULT_EPSILON = 0.1


def working_digits() -> int:
    raw = os.environ.get(PRECISION_ENV, "").strip()
    if not raw:
        return 50
    lo, hi = DIGITS_RANGE
    try:
        digits = int(raw)
    except ValueError:
        digits = None
    if digits is None or not lo <= digits <= hi:
        raise ValueError(
            f"{PRECISION_ENV} must be an integer from {lo} to {hi}, got {raw!r}"
        )
    return digits


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
    p = BracketParams(TwiceWeight(f_w2 - g_w2 - 4 * nu), TwiceWeight(g_w2), nu)
    if p.k.w2 < 3:
        raise ValueError(
            f"target weight {p.k.weight} must exceed 1: "
            "beta needs Gamma(k-1) at a positive argument"
        )
    return p


def case_id(p: BracketParams) -> CaseId:
    """The weight configuration, read off the parities of k and l."""
    if p.k.is_integral:
        return CaseId.INTEGRAL if p.l.is_integral else CaseId.INT_FROM_HALF_G
    return CaseId.HALF_FROM_INT_G if p.l.is_integral else CaseId.HALF_HALF


def gamma_s(p: BracketParams) -> Fraction:
    """The point gamma = k + l + 2 nu - 1 at which the series is taken."""
    return p.k.weight + p.l.weight + 2 * p.nu - 1


def _twice_weights(f: QSeries, g: QSeries) -> Tuple[int, int]:
    if f.meta is None or g.meta is None:
        raise ValueError("f and g need form metadata (their weights)")
    return f.meta.twice_weight, g.meta.twice_weight


def validate_hypotheses(p: BracketParams, g_is_cusp: bool) -> Optional[str]:
    """The message of the failed convergence hypothesis, or None.

    These hypotheses are all that differ between the four cases; a
    failure is a warning and never blocks computation.
    """
    k, l, case = p.k.w2 // 2, p.l.w2 // 2, case_id(p)
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


@dataclass(frozen=True)
class TailProfile:
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
    e = (w / 2.0 - 0.25) if series.num[0] == 0 else (w - 1.0)
    return max(e, 0.0)


def fit_tail_profile(series: QSeries, epsilon: float = DEFAULT_EPSILON) -> TailProfile:
    """Fit an empirical growth constant for a series over its computed range.

    The exponent is ``growth_exponent(series)`` plus epsilon.  ValueError
    names a coefficient whose quotient is out of float range.
    """
    if series.precision < 10:
        raise ValueError("need at least 10 coefficients to fit a tail profile")
    exponent = growth_exponent(series) + epsilon
    constant = 0.0
    den = series.den
    for n, v in enumerate(series.num[1:], start=1):
        if v:
            try:
                # int / int rounds correctly, exactly as float(Fraction) does.
                constant = max(constant, abs(v) / den / n**exponent)
            except OverflowError:
                raise ValueError(
                    f"coefficient {n} is out of float range for the tail profile"
                ) from None
    return TailProfile(exponent, constant)


def _to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def _tail_bound(
    f: QSeries, g: QSeries, p: BracketParams, M: int, epsilon: float
) -> float:
    """Bound on the terms m > M of every _l_series_sums sum (free of n).

    Uses the empirical growth profiles of f and g plus the integral
    comparison sum_{m>M} m^t <= M^(t+1)/(-t-1), valid when t < -1.
    """
    pf = fit_tail_profile(f, epsilon)
    pg = fit_tail_profile(g, epsilon)
    alpha_weight = float(
        sum(abs(rc_coefficient(p, r)) for r in range(p.nu + 1))
    )
    t = pf.exponent + p.nu + pg.exponent - float(gamma_s(p))
    if t < -1.0:
        return pf.constant * pg.constant * alpha_weight * M ** (t + 1) / (-(t + 1))
    warnings.warn(
        f"tail exponent {t:.3f} >= -1: truncated series not certified "
        "convergent under the fitted profiles",
        HypothesisWarning,
        stacklevel=3,
    )
    return math.inf


def _l_series_sums(
    f: QSeries,
    g: QSeries,
    p: BracketParams,
    ns: Sequence[int],
    M: int,
) -> List[mpf]:
    """Partial sums of sum_m a(n+m) b(m) alpha(k,l,nu;n,m) (n+m)^-gamma.

    Summed over m = 0..M for every n in ns, in one pass, at working
    precision; coefficients must be real, so the conjugate on b is the
    identity.  The m = 0 term b(0) a(n) c_nu n^nu n^-s is the one the
    unfolding picks up when g is not a cusp form.  gamma is ``gamma_s(p)``.

    Denominators are cleared once, so each term is an exact integer
    B_m * alpha(n,m) times a shared mpf weight w_j = A_j j^-gamma, j = n+m;
    w_j is computed the first time a nonzero b(m) reaches j.  Each sum is
    divided by the common denominator once.
    """
    if min(ns) < 1:
        raise ValueError("n must be positive")
    if M < 1:
        raise ValueError("M must be positive")
    top = max(ns) + M
    if f.precision < top + 1:
        raise ValueError(
            f"f needs at least {top + 1} coefficients, has {f.precision}"
        )
    if g.precision < M + 1:
        raise ValueError(
            f"g needs at least {M + 1} coefficients, has {g.precision}"
        )
    c = [rc_coefficient(p, r) for r in range(p.nu + 1)]
    # alpha(n,m) = sum_r c_r n^r m^(nu-r) = (1/D) sum_r C_r n^r m^(nu-r).
    D = math.lcm(*(c_r.denominator for c_r in c))
    C = [c_r.numerator * (D // c_r.denominator) for c_r in c]
    A, da = _lowest_terms(f.num[: top + 1], f.den)
    Bm, db = _lowest_terms(g.num[: M + 1], g.den)
    B = [(m, b) for m, b in enumerate(Bm) if b]
    with mpmath.workdps(working_digits()):
        minus_gamma = -_to_mpf(gamma_s(p))
        w = [None] * (top + 1)
        sums = []
        for n in ns:
            # Horner in m, from m^nu (coefficient C_0) down to m^0 (C_nu n^nu).
            horner = [C_r * n**r for r, C_r in enumerate(C)]
            total = mpf(0)
            for m, b in B:
                j = n + m
                wj = w[j]
                if wj is None:
                    a = A[j]
                    wj = w[j] = mpf(a) * mpmath.power(j, minus_gamma) if a else 0
                if not wj:
                    continue
                alpha = 0
                for h in horner:
                    alpha = alpha * m + h
                total += wj * (b * alpha)
            sums.append(total / (D * da * db))
    return sums


def beta_value(p: BracketParams, n: int) -> mpf:
    """beta(k,l,nu;n) = Gamma(gamma)/Gamma(k-1) n^(k-1) / (4 pi)^(l+2 nu)."""
    k_minus_1 = _to_mpf(p.k.weight - 1)
    return (
        mpmath.gamma(_to_mpf(gamma_s(p)))
        / mpmath.gamma(k_minus_1)
        * mpmath.power(n, k_minus_1)
        / mpmath.power(4 * mpmath.pi, _to_mpf(p.l.weight + 2 * p.nu))
    )


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
    if f.coeff(0) != 0:
        raise ValueError("f must be a cusp form at infinity (a(0) = 0)")
    message = validate_hypotheses(p, g_is_cusp=g.coeff(0) == 0)
    if message is not None:
        warnings.warn(message, HypothesisWarning, stacklevel=2)
    if n_max == 0:
        return []
    ns = range(1, n_max + 1)
    sums = _l_series_sums(f, g, p, ns, M)
    tail = _tail_bound(f, g, p, M, epsilon)
    rows = []
    with mpmath.workdps(working_digits()):
        for n, total in zip(ns, sums):
            beta = beta_value(p, n)
            rows.append((n, float(beta * total), float(beta * tail)))
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
