"""Special values of the adjoint-map coefficient formula.

Evaluates c(n) = beta(k,l,nu;n) * L_{f,g,nu,n}(gamma) for the four
weight configurations (integral/integral, both half-integral, and the
two mixed cases), together with a bound on the truncation error of the
Dirichlet series from empirical coefficient-growth profiles.

Floating point lives here and only here; everything upstream is exact.
Internal arithmetic runs at RC_ADJOINT_PRECISION_DIGITS significant
decimal digits (default 50) via mpmath.
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
from .qseries import QSeries

PRECISION_ENV = "RC_ADJOINT_PRECISION_DIGITS"
DEFAULT_EPSILON = 0.1


def working_digits() -> int:
    raw = os.environ.get(PRECISION_ENV, "").strip()
    if raw:
        digits = int(raw)
        if digits < 15:
            raise ValueError("need at least 15 working digits")
        return digits
    return 50


class HypothesisWarning(UserWarning):
    """A theorem hypothesis fails; the computation proceeds regardless."""


class CaseId(Enum):
    INTEGRAL = "integral"
    HALF_HALF = "1"  # both weights half-integral
    INT_FROM_HALF_G = "2"  # integral target, half-integral g
    HALF_FROM_INT_G = "3"  # half-integral target, integral g


# (target weight integral?, g weight integral?) expected per case.
_PARITY = {
    CaseId.INTEGRAL: (True, True),
    CaseId.HALF_HALF: (False, False),
    CaseId.INT_FROM_HALF_G: (True, False),
    CaseId.HALF_FROM_INT_G: (False, True),
}


@dataclass(frozen=True)
class AdjointCase:
    """One weight configuration of the adjoint map.

    ``k`` is the weight of the forms in the adjoint's image space (an
    integer k or k+1/2 depending on the case); ``l`` is the weight of
    the fixed form g.
    """

    case_id: CaseId
    k: TwiceWeight
    l: TwiceWeight
    nu: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        want_k, want_l = _PARITY[self.case_id]
        if self.k.is_integral != want_k or self.l.is_integral != want_l:
            raise ValueError(
                f"case {self.case_id.value} needs target weight "
                f"{'integral' if want_k else 'half-integral'} and g weight "
                f"{'integral' if want_l else 'half-integral'}"
            )

    @property
    def k_int(self) -> int:
        """The integer part k of the target weight (k or k+1/2)."""
        return self.k.w2 // 2

    @property
    def l_int(self) -> int:
        """The integer part l of g's weight (l or l+1/2)."""
        return self.l.w2 // 2


@dataclass(frozen=True)
class CaseParams:
    """One row of the four-case parameter table.

    beta(k,l,nu;n) = Gamma(beta_gamma_num)/Gamma(beta_gamma_den)
                     * n^n_exponent / (4*pi)^four_pi_exponent,
    evaluated at s = gamma_s.
    """

    gamma_s: Fraction
    beta_gamma_num: Fraction
    beta_gamma_den: Fraction
    n_exponent: Fraction
    four_pi_exponent: Fraction


def case_params(c: AdjointCase) -> CaseParams:
    k, l, nu = c.k_int, c.l_int, c.nu
    half = Fraction(1, 2)
    if c.case_id is CaseId.INTEGRAL:
        gamma_s = Fraction(k + l + 2 * nu - 1)
        return CaseParams(gamma_s, gamma_s, Fraction(k - 1),
                          Fraction(k - 1), Fraction(l + 2 * nu))
    if c.case_id is CaseId.HALF_HALF:
        gamma_s = Fraction(k + l + 2 * nu)
        return CaseParams(gamma_s, gamma_s, k - half,
                          k - half, l + 2 * nu + half)
    if c.case_id is CaseId.INT_FROM_HALF_G:
        gamma_s = k + l + 2 * nu - half
        return CaseParams(gamma_s, gamma_s, Fraction(k - 1),
                          Fraction(k - 1), l + 2 * nu + half)
    gamma_s = k + l + 2 * nu - half
    return CaseParams(gamma_s, gamma_s, k - half,
                      k - half, Fraction(l + 2 * nu))


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    message: Optional[str] = None


def validate_hypotheses(c: AdjointCase, g_is_cusp: bool) -> HypothesisReport:
    """Check the convergence hypotheses of the relevant theorem.

    Returns ok or a warning report; a warning never blocks computation.
    """
    k, l = c.k_int, c.l_int
    if c.case_id is CaseId.INTEGRAL:
        if k < 6:
            return HypothesisReport(False, f"integral case needs k >= 6 (k={k})")
        if g_is_cusp or l < k - 3:
            return HypothesisReport(True)
        return HypothesisReport(
            False, f"non-cusp g needs l < k - 3 (l={l}, k={k})"
        )
    if c.case_id is CaseId.HALF_HALF:
        if g_is_cusp:
            if k > 2:
                return HypothesisReport(True)
            return HypothesisReport(False, f"cusp g needs k > 2 (k={k})")
        if Fraction(l) < Fraction(k) - Fraction(3, 2):
            return HypothesisReport(True)
        return HypothesisReport(
            False, f"non-cusp g needs l < k - 3/2 (l={l}, k={k})"
        )
    # Cases 2 and 3 share their hypothesis.
    if g_is_cusp:
        if k > 3:
            return HypothesisReport(True)
        return HypothesisReport(False, f"cusp g needs k > 3 (k={k})")
    if l < k - 2:
        return HypothesisReport(True)
    return HypothesisReport(False, f"non-cusp g needs l < k - 2 (l={l}, k={k})")


@dataclass(frozen=True)
class TailProfile:
    """Empirical coefficient growth |a(n)| <= constant * n^exponent.

    The constant is empirical: the maximum of |a(n)|/n^exponent over the
    computed range, with the exponent supplied by the growth lemmas.
    """

    exponent: float
    constant: float


def growth_exponent(meta) -> float:
    """Growth-lemma exponent for a form's coefficients (before epsilon).

    Weight w: non-cusp forms grow like n^(w-1), cusp forms like
    n^(w/2 - 1/4), for integral and half-integral weight alike.  Floored
    at 0 (an exponent below zero would let the empirical constant drift
    with precision while coefficients of bounded forms stay put).
    """
    w = float(meta.twice_weight) / 2.0
    e = (w / 2.0 - 0.25) if meta.is_cusp_at_infinity else (w - 1.0)
    return max(e, 0.0)


def fit_tail_profile(
    series: QSeries, lemma_exponent: float, epsilon: float = DEFAULT_EPSILON
) -> TailProfile:
    """Fit an empirical growth constant for a series over its computed range."""
    if series.precision < 10:
        raise ValueError("need at least 10 coefficients to fit a tail profile")
    exponent = lemma_exponent + epsilon
    constant = 0.0
    for n in range(1, series.precision):
        c = series.coeffs[n]
        if c != 0:
            constant = max(constant, abs(float(c)) / n**exponent)
    return TailProfile(exponent, constant)


@dataclass(frozen=True)
class LValue:
    """A truncated Dirichlet-series value with an explicit tail bound."""

    value: mpf
    terms_used: int
    tail_bound: float
    s: Fraction


def _to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def _profile_for(series: QSeries, epsilon: float) -> TailProfile:
    if series.meta is None:
        raise ValueError("tail bound needs form metadata (weight, cusp flag)")
    return fit_tail_profile(series, growth_exponent(series.meta), epsilon)


def l_series_value(
    f: QSeries,
    g: QSeries,
    p: BracketParams,
    n: int,
    s: Fraction,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> LValue:
    """Partial sum of sum_m a(n+m) b(m) alpha(k,l,nu,n,m) (n+m)^-s.

    Summed for m = 1..M at high working precision; coefficients must be
    real, so the conjugate on b is the identity.  The tail bound uses
    empirical growth profiles for f and g plus the integral comparison
    sum_{m>M} m^t <= M^(t+1)/(-t-1), valid when t < -1.
    """
    s = Fraction(s)
    (value,) = _l_series_sums(f, g, p, [n], s, M)
    tail = _tail_bound(f, g, p, s, M, epsilon)
    return LValue(value=value, terms_used=M, tail_bound=tail, s=s)


def _tail_bound(
    f: QSeries, g: QSeries, p: BracketParams, s: Fraction, M: int, epsilon: float
) -> float:
    """Bound on the terms m > M of every l_series_value sum (free of n)."""
    pf = _profile_for(f, epsilon)
    pg = _profile_for(g, epsilon)
    alpha_weight = float(
        sum(abs(rc_coefficient(p, r)) for r in range(p.nu + 1))
    )
    t = pf.exponent + p.nu + pg.exponent - float(s)
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
    s: Fraction,
    M: int,
) -> List[mpf]:
    """The partial sums of l_series_value for every n in ns, in one pass.

    Denominators are cleared once, so each term is an exact integer
    B_m * alpha(n,m) times a shared mpf weight w_j = A_j j^-s, j = n+m;
    w_j is computed the first time a nonzero b(m) reaches j.  Each sum is
    divided by the common denominator once.
    """
    if min(ns) < 1:
        raise ValueError("n must be positive")
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
    a_coeffs = f.coeffs[: top + 1]
    da = math.lcm(*(a.denominator for a in a_coeffs))
    db = math.lcm(*(g.coeffs[m].denominator for m in range(1, M + 1)))
    B = [
        (m, b.numerator * (db // b.denominator))
        for m, b in enumerate(g.coeffs[1 : M + 1], start=1)
        if b != 0
    ]
    with mpmath.workdps(working_digits()):
        s_mp = _to_mpf(s)
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
                    a = a_coeffs[j]
                    wj = w[j] = (
                        mpf(a.numerator * (da // a.denominator))
                        * mpmath.power(j, -s_mp)
                        if a
                        else 0
                    )
                if not wj:
                    continue
                alpha = 0
                for h in horner:
                    alpha = alpha * m + h
                total += wj * (b * alpha)
            sums.append(total / (D * da * db))
    return sums


def gamma_half_integer(x: Fraction) -> mpf:
    """Gamma at a positive integer or half-integer argument.

    Built from Gamma(1/2) = sqrt(pi) and Gamma(1) = 1 by upward
    recursion, at the current mpmath working precision.
    """
    x = Fraction(x)
    if x <= 0 or x.denominator not in (1, 2):
        raise ValueError("argument must be a positive (half-)integer")
    if x.denominator == 1:
        return mpmath.factorial(int(x) - 1)
    out = mpmath.sqrt(mpmath.pi)
    step = Fraction(1, 2)
    while step < x:
        out *= _to_mpf(step)
        step += 1
    return out


def beta_value(params: CaseParams, n: int) -> mpf:
    """The normalizing constant beta(k,l,nu;n), at working precision."""
    num = gamma_half_integer(params.beta_gamma_num)
    den = gamma_half_integer(params.beta_gamma_den)
    four_pi = 4 * mpmath.pi
    return (
        num
        / den
        * mpmath.power(n, _to_mpf(params.n_exponent))
        / mpmath.power(four_pi, _to_mpf(params.four_pi_exponent))
    )


def adjoint_coefficients(
    f: QSeries,
    g: QSeries,
    c: AdjointCase,
    n_max: int,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> List[Tuple[int, float, float]]:
    """Coefficients c(n) = beta(n) * L_{f,g,nu,n}(gamma) for n = 1..n_max.

    When g has a nonzero constant term, the unfolding that produces the
    Dirichlet series also picks up an m = 0 term, b(0) a(n) C_nu n^nu / n^s,
    which the m >= 1 series omits; it is added here.  Without it the
    adjoint identity fails for non-cusp g (verified numerically), and
    with it c(n) is exactly proportional to the basis coefficients on
    one-dimensional spaces.

    Returns (n, c_n, err_bound) triples; err_bound is beta(n) times the
    L-value tail bound.  Emits a HypothesisWarning when the relevant
    theorem's hypotheses fail (the numbers are still computed).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if f.coeff(0) != 0:
        raise ValueError("f must be a cusp form at infinity (a(0) = 0)")
    g_is_cusp = g.coeff(0) == 0
    report = validate_hypotheses(c, g_is_cusp)
    if not report.ok:
        warnings.warn(report.message, HypothesisWarning, stacklevel=2)
    if n_max == 0:
        return []
    params = case_params(c)
    p = BracketParams(c.k, c.l, c.nu)
    ns = range(1, n_max + 1)
    sums = _l_series_sums(f, g, p, ns, params.gamma_s, M)
    tail = _tail_bound(f, g, p, params.gamma_s, M, epsilon)
    b0 = g.coeff(0)
    c_nu = rc_coefficient(p, c.nu)
    rows = []
    with mpmath.workdps(working_digits()):
        s_mp = _to_mpf(params.gamma_s)
        for n, total in zip(ns, sums):
            if b0 != 0:
                total += (
                    _to_mpf(b0 * f.coeff(n) * c_nu * n**c.nu)
                    * mpmath.power(n, -s_mp)
                )
            beta = beta_value(params, n)
            rows.append((n, float(beta * total), float(beta * tail)))
    return rows


def rows_to_csv(rows: List[Tuple[int, float, float]]) -> str:
    lines = ["n,c_n,err_bound"]
    for n, c_n, err in rows:
        lines.append(f"{n},{c_n:.17g},{err:.17g}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, terms_used: int, s: Fraction) -> list:
    return [
        {
            "n": n,
            "value": f"{c_n:.17g}",
            "tail_bound": f"{err:.17g}",
            "terms_used": terms_used,
            "s": str(s),
        }
        for n, c_n, err in rows
    ]
