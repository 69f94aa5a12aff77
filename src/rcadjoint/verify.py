"""Checkable consequences of the adjoint formula.

On a one-dimensional cusp-form space the composition of the bracket map
with its adjoint acts as a scalar lambda >= 0, so the computed c(n) must
be proportional to the basis form's coefficients and the proportionality
constant must be positive.  Both are falsifiable numerically; this
module runs those checks and evaluates the two partial sums behind the
positivity application (theta against the weight-6 level-4 newform),
the faithful one being the m >= 1 part of the flagship's L-series sum.
Like the adjoint itself, the checks take f, g and nu and read the
weights, and with them the case, off the forms' metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import mpmath
from mpmath import mpf

from .adjoint import (
    DEFAULT_EPSILON,
    _l_series_sums,
    _to_mpf,
    _twice_weights,
    adjoint_coefficients,
    gamma_s,
    working_digits,
)
from .bracket import BracketParams, TwiceWeight, rc_bracket
from .forms import catalog_get
from .qseries import QSeries, series_mul


@dataclass(frozen=True)
class RatioReport:
    """Result of testing c(n) against a multiple of a basis form."""

    ratios: Tuple[Tuple[int, float], ...]
    lam: float  # mean ratio = the eigenvalue estimate
    spread: float  # max relative deviation from the mean ratio
    error_budget: float  # max propagated err / |c_n|
    tolerance: float
    passed: bool


def ratio_test(
    c_list: Sequence[Tuple[int, float, float]],
    basis_form: QSeries,
    tolerance: float,
) -> RatioReport:
    """Is c(n)/a(n) constant, within tolerance plus the error budget?

    An infinite budget (an uncertified tail) fails: it would pass any spread.
    """
    ratios = []
    budget = 0.0
    for n, c_n, err in c_list:
        a = basis_form.coeff(n)
        if a == 0:
            continue
        ratios.append((n, c_n / float(a)))
        if c_n != 0:
            budget = max(budget, abs(err) / abs(c_n))
    if not ratios:
        raise ValueError("basis form vanishes at every tested index")
    lam = sum(r for _, r in ratios) / len(ratios)
    if lam == 0:
        spread = max(abs(r) for _, r in ratios)
    else:
        spread = max(abs(r - lam) for _, r in ratios) / abs(lam)
    return RatioReport(
        ratios=tuple(ratios),
        lam=lam,
        spread=spread,
        error_budget=budget,
        tolerance=tolerance,
        passed=math.isfinite(budget) and spread <= tolerance + budget,
    )


def lambda_from_first_coefficient(
    f: QSeries,
    g: QSeries,
    nu: int,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """The eigenvalue of the adjoint composed with the bracket map on f.

    Computes h = [f, g]_nu with the weights of f's and g's metadata,
    applies the adjoint formula at the index m0 of f's first nonzero
    coefficient, and divides: lambda = c(m0) / a(m0).
    """
    m0 = next((i for i, a in enumerate(f.num) if i >= 1 and a), None)
    if m0 is None:
        raise ValueError("f is the zero series")
    k2, l2 = _twice_weights(f, g)
    h = rc_bracket(f, g, BracketParams(TwiceWeight(k2), TwiceWeight(l2), nu))
    rows = adjoint_coefficients(h, g, nu, n_max=m0, M=M, epsilon=epsilon)
    _, c_m0, _ = rows[m0 - 1]
    return c_m0 / float(f.coeff(m0))


def rewritten_sum_report(M: int) -> Tuple[float, float]:
    """The two partial sums of the positivity application.

    Faithful sum: sum_{m=1}^M a(m+1) b(m) / (m+1)^(11/2) with a the
    coefficients of theta times the weight-6 level-4 newform and b the
    theta coefficients (so b carries its factor 2 at squares); this is
    the n = 1, nu = 0 L-series sum of the flagship adjoint without its
    m = 0 term, so it is summed against theta with b(0) set to 0.

    Rewritten sum: the squares-indexed double sum
    sum_m (sum_{r=1}^{m^2+1} tau(m^2+1-r^2)) / (m^2+1)^(11/2), which
    drops theta's normalization; the outer index runs while m^2+1 stays
    within the same precision budget M+1.  The two are reported side by
    side without asserting any relation between them.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if M == 0:
        return 0.0, 0.0
    prec = M + 2
    theta = catalog_get("theta", prec)
    newform = catalog_get("delta_4_6", prec)
    product = series_mul(theta, newform)
    p = BracketParams(TwiceWeight(12), TwiceWeight(1), 0)
    theta_m1 = QSeries((0,) + theta.num[1:])  # theta is integral: den == 1
    (faithful,) = _l_series_sums(product, theta_m1, p, [1], M)
    with mpmath.workdps(working_digits()):
        s = _to_mpf(gamma_s(p))  # 11/2
        rewritten = mpf(0)
        m = 1
        while m * m + 1 <= M + 1:
            inner = 0
            top = m * m + 1
            for r in range(1, top + 1):
                idx = top - r * r
                if idx < 1:
                    break
                inner += newform.num[idx]  # an eta product: den == 1
            rewritten += mpf(inner) * mpmath.power(top, -s)
            m += 1
        return float(faithful), float(rewritten)
