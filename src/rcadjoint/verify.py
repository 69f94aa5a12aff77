"""Checkable consequences of the adjoint formula.

On a one-dimensional target space the theorem has two checkable parts.
Shape: T*f is a multiple of the basis form for any f of the bracket's
weight, so the computed c(n) must be proportional to the basis
coefficients (``ratio_test``).  Sign: for f = T(b), the bracket of the
basis form b itself, the multiple is lambda = <Tb, Tb> / <b, b> >= 0
(``lambda_test``, which is ``ratio_test`` on the bracket image plus that
rule).  Both checks report a ``RatioReport``.  Like the adjoint itself,
they take f, g and nu and read the weights, and with them the case, off
the forms' metadata.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

from .adjoint import DEFAULT_EPSILON, _twice_weights, adjoint_coefficients
from .bracket import BracketParams, rc_bracket
from .kernels import ints_at
from .qseries import QSeries


class RatioReport(NamedTuple):
    """Result of testing c(n) against a multiple of a basis form."""

    ratios: Tuple[Tuple[int, float], ...]
    lam: float  # mean ratio = the eigenvalue estimate
    spread: float  # max relative deviation from the mean ratio
    error_budget: float  # max propagated err / |c_n|
    tolerance: float
    stray: Tuple[int, ...]  # n with a(n) = 0 but |c(n)| > err + tolerance*|lam|
    passed: bool


def _coefficient_float(num: int, den: int, name: str) -> float:
    """A nonzero coefficient num/den as a nonzero finite float (int / int
    rounds correctly, as float(Fraction) does), or a ValueError naming it
    when a float overflows or rounds it to zero."""
    try:
        value = num / den
    except OverflowError:
        value = math.inf
    if value == 0 or math.isinf(value):
        raise ValueError(f"{name} is out of float range")
    return value


def ratio_test(
    c_list: Sequence[Tuple[int, float, float]],
    basis_form: QSeries,
    tolerance: float,
) -> RatioReport:
    """Is c(n)/a(n) constant, within tolerance plus the error budget?

    Where a(n) = 0, c(n) must vanish too: |c(n)| <= err(n) + tolerance *
    |lambda|, or n is stray and the test fails.  An infinite budget (an
    uncertified tail, or c(n) = 0 at a nonzero a(n)) fails: it would pass
    any spread.
    """
    ratios = []
    zero_rows = []
    budget = 0.0
    basis = ints_at(basis_form.stored_num, [n for n, _, _ in c_list])
    for (n, c_n, err), a in zip(c_list, basis):
        if a == 0:
            zero_rows.append((n, c_n, err))
            continue
        a_float = _coefficient_float(a, basis_form.den, f"basis coefficient {n}")
        ratios.append((n, c_n / a_float))
        # An infinite err is an infinite budget: inf / inf is a nan max() drops.
        finite = c_n != 0 and math.isfinite(err)
        budget = max(budget, abs(err) / abs(c_n) if finite else math.inf)
    if not ratios:
        raise ValueError("basis form vanishes at every tested index")
    lam = sum(r for _, r in ratios) / len(ratios)
    if lam == 0:
        spread = max(abs(r) for _, r in ratios)
    else:
        spread = max(abs(r - lam) for _, r in ratios) / abs(lam)
    stray = tuple(
        n for n, c_n, err in zero_rows if abs(c_n) > abs(err) + tolerance * abs(lam)
    )
    return RatioReport(
        ratios=tuple(ratios),
        lam=lam,
        spread=spread,
        error_budget=budget,
        tolerance=tolerance,
        stray=stray,
        passed=math.isfinite(budget) and spread <= tolerance + budget and not stray,
    )


def first_index(f: QSeries) -> int:
    """m0 >= 1, the index of f's first nonzero coefficient past a(0);
    ValueError if there is none within f's precision."""
    m0 = next((i for i, a in enumerate(f.num) if i >= 1 and a), None)
    if m0 is None:
        raise ValueError("f is the zero series")
    return m0


def lambda_test(
    f: QSeries,
    g: QSeries,
    nu: int,
    M: int,
    epsilon: float = DEFAULT_EPSILON,
) -> RatioReport:
    """The eigenvalue of the adjoint composed with the bracket map on f.

    Computes h = [f, g]_nu with the weights of f's and g's metadata and
    the adjoint rows c(1..m0) of h, m0 the index of f's first nonzero
    coefficient, then runs ``ratio_test`` of those rows against f at zero
    tolerance: lambda = c(m0) / a(m0) with budget err/|c(m0)|.  The
    composition is positive semidefinite, so the report passes only if
    also lambda >= -|lambda| * budget.
    """
    m0 = first_index(f)
    # Fail fast: ratio_test would reject an a(m0) that a float cannot
    # hold only after the bracket and the whole sum.
    _coefficient_float(f.num[m0], f.den, f"f coefficient {m0}")
    k2, l2 = _twice_weights(f, g)
    h = rc_bracket(f, g, BracketParams(k2, l2, nu))
    rows = adjoint_coefficients(h, g, nu, n_max=m0, M=M, epsilon=epsilon)
    report = ratio_test(rows, f, 0.0)
    return report._replace(
        passed=report.passed and report.lam >= -abs(report.lam) * report.error_budget,
    )
