"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from rcadjoint.adjoint import adjoint_coefficients, beta_value
from rcadjoint.bracket import BracketParams, rc_bracket, rc_coefficient, series_mul
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import QSeries, make_eta_product, make_theta
from rcadjoint.verify import ratio_test

from oracles import (
    alpha_coeff,
    apply_D,
    delta_4_6_oracle,
    delta_oracle,
    naive_mul,
    series_add,
    to_mpf,
    two_squares_count,
)

import math


def report(criterion, name):
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


def monomial(n, prec):
    coeffs = [Fraction(0)] * prec
    coeffs[n] = Fraction(1)
    return QSeries(coeffs)


def random_series(rng, max_len=10):
    length = rng.randint(2, max_len)
    return QSeries(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(length)
        ]
    )


SEC5_PARAMS = BracketParams(12, 1, 0)


@pytest.fixture(scope="module")
def sec5_data():
    n_max, M = 10, 20000
    prec = n_max + M + 1
    theta = catalog_get("theta", prec)
    d46 = catalog_get("delta_4_6", prec)
    return theta, d46, series_mul(theta, d46)


def test_criterion_1_alpha_bracket_oracle():
    """q^(n+m) coefficient of [q^n, q^m]_nu equals alpha, full grid."""
    checked = 0
    for nu in range(5):
        for n in range(1, 11):
            for m in range(1, 11):
                prec = n + m + 1
                # the q^(n+m) coefficients of the (k,l)-independent series
                # products, via the machinery; the bracket's q^(n+m)
                # coefficient is their sum weighted by rc_coefficient
                tops = [
                    series_mul(
                        QSeries(apply_D(monomial(n, prec).coeffs, r)),
                        QSeries(apply_D(monomial(m, prec).coeffs, nu - r)),
                    ).coeffs[n + m]
                    for r in range(nu + 1)
                ]
                for k2 in range(1, 14):
                    for l2 in range(1, 14):
                        p = BracketParams(k2, l2, nu)
                        top = sum(
                            rc_coefficient(p, r) * x for r, x in enumerate(tops)
                        )
                        assert top == alpha_coeff(p, n, m)
                        checked += 1
    assert checked == 5 * 100 * 169
    report(1, f"alpha/bracket oracle, {checked} cases")


def test_criterion_2_nu_zero_reduction():
    """rc_bracket with nu = 0 is exactly the product, 100 random pairs:
    series_mul, and the schoolbook product of the Fraction coefficients
    (series_mul is itself the nu = 0 bracket)."""
    rng = random.Random(20260826)
    for _ in range(100):
        f = random_series(rng)
        g = random_series(rng)
        p = BracketParams(rng.randint(1, 13), rng.randint(1, 13), 0)
        got = rc_bracket(f, g, p).coeffs
        assert got == series_mul(f, g).coeffs
        prec = min(f.precision, g.precision)
        assert list(got) == naive_mul(f.coeffs, g.coeffs, prec)
    report(2, "nu=0 reduction on 100 random pairs")


def test_criterion_3_sec5_reproduction(sec5_data):
    """theta * Delta_{4,6} against theta: proportional, lambda positive."""
    theta, d46, f = sec5_data
    rows = adjoint_coefficients(f, theta, 0, 10, 20000)
    result = ratio_test(rows, d46, tolerance=1e-3)
    assert result.passed, f"spread {result.spread} exceeds tolerance"
    assert result.spread <= 1e-3
    assert result.lam > result.error_budget > 0
    report(3, f"sec.5 reproduction, lambda={result.lam:.12g}, "
              f"spread={result.spread:.3g}")


def test_criterion_4_integral_analog():
    """E4 * Delta against E4: proportional to tau(n), constant positive."""
    n_max, M = 10, 2000
    prec = n_max + M + 1
    e4 = catalog_get("E4", prec)
    delta = catalog_get("delta", prec)
    f = series_mul(e4, delta)
    rows = adjoint_coefficients(f, e4, 0, n_max, M)
    result = ratio_test(rows, delta, tolerance=1e-3)
    assert result.passed
    assert result.spread <= 1e-3
    assert result.lam > 0
    report(4, f"integral analog, lambda={result.lam:.12g}, "
              f"spread={result.spread:.3g}")


def test_criterion_5_beta_anchor():
    """Case-2 beta at k=6, l=0, nu=0, n=1 equals Gamma(11/2)/(Gamma(5) 2 sqrt(pi))."""
    with mpmath.workdps(50):
        got = to_mpf(beta_value(SEC5_PARAMS, 1))
        ref = mpmath.gamma(mpmath.mpf(11) / 2) / (
            mpmath.gamma(5) * 2 * mpmath.sqrt(mpmath.pi)
        )
        rel = abs(got - ref) / ref
        assert rel < mpmath.mpf(10) ** -45
    report(5, f"beta anchor, rel. diff {mpmath.nstr(rel, 3)}")


def test_criterion_6_truncation_soundness(sec5_data):
    """|c(n; M) - c(n; 2M)| <= err_bound(n; M); bounds nonincreasing."""
    theta, _, f = sec5_data
    bounds = []
    for M in (100, 1000, 10000):
        rows = adjoint_coefficients(f, theta, 0, 3, M)
        rows2 = adjoint_coefficients(f, theta, 0, 3, 2 * M)
        for (_, c, err), (_, c2, _) in zip(rows, rows2):
            assert abs(c - c2) <= err
        bounds.append(rows[0][2])
    assert bounds[0] >= bounds[1] >= bounds[2]
    report(6, f"truncation soundness, tail bounds {bounds}")


def test_criterion_7_series_engine_oracles():
    """Eta/theta constructors vs naive oracles; Leibniz and bilinearity."""
    delta = make_eta_product([(1, 24)], 51)
    oracle = delta_oracle(51)
    assert list(delta.coeffs) == oracle
    assert delta.coeff(2) == -24
    assert delta.coeff(3) == 252

    theta_sq = series_mul(make_theta(50), make_theta(50))
    for n in range(50):
        assert theta_sq.coeff(n) == two_squares_count(n)

    rng = random.Random(424242)
    for _ in range(100):
        a = random_series(rng)
        b = random_series(rng)
        # Leibniz rule
        lhs = apply_D(series_mul(a, b).coeffs, 1)
        rhs = series_add(series_mul(QSeries(apply_D(a.coeffs, 1)), b).coeffs,
                         series_mul(a, QSeries(apply_D(b.coeffs, 1))).coeffs)
        assert lhs == rhs
        # bilinearity of the bracket
        c = random_series(rng)
        ca = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        cb = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = BracketParams(rng.randint(1, 13), rng.randint(1, 13), rng.randint(0, 3))
        left = rc_bracket(QSeries(series_add(a.coeffs, c.coeffs, ca, cb)), b, p)
        right = series_add(rc_bracket(a, b, p).coeffs, rc_bracket(c, b, p).coeffs,
                           ca, cb)
        assert list(left.coeffs) == right
    report(7, "series-engine oracles and 100 randomized properties")


def test_criterion_8_hecke_sanity():
    """a(1) = 1 and a(m)a(n) = a(mn) for odd coprime pairs, mn <= 50."""
    d46 = catalog_get("delta_4_6", 51)
    assert list(d46.coeffs) == delta_4_6_oracle(51)
    assert d46.coeff(1) == 1
    pairs = [
        (m, n)
        for m in range(3, 50, 2)
        for n in range(m + 2, 50, 2)
        if m * n <= 50 and math.gcd(m, n) == 1
    ]
    assert pairs
    assert all(d46.coeff(m) * d46.coeff(n) == d46.coeff(m * n) for m, n in pairs)
    report(8, f"Hecke sanity on {len(pairs)} odd coprime pairs")
