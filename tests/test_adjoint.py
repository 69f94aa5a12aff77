import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

import rcadjoint.adjoint as adjoint_module
import rcadjoint.bracket as bracket_module
from rcadjoint.adjoint import (
    AdjointCase,
    CaseId,
    HypothesisWarning,
    adjoint_coefficients,
    beta_value,
    case_params,
    fit_tail_profile,
    gamma_half_integer,
    growth_exponent,
    l_series_value,
    rows_to_csv,
    validate_hypotheses,
    working_digits,
    _l_series_sums,
    _to_mpf,
)
from rcadjoint.bracket import BracketParams, TwiceWeight, alpha_coeff, rc_coefficient
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    make_theta,
    series_mul,
    zero_series,
)

HALF = Fraction(1, 2)


class TestAdjointCase:
    def test_parity_validation(self):
        with pytest.raises(ValueError, match="case 1"):
            AdjointCase(CaseId.HALF_HALF, TwiceWeight(10), TwiceWeight(4), 1)
        with pytest.raises(ValueError, match="case 2"):
            AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(13), TwiceWeight(1), 0)

    def test_integer_parts(self):
        c = AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(12), TwiceWeight(1), 0)
        assert c.k_int == 6
        assert c.l_int == 0


class TestCaseParams:
    def test_integral_row(self):
        c = AdjointCase(CaseId.INTEGRAL, TwiceWeight(24), TwiceWeight(8), 0)
        cp = case_params(c)
        assert cp.gamma_s == 15
        assert cp.beta_gamma_num == 15
        assert cp.n_exponent == 11
        assert cp.four_pi_exponent == 4

    def test_case2_row(self):
        c = AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(12), TwiceWeight(1), 0)
        cp = case_params(c)
        assert cp.gamma_s == Fraction(11, 2)
        assert cp.beta_gamma_num == Fraction(11, 2)
        assert cp.beta_gamma_den == 5
        assert cp.n_exponent == 5
        assert cp.four_pi_exponent == HALF

    def test_case1_row(self):
        # target weight 5 + 1/2, g weight 2 + 1/2, nu = 1
        c = AdjointCase(CaseId.HALF_HALF, TwiceWeight(11), TwiceWeight(5), 1)
        cp = case_params(c)
        assert cp.gamma_s == 9
        assert cp.n_exponent == Fraction(9, 2)
        assert cp.four_pi_exponent == Fraction(9, 2)

    def test_case3_row(self):
        c = AdjointCase(CaseId.HALF_FROM_INT_G, TwiceWeight(13), TwiceWeight(4), 0)
        cp = case_params(c)
        assert cp.gamma_s == 6 + 2 - HALF
        assert cp.n_exponent == 6 - HALF
        assert cp.four_pi_exponent == 2


class TestHypotheses:
    def test_case2_theta_ok(self):
        c = AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(12), TwiceWeight(1), 0)
        assert validate_hypotheses(c, g_is_cusp=False).ok

    def test_case1_small_k_warns(self):
        c = AdjointCase(CaseId.HALF_HALF, TwiceWeight(5), TwiceWeight(5), 0)
        report = validate_hypotheses(c, g_is_cusp=True)
        assert not report.ok
        assert "k > 2" in report.message

    def test_integral_e4_ok(self):
        c = AdjointCase(CaseId.INTEGRAL, TwiceWeight(24), TwiceWeight(8), 0)
        assert validate_hypotheses(c, g_is_cusp=False).ok

    def test_integral_small_k_warns(self):
        c = AdjointCase(CaseId.INTEGRAL, TwiceWeight(8), TwiceWeight(8), 0)
        assert not validate_hypotheses(c, g_is_cusp=True).ok


class TestTailProfile:
    def test_theta_bounded(self):
        profile = fit_tail_profile(make_theta(60), 0.0, 0.1)
        assert profile.exponent == pytest.approx(0.1)
        assert profile.constant <= 2.0

    def test_delta_finite(self):
        delta = catalog_get("delta", 50)
        profile = fit_tail_profile(delta, 11 / 2 + 1 / 4, 0.1)
        assert 0 < profile.constant < math.inf

    def test_zero_series(self):
        assert fit_tail_profile(zero_series(20), 1.0).constant == 0.0

    def test_needs_ten_coefficients(self):
        with pytest.raises(ValueError):
            fit_tail_profile(make_theta(5), 0.0)

    def test_growth_exponents(self):
        assert growth_exponent(catalog_get("delta", 12).meta) == pytest.approx(
            11 / 2 + 1 / 4
        )
        assert growth_exponent(catalog_get("E4", 12).meta) == pytest.approx(3.0)
        # theta: weight 1/2 non-cusp would give -1/2, floored at 0
        assert growth_exponent(make_theta(12).meta) == 0.0


@pytest.fixture(scope="module")
def sec5_forms():
    prec = 2012
    theta = catalog_get("theta", prec)
    d46 = catalog_get("delta_4_6", prec)
    return theta, d46, series_mul(theta, d46)


SEC5_CASE = AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(12), TwiceWeight(1), 0)
SEC5_PARAMS = BracketParams(TwiceWeight(12), TwiceWeight(1), 0)


class TestLSeriesValue:
    def test_constant_g_gives_zero(self, sec5_forms):
        _, _, f = sec5_forms
        g = QSeries([1] + [0] * 2011, make_theta(2).meta)
        lv = l_series_value(f, g, SEC5_PARAMS, 1, Fraction(11, 2), 500)
        assert lv.value == 0
        assert lv.tail_bound == 0

    def test_positive_value(self, sec5_forms):
        theta, _, f = sec5_forms
        lv = l_series_value(f, theta, SEC5_PARAMS, 1, Fraction(11, 2), 1000)
        assert float(lv.value) > 0

    def test_insufficient_precision_reports_requirement(self, sec5_forms):
        theta, _, f = sec5_forms
        with pytest.raises(ValueError, match=str(1 + 5000 + 1)):
            l_series_value(f, theta, SEC5_PARAMS, 1, Fraction(11, 2), 5000)

    def test_tail_monotone_in_M(self, sec5_forms):
        theta, _, f = sec5_forms
        bounds = [
            l_series_value(f, theta, SEC5_PARAMS, 1, Fraction(11, 2), M).tail_bound
            for M in (100, 200, 400, 800, 1600)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_constant_term_blindness(self, sec5_forms):
        theta, _, f = sec5_forms
        modified = QSeries((Fraction(7),) + theta.coeffs[1:], theta.meta)
        lv1 = l_series_value(f, theta, SEC5_PARAMS, 2, Fraction(11, 2), 800)
        lv2 = l_series_value(f, modified, SEC5_PARAMS, 2, Fraction(11, 2), 800)
        assert lv1.value == lv2.value

    def test_nu_zero_summand_is_plain(self, sec5_forms):
        # alpha = 1 for nu = 0: manual two-term partial sum matches
        theta, _, f = sec5_forms
        lv = l_series_value(f, theta, SEC5_PARAMS, 1, Fraction(11, 2), 4)
        with mpmath.workdps(working_digits()):
            manual = sum(
                float(f.coeff(1 + m))
                * float(theta.coeff(m))
                * (1 + m) ** (-11 / 2)
                for m in (1, 4)
            )
        assert float(lv.value) == pytest.approx(manual, rel=1e-12)


class TestGammaHalfInteger:
    def test_integer_arguments(self):
        with mpmath.workdps(50):
            assert gamma_half_integer(Fraction(5)) == mpmath.factorial(4)

    def test_half_arguments_match_mpmath(self):
        with mpmath.workdps(50):
            for arg in (HALF, Fraction(3, 2), Fraction(11, 2), Fraction(21, 2)):
                mine = gamma_half_integer(arg)
                ref = mpmath.gamma(mpmath.mpf(arg.numerator) / arg.denominator)
                assert abs(mine - ref) / ref < mpmath.mpf(10) ** -45

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_half_integer(Fraction(-1, 2))
        with pytest.raises(ValueError):
            gamma_half_integer(Fraction(1, 3))


class TestBeta:
    def test_positive_for_all_cases(self):
        cases = [
            AdjointCase(CaseId.INTEGRAL, TwiceWeight(24), TwiceWeight(8), 0),
            AdjointCase(CaseId.HALF_HALF, TwiceWeight(11), TwiceWeight(5), 1),
            AdjointCase(CaseId.INT_FROM_HALF_G, TwiceWeight(12), TwiceWeight(1), 0),
            AdjointCase(CaseId.HALF_FROM_INT_G, TwiceWeight(13), TwiceWeight(4), 2),
        ]
        with mpmath.workdps(30):
            for c in cases:
                cp = case_params(c)
                for n in (1, 2, 7, 50):
                    assert beta_value(cp, n) > 0

    def test_sec5_anchor(self):
        cp = case_params(SEC5_CASE)
        with mpmath.workdps(50):
            got = beta_value(cp, 1)
            ref = mpmath.gamma(mpmath.mpf(11) / 2) / (
                mpmath.gamma(5) * 2 * mpmath.sqrt(mpmath.pi)
            )
            assert abs(got - ref) / ref < mpmath.mpf(10) ** -12


class TestAdjointCoefficients:
    def test_empty_for_n_max_zero(self, sec5_forms):
        theta, _, f = sec5_forms
        assert adjoint_coefficients(f, theta, SEC5_CASE, 0, 100) == []

    def test_sec5_first_coefficient_positive(self, sec5_forms):
        theta, d46, f = sec5_forms
        rows = adjoint_coefficients(f, theta, SEC5_CASE, 1, 2000)
        n, c1, err = rows[0]
        assert n == 1
        assert c1 > err > 0  # lambda = c(1) since tau(1) = 1

    def test_non_cusp_f_rejected(self, sec5_forms):
        theta, _, _ = sec5_forms
        with pytest.raises(ValueError, match="cusp"):
            adjoint_coefficients(theta, theta, SEC5_CASE, 1, 100)

    def test_hypothesis_warning_emitted(self):
        # case 1 with target weight 3/2 (k = 1) and a cusp g needs k > 2
        prec = 160
        theta = catalog_get("theta", prec)
        d46 = catalog_get("delta_4_6", prec)
        g = series_mul(theta, d46)  # weight 13/2 cusp form
        case = AdjointCase(CaseId.HALF_HALF, TwiceWeight(3), TwiceWeight(13), 0)
        with pytest.warns(HypothesisWarning, match="k > 2"):
            adjoint_coefficients(d46, g, case, 1, 100)

    def test_csv_format(self):
        text = rows_to_csv([(1, 0.5, 1e-9)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,c_n,err_bound"
        assert lines[1].startswith("1,0.5,")


def test_env_precision_override(monkeypatch, sec5_forms):
    theta, _, f = sec5_forms
    monkeypatch.setenv("RC_ADJOINT_PRECISION_DIGITS", "30")
    assert working_digits() == 30
    rows30 = adjoint_coefficients(f, theta, SEC5_CASE, 1, 500)
    monkeypatch.delenv("RC_ADJOINT_PRECISION_DIGITS")
    rows50 = adjoint_coefficients(f, theta, SEC5_CASE, 1, 500)
    assert rows30[0][1] == pytest.approx(rows50[0][1], rel=1e-20)


# (k, l) twice-weights with the parities each case needs.
ORACLE_WEIGHTS = {
    CaseId.INTEGRAL: (12, 4),
    CaseId.HALF_HALF: (11, 5),
    CaseId.INT_FROM_HALF_G: (12, 1),
    CaseId.HALF_FROM_INT_G: (13, 4),
}


def _random_pair(rng, case, n_max, M, sparse_g):
    """Random f, g with fractional coefficients; f often vanishes where g does not."""

    def rational():
        return Fraction(rng.randint(-60, 60) or 1, rng.choice([1, 2, 3, 7, 12]))

    f_coeffs = [Fraction(0)] + [
        rational() if rng.random() < 0.6 else Fraction(0)
        for _ in range(n_max + M)
    ]
    squares = {i * i for i in range(M + 1)}
    g_coeffs = [rational() if sparse_g else Fraction(0)] + [
        rational() if (m in squares or not sparse_g) else Fraction(0)
        for m in range(1, M + 1)
    ]
    w_f = case.k.w2 + case.l.w2 + 4 * case.nu
    f = QSeries(f_coeffs, FormMeta(w_f, 4, CharacterMod4.TRIVIAL, True))
    g_meta = FormMeta(case.l.w2, 4, CharacterMod4.TRIVIAL, g_coeffs[0] == 0)
    return f, QSeries(g_coeffs, g_meta)


def _brute_l_sum(f, g, p, n, s, M):
    total = mpmath.mpf(0)
    for m in range(1, M + 1):
        term = f.coeff(n + m) * g.coeff(m) * alpha_coeff(p, n, m)
        total += _to_mpf(term) * mpmath.power(n + m, -_to_mpf(s))
    return total


@pytest.mark.filterwarnings("ignore::rcadjoint.adjoint.HypothesisWarning")
@pytest.mark.parametrize("sparse_g", [False, True], ids=["dense-g", "sparse-g"])
@pytest.mark.parametrize("nu", [0, 1, 2, 3])
@pytest.mark.parametrize("case_id", list(CaseId), ids=lambda c: c.name)
def test_one_pass_sums_match_per_term_oracle(case_id, nu, sparse_g):
    rng = random.Random(f"{case_id.name}/{nu}/{sparse_g}")
    n_max, M = 4, 30
    k2, l2 = ORACLE_WEIGHTS[case_id]
    case = AdjointCase(case_id, TwiceWeight(k2), TwiceWeight(l2), nu)
    p = BracketParams(case.k, case.l, nu)
    f, g = _random_pair(rng, case, n_max, M, sparse_g)
    params = case_params(case)
    s = params.gamma_s
    ns = range(1, n_max + 1)
    with mpmath.workdps(50):
        sums = _l_series_sums(f, g, p, ns, s, M)
        for n, got in zip(ns, sums):
            want = _brute_l_sum(f, g, p, n, s, M)
            assert abs(got - want) <= mpmath.mpf(10) ** -45 * abs(want)

    # adjoint_coefficients is the per-n l_series_value plus the m = 0 term.
    rows = adjoint_coefficients(f, g, case, n_max, M)
    expected = []
    b0, c_nu = g.coeff(0), rc_coefficient(p, nu)
    with mpmath.workdps(working_digits()):
        for n in ns:
            lv = l_series_value(f, g, p, n, s, M)
            total = lv.value + _to_mpf(b0 * f.coeff(n) * c_nu * n**nu) * (
                mpmath.power(n, -_to_mpf(s))
            )
            beta = beta_value(params, n)
            expected.append((n, float(beta * total), float(beta * lv.tail_bound)))
    assert rows == expected


def test_profiles_fitted_once_per_call(monkeypatch):
    fits = []
    real_fit = adjoint_module.fit_tail_profile

    def counting_fit(*args, **kwargs):
        fits.append(args[0])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(adjoint_module, "fit_tail_profile", counting_fit)
    f, g = catalog_get("delta", 311), catalog_get("E4", 311)
    case = AdjointCase(CaseId.INTEGRAL, TwiceWeight(8), TwiceWeight(8), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adjoint_coefficients(f, g, case, n_max=10, M=300)
    assert len(fits) == 2
    tail = [w for w in caught if "tail exponent" in str(w.message)]
    assert len(tail) == 1
    assert issubclass(tail[0].category, HypothesisWarning)


def test_one_power_per_reachable_index_and_no_alpha_coeff(monkeypatch):
    f = series_mul(catalog_get("delta", 221), catalog_get("delta", 221))
    g = catalog_get("delta", 221)
    case = AdjointCase(CaseId.INTEGRAL, TwiceWeight(24), TwiceWeight(24), 0)
    n_max, M = 10, 200
    bases = []
    real_power = mpmath.power

    def counting_power(x, y):
        if y < 0:  # beta_value's powers have positive exponents
            bases.append(int(x))
        return real_power(x, y)

    def no_alpha(*args):
        raise AssertionError("alpha_coeff called in the adjoint sum")

    monkeypatch.setattr(mpmath, "power", counting_power)
    monkeypatch.setattr(bracket_module, "alpha_coeff", no_alpha)
    monkeypatch.setattr(adjoint_module, "alpha_coeff", no_alpha, raising=False)
    adjoint_coefficients(f, g, case, n_max, M)
    reachable = {
        n + m
        for n in range(1, n_max + 1)
        for m in range(1, M + 1)
        if g.coeff(m) != 0 and f.coeff(n + m) != 0
    }
    assert sorted(bases) == sorted(reachable)
