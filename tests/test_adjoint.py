import math
import pickle
import random
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcadjoint.adjoint as adjoint_module
import rcadjoint.bracket as bracket_module
import rcadjoint.kernels as kernels_module
from rcadjoint.adjoint import (
    BETA_BITS,
    GUARD_BITS,
    CaseId,
    HypothesisWarning,
    TailProfile,
    adjoint_case,
    adjoint_coefficients,
    beta_value,
    case_id,
    fit_tail_profile,
    gamma_s,
    growth_exponent,
    rows_to_csv,
    validate_hypotheses,
    _l_series_sums,
    _pi_fixed,
    _tail_bound,
)
from rcadjoint.bracket import BracketParams, rc_bracket, rc_coefficient, series_mul
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    _from_ints,
    make_theta,
)

from oracles import (
    alpha_coeff,
    beta_oracle,
    l_series_sums_loop,
    series_add,
    tail_constant_oracle,
    to_mpf,
)

HALF = Fraction(1, 2)


def params(k2, l2, nu):
    return BracketParams(k2, l2, nu)


# (k, l) twice-weights with the parities of each case.
ORACLE_WEIGHTS = {
    CaseId.INTEGRAL: (12, 4),
    CaseId.HALF_HALF: (11, 5),
    CaseId.INT_FROM_HALF_G: (12, 1),
    CaseId.HALF_FROM_INT_G: (13, 4),
}


class TestAdjointCase:
    def test_parity_validation(self):
        # The parities of the two weights fix the case, for every nu.
        for expected, (k2, l2) in ORACLE_WEIGHTS.items():
            for nu in (0, 2):
                p = params(k2, l2, nu)
                assert case_id(p) is expected
                assert gamma_s(p) == Fraction(k2 + l2, 2) + 2 * nu - 1

    @pytest.mark.parametrize("k2", [2, 1, 0, -3])
    def test_target_weight_at_most_one_rejected(self, k2):
        # f = [h, g]_1 with g of twice-weight 4 has twice-weight k2 + 4 + 4.
        with pytest.raises(ValueError, match=r"Gamma\(k-1\)"):
            adjoint_case(k2 + 8, 4, 1)

    def test_integer_parts(self):
        # The hypotheses read the integer parts: weight 7/2 has k = 3.
        message = validate_hypotheses(params(7, 4, 0), g_is_cusp=False)
        assert message == "non-cusp g needs l < k - 2 (l=2, k=3)"

    def test_case_derived_from_form_weights(self):
        # f = [h, g]_nu has weight k + l + 2 nu: 13/2 = 6 + 1/2 + 0.
        assert adjoint_case(13, 1, 0) == params(12, 1, 0)
        # [Delta, E4]_2 has weight 12 + 4 + 4 = 20.
        assert adjoint_case(40, 8, 2) == params(24, 8, 2)
        with pytest.raises(ValueError, match="nu must be nonnegative"):
            adjoint_case(13, 1, -1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-4, 40), st.integers(0, 40), st.integers(0, 4))
    def test_adjoint_case_inverts_the_bracket_weight(self, k2, l2, nu):
        # One triple: the adjoint of T_{g,nu} applied to [f, g]_nu is the
        # bracket's own (k, l, nu), read back off the bracket's metadata.
        def form(w2):
            return QSeries([0, 1, 2], FormMeta(w2, 4, CharacterMod4.TRIVIAL))

        p = params(k2, l2, nu)
        h_w2 = rc_bracket(form(k2), form(l2), p).meta.twice_weight
        if k2 < 3:  # target weight <= 1
            with pytest.raises(ValueError, match="must exceed 1"):
                adjoint_case(h_w2, l2, nu)
        else:
            assert adjoint_case(h_w2, l2, nu) == p


def _beta_ref(n, gamma_arg, gamma_den, n_exponent, four_pi_exponent):
    """beta from one row of the per-case table, with mpmath's own Gamma."""
    return (
        mpmath.gamma(to_mpf(gamma_arg))
        / mpmath.gamma(to_mpf(gamma_den))
        * mpmath.power(n, to_mpf(n_exponent))
        / mpmath.power(4 * mpmath.pi, to_mpf(four_pi_exponent))
    )


class TestCaseParams:
    """The paper's four per-case rows are the one formula in the true weights.

    Each row: gamma, the Gamma argument in beta's denominator, the power
    of n and the power of 4 pi, written out as the paper states them.  The
    exact beta_value is within 2^-250 of mpmath's Gamma and pi at 400 bits.
    """

    def _check_row(self, p, gamma, gamma_den, n_exponent, four_pi_exponent):
        assert gamma_s(p) == gamma
        with mpmath.workprec(400):
            for n in (1, 2, 7, 10**9 + 7):
                got = to_mpf(beta_value(p, n))
                ref = _beta_ref(n, gamma, gamma_den, n_exponent, four_pi_exponent)
                assert abs(got - ref) <= mpmath.mpf(2) ** -250 * ref

    def test_integral_row(self):
        p = params(24, 8, 0)
        assert case_id(p) is CaseId.INTEGRAL
        self._check_row(p, 15, 11, 11, 4)

    def test_case2_row(self):
        p = params(12, 1, 0)
        assert case_id(p) is CaseId.INT_FROM_HALF_G
        self._check_row(p, Fraction(11, 2), 5, 5, HALF)

    def test_case1_row(self):
        # target weight 5 + 1/2, g weight 2 + 1/2, nu = 1
        p = params(11, 5, 1)
        assert case_id(p) is CaseId.HALF_HALF
        self._check_row(p, 9, Fraction(9, 2), Fraction(9, 2), Fraction(9, 2))

    def test_case3_row(self):
        p = params(13, 4, 0)
        assert case_id(p) is CaseId.HALF_FROM_INT_G
        self._check_row(p, 6 + 2 - HALF, 6 - HALF, 6 - HALF, 2)


class TestHypotheses:
    def test_case2_theta_ok(self):
        assert validate_hypotheses(params(12, 1, 0), g_is_cusp=False) is None

    def test_case1_non_cusp_boundary(self):
        # l < k - 3/2 on the integer parts: k = 6 (13/2) passes with
        # l = 4 (9/2) and fails with l = 5 (11/2).
        assert validate_hypotheses(params(13, 9, 0), g_is_cusp=False) is None
        message = validate_hypotheses(params(13, 11, 0), g_is_cusp=False)
        assert message == "non-cusp g needs l < k - 3/2 (l=5, k=6)"

    def test_case1_small_k_warns(self):
        message = validate_hypotheses(params(5, 5, 0), g_is_cusp=True)
        assert message is not None
        assert "k > 2" in message

    def test_integral_e4_ok(self):
        assert validate_hypotheses(params(24, 8, 0), g_is_cusp=False) is None

    def test_integral_small_k_warns(self):
        assert validate_hypotheses(params(8, 8, 0), g_is_cusp=True) is not None


class TestTailProfile:
    def test_theta_bounded(self):
        # theta's growth exponent is 0 (see test_growth_exponents).
        profile = fit_tail_profile(make_theta(60), 0.1)
        assert profile.exponent == pytest.approx(0.1)
        assert profile.constant <= 2.0

    def test_delta_finite(self):
        delta = catalog_get("delta", 50)
        profile = fit_tail_profile(delta, 0.1)
        assert profile.exponent == pytest.approx(11 / 2 + 1 / 4 + 0.1)
        assert 0 < profile.constant < math.inf

    def test_zero_series(self):
        zero = QSeries([0] * 20).with_meta(catalog_get("E4", 1).meta)
        assert fit_tail_profile(zero).constant == 0.0

    def test_a_frozen_record(self):
        profile = fit_tail_profile(make_theta(60), 0.1)
        with pytest.raises(AttributeError):
            profile.constant = 0.0
        assert profile == (profile.exponent, profile.constant)
        restored = pickle.loads(pickle.dumps(profile))
        assert (type(restored), restored) == (TailProfile, profile)

    def test_needs_ten_coefficients(self):
        with pytest.raises(ValueError):
            fit_tail_profile(make_theta(5), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        support=st.sampled_from(["dense", "squares", "last", "zero"]),
        length=st.integers(10, 300),
        # Past 2^1024 a float conversion overflows; 10^307 and 10^330 put
        # quotients near and below the subnormals, or over a huge den.
        bound=st.sampled_from([1, 10**6, 2**60, 10**300, 10**400]),
        den=st.sampled_from([1, 3, 10**20, 10**307, 10**330]),
        twice_weight=st.integers(1, 40),
        # 150 and 400: n^e overflows at some n; negative: n^e underflows.
        epsilon=st.sampled_from([0.1, 2.5, 150.0, 400.0, -60.0, -200.0]),
        seed=st.integers(0, 2**32),
    )
    def test_screened_fit_matches_exact_loop(
        self, support, length, bound, den, twice_weight, epsilon, seed
    ):
        # The float64 screen must give the exact loop's constant bit for
        # bit, or its exception with the same n.
        rng = random.Random(seed)
        keep = {
            "dense": lambda n: True,
            "squares": lambda n: math.isqrt(n) ** 2 == n,
            "last": lambda n: n >= length - 3,
            "zero": lambda n: False,
        }[support]
        num = [0] + [
            rng.randint(-bound, bound) if keep(n) else 0 for n in range(1, length)
        ]
        meta = FormMeta(twice_weight, 4, CharacterMod4.TRIVIAL)
        series = _from_ints(num, den, meta)
        exponent = growth_exponent(series) + epsilon

        def outcome(fit):
            try:
                return fit()
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc), str(exc)

        expected = outcome(
            lambda: tail_constant_oracle(series.num, series.den, exponent)
        )
        assert outcome(lambda: fit_tail_profile(series, epsilon).constant) == expected

    def test_growth_exponents(self):
        assert growth_exponent(catalog_get("delta", 12)) == pytest.approx(
            11 / 2 + 1 / 4
        )
        assert growth_exponent(catalog_get("E4", 12)) == pytest.approx(3.0)
        # theta: weight 1/2 non-cusp would give -1/2, floored at 0
        assert growth_exponent(make_theta(12)) == 0.0

    def test_cancelled_constant_term_takes_the_cusp_branch(self):
        # E4 - 1, with E4's metadata, so a(0) = 0.
        e4 = catalog_get("E4", 12)
        one = QSeries([1] + [0] * 11, e4.meta)
        cusp = QSeries(series_add(e4.coeffs, one.coeffs, 1, -1), e4.meta)
        assert cusp.meta == e4.meta
        assert cusp.coeff(0) == 0
        assert growth_exponent(cusp) == pytest.approx(4 / 2 - 1 / 4)


@pytest.fixture(scope="module")
def sec5_forms():
    prec = 2012
    theta = catalog_get("theta", prec)
    d46 = catalog_get("delta_4_6", prec)
    return theta, d46, series_mul(theta, d46)


SEC5 = params(12, 1, 0)  # gamma = 11/2


class TestLSeriesValue:
    def test_constant_g_gives_the_m0_term(self, sec5_forms):
        # g = 1: only m = 0 contributes, a(n) n^-s, and the tail is empty.
        _, _, f = sec5_forms
        g = QSeries([1] + [0] * 2011, make_theta(2).meta)
        sums = _l_series_sums(f, g, SEC5, [1, 2, 3], 500)
        with mpmath.workdps(50):
            for n, got in zip([1, 2, 3], sums):
                want = to_mpf(f.coeff(n)) * mpmath.power(n, -mpmath.mpf(11) / 2)
                assert abs(to_mpf(got) - want) <= mpmath.mpf(10) ** -45 * abs(want)
        assert _tail_bound(f, g, SEC5, 500, 0.1) == 0

    def test_positive_value(self, sec5_forms):
        theta, _, f = sec5_forms
        (value,) = _l_series_sums(f, theta, SEC5, [1], 1000)
        assert value > 0

    def test_insufficient_precision_reports_requirement(self, sec5_forms):
        theta, _, f = sec5_forms
        with pytest.raises(ValueError, match=str(1 + 5000 + 1)):
            _l_series_sums(f, theta, SEC5, [1], 5000)

    @pytest.mark.parametrize("M", [0, -3])
    def test_nonpositive_M_rejected(self, sec5_forms, M):
        theta, _, f = sec5_forms
        with pytest.raises(ValueError, match="M must be positive"):
            _l_series_sums(f, theta, SEC5, [1], M)

    def test_negative_gamma_rejected(self):
        # k = 5/2 with g of weight -2: f has weight 1/2, so gamma = -1/2,
        # and the integer weights floor(2^P j^-gamma) are not defined.
        f = QSeries([0, 1, 0, 0], FormMeta(1, 4, CharacterMod4.TRIVIAL))
        g = QSeries([1, 0, 0], FormMeta(-4, 4, CharacterMod4.TRIVIAL))
        p = adjoint_case(1, -4, 0)
        assert gamma_s(p) == -HALF
        with pytest.raises(ValueError, match="gamma = -1/2 must be nonnegative"):
            _l_series_sums(f, g, p, [1], 2)

    def test_tail_monotone_in_M(self, sec5_forms):
        theta, _, f = sec5_forms
        bounds = [
            adjoint_coefficients(f, theta, 0, 1, M)[0][2]
            for M in (100, 200, 400, 800, 1600)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_constant_term_shifts_c_n_by_the_m0_term(self):
        # Changing b(0) by db moves c(n) by beta(n) db a(n) c_nu n^nu n^-gamma.
        # Integral case, nu = 1, so c_nu = l = 4 and n^nu are both exercised.
        n_max, M = 3, 300
        prec = n_max + M + 1
        e4 = catalog_get("E4", M + 1)
        f = series_mul(catalog_get("delta", prec), catalog_get("E6", prec))
        p = params(24, 8, 1)  # 18 = 12 + 4 + 2
        db = Fraction(4, 3)
        moved = QSeries((1 + db,) + e4.coeffs[1:], e4.meta)
        rows = adjoint_coefficients(f, e4, 1, n_max, M)
        rows_moved = adjoint_coefficients(f, moved, 1, n_max, M)
        c_nu = rc_coefficient(p, 1)
        assert c_nu == 4
        with mpmath.workdps(50):
            for (n, c, _), (_, c_moved, _) in zip(rows, rows_moved):
                shift = (
                    beta_oracle(p, n)
                    * to_mpf(db * f.coeff(n) * c_nu * n)
                    * mpmath.power(n, -to_mpf(gamma_s(p)))
                )
                assert c_moved - c == pytest.approx(float(shift), rel=1e-9)
                assert abs(float(shift)) > 1e-3 * abs(c)

    def test_nu_zero_summand_is_plain(self, sec5_forms):
        # alpha = 1 for nu = 0: manual partial sum over theta's support m = 0, 1, 4
        theta, _, f = sec5_forms
        (value,) = _l_series_sums(f, theta, SEC5, [1], 4)
        manual = sum(
            float(f.coeff(1 + m)) * float(theta.coeff(m)) * (1 + m) ** (-11 / 2)
            for m in (0, 1, 4)
        )
        assert float(value) == pytest.approx(manual, rel=1e-12)


class TestBeta:
    def test_positive_for_all_cases(self):
        triples = [
            params(24, 8, 0),
            params(11, 5, 1),
            params(12, 1, 0),
            params(13, 4, 2),
        ]
        for p in triples:
            for n in (1, 2, 7, 50):
                assert beta_value(p, n) > 0

    def test_sec5_anchor(self):
        with mpmath.workdps(50):
            got = to_mpf(beta_value(SEC5, 1))
            ref = mpmath.gamma(mpmath.mpf(11) / 2) / (
                mpmath.gamma(5) * 2 * mpmath.sqrt(mpmath.pi)
            )
            assert abs(got - ref) / ref < mpmath.mpf(10) ** -45


    def test_exact_with_a_fixed_point_pi(self):
        assert isinstance(beta_value(SEC5, 3), Fraction)
        with mpmath.workprec(400):
            assert abs(to_mpf(Fraction(_pi_fixed(BETA_BITS), 1 << BETA_BITS))
                       - mpmath.pi) <= mpmath.mpf(2) ** -BETA_BITS

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 80), st.integers(-8, 80), st.integers(0, 30),
           st.integers(1, 10**12))
    def test_matches_mpmath_gamma_and_pi(self, k2, l2, nu, n):
        # All four parities, pi^-j with j from -2 to 61, sqrt(n) beyond 2^20.
        p = params(k2, l2, nu)
        if gamma_s(p) <= 0:
            with pytest.raises(ValueError, match="must be positive"):
                beta_value(p, n)
            return
        with mpmath.workprec(400):
            ref = beta_oracle(p, n)
            assert abs(to_mpf(beta_value(p, n)) - ref) <= mpmath.mpf(2) ** -250 * ref


class TestAdjointCoefficients:
    def test_empty_for_n_max_zero(self, sec5_forms):
        theta, _, f = sec5_forms
        assert adjoint_coefficients(f, theta, 0, 0, 100) == []

    def test_sec5_first_coefficient_positive(self, sec5_forms):
        theta, d46, f = sec5_forms
        rows = adjoint_coefficients(f, theta, 0, 1, 2000)
        n, c1, err = rows[0]
        assert n == 1
        assert c1 > err > 0  # lambda = c(1) since tau(1) = 1

    def test_non_cusp_f_rejected(self, sec5_forms):
        theta, _, _ = sec5_forms
        f = series_mul(theta, catalog_get("E6", theta.precision))  # weight 13/2
        with pytest.raises(ValueError, match="cusp"):
            adjoint_coefficients(f, theta, 0, 1, 100)

    @pytest.mark.parametrize("M", [0, -3])
    def test_nonpositive_M_rejected(self, sec5_forms, M):
        theta, _, f = sec5_forms
        with pytest.raises(ValueError, match="M must be positive"):
            adjoint_coefficients(f, theta, 0, 1, M)

    @pytest.mark.filterwarnings("ignore:tail exponent")
    def test_hypothesis_warning_emitted(self):
        # case 1 with target weight 3/2 (k = 1) and a cusp g needs k > 2
        prec = 160
        theta = catalog_get("theta", prec)
        d46 = catalog_get("delta_4_6", prec)
        g = series_mul(theta, d46)  # weight 13/2 cusp form
        theta2 = series_mul(theta, theta)
        f = series_mul(d46, series_mul(theta2, theta2))  # weight 8 = 3/2 + 13/2
        with pytest.warns(HypothesisWarning, match="k > 2"):
            adjoint_coefficients(f, g, 0, 1, 100)

    @pytest.mark.parametrize("bare", ["f", "g"])
    def test_missing_metadata_stops_before_the_sum(self, sec5_forms, bare, monkeypatch):
        def no_sum(*args, **kwargs):
            raise AssertionError("L-series sum started")

        monkeypatch.setattr(adjoint_module, "_l_series_sums", no_sum)
        theta, _, f = sec5_forms
        forms = {"f": f, "g": theta}
        forms[bare] = forms[bare].with_meta(None)
        with pytest.raises(ValueError, match="metadata"):
            adjoint_coefficients(forms["f"], forms["g"], 0, 3, 300)

    def test_target_weight_at_most_one_rejected(self, sec5_forms):
        # Delta_{4,6} against theta * Delta_{4,6}: 6 - 13/2 - 0 = -1/2.
        _, d46, f = sec5_forms
        with pytest.raises(ValueError, match="target weight -1/2 must exceed 1"):
            adjoint_coefficients(d46, f, 0, 1, 100)

    def test_c_beyond_float_range_is_infinite(self):
        # k = 400, l = 200: c(1) = beta(1) = Gamma(599)/Gamma(399)/(4 pi)^200
        # is about 1e319, and c(2) = beta(2) a(2) 2^-599 about -1e259 * 1e80.
        meta = FormMeta(1200, 1, CharacterMod4.TRIVIAL)
        f = QSeries([0, 1, -(10**80)] + [0] * 20, meta)
        g = QSeries([1] + [0] * 20, FormMeta(400, 1, CharacterMod4.TRIVIAL))
        rows = adjoint_coefficients(f, g, 0, 3, 10)
        assert rows == [(1, math.inf, 0.0), (2, -math.inf, 0.0), (3, 0.0, 0.0)]

    def test_tail_bound_beyond_float_range_is_infinite(self):
        # nu = 150: the bracket coefficients' absolute sum is beyond float
        # range, so the bound is inf, also for a zero f, whose profile
        # constant 0 times that inf would be nan.
        e4 = catalog_get("E4", 42)
        p = adjoint_case(632, e4.meta.twice_weight, 150)
        for head in ([0, 1], [0, 0]):
            f = QSeries(head + [0] * 40, FormMeta(632, 1, CharacterMod4.TRIVIAL))
            assert _tail_bound(f, e4, p, 20, 0.1) == math.inf

    def test_csv_format(self):
        text = rows_to_csv([(1, 0.5, 1e-9)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,c_n,err_bound"
        assert lines[1].startswith("1,0.5,")


def _random_pair(rng, p, n_max, M, sparse_g, f_from):
    """Random f, g with fractional coefficients; f often vanishes where g
    does not, and always below index f_from."""

    def rational():
        return Fraction(rng.randint(-60, 60) or 1, rng.choice([1, 2, 3, 7, 12]))

    f_coeffs = [Fraction(0)] + [
        rational() if rng.random() < 0.6 else Fraction(0)
        for _ in range(n_max + M)
    ]
    f_coeffs[:f_from] = [Fraction(0)] * f_from
    squares = {i * i for i in range(M + 1)}
    g_coeffs = [rational() if sparse_g else Fraction(0)] + [
        rational() if (m in squares or not sparse_g) else Fraction(0)
        for m in range(1, M + 1)
    ]
    w_f = p.k2 + p.l2 + 4 * p.nu
    f = QSeries(f_coeffs, FormMeta(w_f, 4, CharacterMod4.TRIVIAL))
    return f, QSeries(g_coeffs, FormMeta(p.l2, 4, CharacterMod4.TRIVIAL))


def _brute_l_sum(f, g, p, n, M):
    total = mpmath.mpf(0)
    s = to_mpf(Fraction(p.k2 + p.l2, 2) + 2 * p.nu - 1)
    for m in range(M + 1):
        term = f.coeff(n + m) * g.coeff(m) * alpha_coeff(p, n, m)
        if term:
            total += to_mpf(term) * mpmath.power(n + m, -s)
    return total


# (k2, l2, nu, sparse_g, M, f_from): each case's weights at every nu, with
# dense and sparse g; then dense_nu2's gamma = 19 at top = 2504, with f
# vanishing below 2000, so every weight j^-19 is below 1e-62 and a fixed
# point keeps its digits only with the gamma * log2(top) bits in P.
ORACLE_CASES = [
    pytest.param(*ORACLE_WEIGHTS[cid], nu, sparse_g, 30, 1,
                 id=f"{cid.name}-{nu}-{'sparse' if sparse_g else 'dense'}-g")
    for cid in CaseId
    for nu in range(4)
    for sparse_g in (False, True)
] + [pytest.param(24, 8, 2, True, 2500, 2000, id="INTEGRAL-2-sparse-g-top-2504")]


def test_oracle_cases_cover_integral_and_half_integral_gamma():
    # The weights floor(2^P j^-gamma) take a floor division for integral
    # gamma and an isqrt for half-integral gamma: the oracle checks both.
    gammas = {gamma_s(params(*case.values[:3])) for case in ORACLE_CASES}
    assert {g.denominator for g in gammas} == {1, 2}


@pytest.mark.filterwarnings("ignore::rcadjoint.adjoint.HypothesisWarning")
@pytest.mark.parametrize("k2, l2, nu, sparse_g, M, f_from", ORACLE_CASES)
def test_one_pass_sums_match_per_term_oracle(k2, l2, nu, sparse_g, M, f_from):
    # Sparse g has b(0) != 0, so the m = 0 term is checked there.
    p = params(k2, l2, nu)
    rng = random.Random(f"{case_id(p).name}/{nu}/{sparse_g}")
    n_max = 4
    f, g = _random_pair(rng, p, n_max, M, sparse_g, f_from)
    ns = range(1, n_max + 1)
    sums = _l_series_sums(f, g, p, ns, M)
    with mpmath.workdps(50):
        for n, got in zip(ns, sums):
            want = _brute_l_sum(f, g, p, n, M)
            assert abs(to_mpf(got) - want) <= mpmath.mpf(10) ** -45 * abs(want)

    # adjoint_coefficients is beta(n) times the per-n sum and tail bound,
    # each rounded once: the floats of mpmath's beta times them at 50 digits.
    rows = adjoint_coefficients(f, g, nu, n_max, M)
    tail = _tail_bound(f, g, p, M, 0.1)
    expected = []
    with mpmath.workdps(50):
        for n in ns:
            (total,) = _l_series_sums(f, g, p, [n], M)
            beta = beta_oracle(p, n)
            expected.append((n, float(beta * to_mpf(total)), float(beta * tail)))
    assert rows == expected


_COEFF = st.integers(-(2**70), 2**70).filter(bool)


@pytest.mark.filterwarnings("ignore::rcadjoint.adjoint.HypothesisWarning")
@settings(max_examples=150, deadline=None)
@given(
    cid=st.sampled_from(list(CaseId)),
    nu=st.integers(0, 3),
    ns=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    a=st.lists(_COEFF | st.just(0), min_size=1, max_size=50),
    b=st.lists(_COEFF, min_size=2, max_size=40),
    sparse=st.booleans(),
    dens=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    block=st.none() | st.integers(1, 6),
)
# Twelve dense terms in blocks of two: six blocks, each reaching j that the
# last one reached, with |a| and |b| past 2^64 of both signs.
@example(
    cid=CaseId.INTEGRAL, nu=2, ns=[1, 2, 3, 4, 5], a=[3, -(2**66) - 5, 7, 2**65],
    b=[-(2**67) + 1, 5, 2**64 + 9, -3] * 3, sparse=False, dens=(7, 3), block=2,
)
# a(j) = 0 on a run of the reached j, against sparse g in blocks of three.
@example(
    cid=CaseId.INT_FROM_HALF_G, nu=1, ns=[2, 1, 4],
    a=[0, 5] + [0] * 9 + [-(2**70), 11], b=[2, 1] * 13, sparse=True,
    dens=(12, 1), block=3,
)
def test_l_series_sums_are_the_loops(cid, nu, ns, a, b, sparse, dens, block):
    # The limb product's rows are the term-by-term loop's Fractions,
    # bit for bit, for dense g and for sparse g with b(0) != 0, both
    # parities of 2 gamma (the four cases), any f.den and g.den, rows in
    # any order (repeats included) and any column block size.
    p = params(*ORACLE_WEIGHTS[cid], nu)
    M = len(b) - 1
    if sparse:
        squares = {i * i for i in range(M + 1)}
        b = [v if m in squares else 0 for m, v in enumerate(b)]
    top = max(ns) + M
    w_f = p.k2 + p.l2 + 4 * p.nu
    f = _from_ints(
        [a[j % len(a)] for j in range(top + 1)], dens[0],
        FormMeta(w_f, 4, CharacterMod4.TRIVIAL),
    )
    g = _from_ints(b, dens[1], FormMeta(p.l2, 4, CharacterMod4.TRIVIAL))
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(kernels_module, "_BLOCK_TERMS", block)
        got = _l_series_sums(f, g, p, ns, M)
    assert got == l_series_sums_loop(f, g, p, ns, M)


def test_profiles_fitted_once_per_call(monkeypatch):
    fits = []
    real_fit = adjoint_module.fit_tail_profile

    def counting_fit(*args, **kwargs):
        fits.append(args[0])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(adjoint_module, "fit_tail_profile", counting_fit)
    f, g = catalog_get("delta", 311), catalog_get("E4", 311)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adjoint_coefficients(f, g, 2, n_max=10, M=300)
    assert len(fits) == 2
    tail = [w for w in caught if "tail exponent" in str(w.message)]
    assert len(tail) == 1
    assert issubclass(tail[0].category, HypothesisWarning)


def test_one_power_per_reachable_index_and_no_alpha_coeff(monkeypatch):
    # g = E4 has b(0) != 0: the m = 0 term reuses the weight a(n) n^-s.
    f = series_mul(catalog_get("delta", 221), catalog_get("delta", 221))
    g = catalog_get("E4", 221)
    n_max, M = 10, 200
    weights = []
    real_weight = adjoint_module._floor_weight

    def counting_weight(P, two_gamma):
        """_floor_weight, with each weight it computes recorded: one per
        integer weight."""
        weight = real_weight(P, two_gamma)

        def counted(j):
            weights.append((P, j, two_gamma))
            return weight(j)

        return counted

    # alpha_coeff is a test oracle only; the library sums exact integer alpha.
    assert not hasattr(bracket_module, "alpha_coeff")
    assert not hasattr(adjoint_module, "alpha_coeff")
    monkeypatch.setattr(adjoint_module, "_floor_weight", counting_weight)
    adjoint_coefficients(f, g, 0, n_max, M)
    reachable = {
        n + m
        for n in range(1, n_max + 1)
        for m in range(M + 1)
        if g.coeff(m) != 0 and f.coeff(n + m) != 0
    }
    # Weight 24 against E4 at nu = 0: gamma = 23 and top = 210, 8 bits, so
    # P = 168 + 23 * 8 and the weight of j is 2^P // j^23.
    P = GUARD_BITS + 23 * 8
    assert sorted(weights) == sorted((P, j, 46) for j in reachable)
    assert all(real_weight(P, 46)(j) == (1 << P) // j**23 for j in reachable)


@pytest.mark.parametrize("two_gamma", [0, 1, 19, 38, 45, 46])
def test_floor_weight_is_the_floor_of_2_to_the_P_over_j_to_the_gamma(two_gamma):
    # floor(2^P j^-gamma) is the largest w with w^2 j^(2 gamma) <= 2^2P.
    rng = random.Random(two_gamma)
    for _ in range(200):
        P, j = rng.randint(0, 400), rng.randint(1, 10**6)
        w = adjoint_module._floor_weight(P, two_gamma)(j)
        assert w**2 * j**two_gamma <= 1 << 2 * P < (w + 1) ** 2 * j**two_gamma
