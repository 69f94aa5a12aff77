import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcadjoint.bracket import (
    BracketParams,
    cohen_character,
    rc_bracket,
    rc_coefficient,
    series_mul,
)
from rcadjoint.qseries import (
    CharacterMod4,
    QSeries,
    make_eisenstein,
    make_theta,
)

from oracles import alpha_coeff, naive_mul, series_add

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=10)
small_series = st.lists(rationals, min_size=2, max_size=10).map(QSeries)


def monomial(n, prec):
    coeffs = [Fraction(0)] * prec
    coeffs[n] = Fraction(1)
    return QSeries(coeffs)


class TestRcCoefficient:
    def test_nu_zero(self):
        p = BracketParams(7, 4, 0)
        assert rc_coefficient(p, 0) == 1

    def test_nu_one_integral(self):
        p = BracketParams(12, 8, 1)
        assert rc_coefficient(p, 0) == -6
        assert rc_coefficient(p, 1) == 4

    def test_nu_one_half_integral(self):
        p = BracketParams(13, 1, 1)
        assert rc_coefficient(p, 0) == Fraction(-13, 2)
        assert rc_coefficient(p, 1) == Fraction(1, 2)

    def test_range_check(self):
        p = BracketParams(4, 4, 1)
        with pytest.raises(ValueError):
            rc_coefficient(p, 2)

    def test_matches_fraction_product(self):
        # (-1)^(nu-r) C(nu,r) Gamma(k+nu)/Gamma(k+r) Gamma(l+nu)/Gamma(l+nu-r),
        # each ratio a product of Fraction factors (x + j).
        def ratio(w2, hi, lo):
            out = Fraction(1)
            for j in range(lo, hi):
                out *= Fraction(w2, 2) + j
            return out

        for k2 in range(1, 14):
            for l2 in range(1, 14):
                for nu in range(6):
                    p = BracketParams(k2, l2, nu)
                    for r in range(nu + 1):
                        want = (
                            (-1) ** (nu - r)
                            * math.comb(nu, r)
                            * ratio(k2, nu, r)
                            * ratio(l2, nu, nu - r)
                        )
                        assert rc_coefficient(p, r) == want


class TestAlphaCoeff:
    def test_nu_zero_is_one(self):
        for k2, l2 in [(1, 1), (12, 8), (13, 4)]:
            p = BracketParams(k2, l2, 0)
            assert alpha_coeff(p, 3, 7) == 1

    def test_nu_one_formula(self):
        # two-term expansion: l*n - k*m
        p = BracketParams(12, 8, 1)
        for n in range(1, 5):
            for m in range(1, 5):
                assert alpha_coeff(p, n, m) == 4 * n - 6 * m

    def test_mixed_weight_example(self):
        p = BracketParams(12, 1, 1)
        assert alpha_coeff(p, 2, 3) == -17

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 13),
        st.integers(1, 13),
        st.integers(0, 4),
        st.integers(1, 10),
        st.integers(1, 10),
    )
    def test_sign_symmetry(self, k2, l2, nu, n, m):
        p = BracketParams(k2, l2, nu)
        q = BracketParams(l2, k2, nu)
        assert alpha_coeff(p, n, m) == (-1) ** nu * alpha_coeff(q, m, n)


class TestRcBracket:
    # series_mul is itself the nu = 0 bracket, so each of these also
    # checks the schoolbook product.
    def test_nu_zero_is_product(self):
        f = QSeries([0, 1, 5, Fraction(2, 3)])
        g = QSeries([1, -2, 0, 4])
        p = BracketParams(12, 8, 0)
        got = rc_bracket(f, g, p).coeffs
        assert got == series_mul(f, g).coeffs
        assert list(got) == naive_mul(f.coeffs, g.coeffs, 4)

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_nu_zero_reduction_random(self, f, g):
        p = BracketParams(6, 5, 0)
        got = rc_bracket(f, g, p).coeffs
        assert got == series_mul(f, g).coeffs
        prec = min(f.precision, g.precision)
        assert list(got) == naive_mul(f.coeffs, g.coeffs, prec)

    def test_self_bracket_equal_weights_vanishes(self):
        e4 = make_eisenstein(4, 12)
        p = BracketParams(8, 8, 1)
        assert rc_bracket(e4, e4, p).is_zero()

    def test_matches_alpha_on_monomials(self):
        # small slice here; the full grid runs in the acceptance suite
        for k2, l2 in [(1, 1), (5, 2), (12, 8), (13, 1)]:
            for nu in range(4):
                p = BracketParams(k2, l2, nu)
                for n in range(1, 5):
                    for m in range(1, 5):
                        br = rc_bracket(
                            monomial(n, n + m + 1), monomial(m, n + m + 1), p
                        )
                        assert br.coeff(n + m) == alpha_coeff(p, n, m)

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series, small_series, rationals, rationals)
    def test_bilinearity(self, f1, f2, g, a, b):
        p = BracketParams(9, 3, 2)
        lhs = rc_bracket(QSeries(series_add(f1.coeffs, f2.coeffs, a, b)), g, p)
        rhs = series_add(rc_bracket(f1, g, p).coeffs, rc_bracket(f2, g, p).coeffs,
                         a, b)
        assert list(lhs.coeffs) == rhs

    def test_weight_mismatch_rejected(self):
        theta = make_theta(6)
        expects_2 = "has twice-weight 1, bracket expects 2"
        with pytest.raises(ValueError, match="^f " + expects_2):
            rc_bracket(theta, QSeries([1] * 6), BracketParams(2, 1, 0))
        with pytest.raises(ValueError, match="^g " + expects_2):
            rc_bracket(QSeries([1] * 6), theta, BracketParams(1, 2, 0))

    def test_meta_bookkeeping(self):
        theta = make_theta(12)
        e4 = make_eisenstein(4, 12)
        p = BracketParams(1, 8, 1)
        out = rc_bracket(theta, e4, p)
        assert out.meta.twice_weight == 1 + 8 + 4
        assert out.meta.level == 4
        assert out.coeff(0) == 0  # nu > 0

    def test_negative_nu_rejected(self):
        message = "bracket order nu must be nonnegative"
        with pytest.raises(ValueError, match=message):
            BracketParams(2, 2, -1)
        with pytest.raises(ValueError, match=message):
            BracketParams(k2=2, l2=2, nu=-1)
        with pytest.raises(ValueError, match=message):
            BracketParams(2, 2, 1)._replace(nu=-1)
        with pytest.raises(ValueError, match=message):
            BracketParams._make((2, 2, -1))

    def test_params_are_a_frozen_record(self):
        p = BracketParams(9, 3, 2)
        with pytest.raises(AttributeError):
            p.nu = 3
        assert p._replace(nu=0) == BracketParams(9, 3, 0) == (9, 3, 0)
        restored = pickle.loads(pickle.dumps(p))
        assert (type(restored), restored) == (BracketParams, p)


class TestCohenCharacter:
    def test_both_integral(self):
        assert cohen_character(12, 8) is CharacterMod4.TRIVIAL

    def test_integral_k_odd(self):
        # k = 3 integral, l half-integral: chi_{-4}^3
        assert cohen_character(6, 1) is CharacterMod4.CHI_MINUS4
        assert cohen_character(8, 1) is CharacterMod4.TRIVIAL

    def test_integral_l_odd(self):
        assert cohen_character(1, 6) is CharacterMod4.CHI_MINUS4
        assert cohen_character(1, 8) is CharacterMod4.TRIVIAL

    def test_both_half_integral(self):
        # weights 1/2 and 1/2: exponent k+l = 1, odd
        assert cohen_character(1, 1) is CharacterMod4.CHI_MINUS4
        # weights 1/2 and 3/2: exponent 2, even
        assert cohen_character(1, 3) is CharacterMod4.TRIVIAL
