import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcadjoint.qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    _euler_factor,
    _from_ints,
    apply_D,
    bernoulli_number,
    make_eisenstein,
    make_eta_product,
    make_theta,
    series_add,
    series_mul,
    zero_series,
)

from oracles import (
    bernoulli_oracle,
    delta_4_6_oracle,
    delta_oracle,
    naive_mul,
    two_squares_count,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_series = st.lists(rationals, min_size=1, max_size=12).map(QSeries)


def ints(series):
    return [int(c) for c in series.coeffs]


class TestSeriesAdd:
    def test_self_cancellation(self):
        a = QSeries([1, 2, 3, Fraction(5, 7)])
        assert series_add(a, a, 1, -1).is_zero()

    def test_add_zero(self):
        a = QSeries([1, 2, 3])
        assert series_add(a, zero_series(3), 0, 1).is_zero()
        assert series_add(a, zero_series(3), 1, 1).coeffs == a.coeffs

    def test_theta_doubling(self):
        theta = make_theta(6)
        doubled = series_add(theta, theta, 1, 1)
        assert ints(doubled) == [2, 4, 0, 0, 4, 0]

    def test_precision_is_min(self):
        a = QSeries([1, 2, 3, 4])
        b = QSeries([1, 1])
        assert series_add(a, b).precision == 2

    def test_meta_kept_when_compatible(self):
        t = make_theta(5)
        s = series_add(t, t)
        assert s.meta is not None and s.meta.twice_weight == 1
        assert s.meta == t.meta

    def test_meta_dropped_on_mismatch(self):
        t = make_theta(5)
        e = make_eisenstein(4, 5)
        assert series_add(t, e).meta is None


class TestSeriesMul:
    def test_one_plus_q_times_one_minus_q(self):
        a = QSeries([1, 1, 0])
        b = QSeries([1, -1, 0])
        assert series_mul(a, b).coeffs == (1, 0, -1)

    def test_theta_squared_counts_lattice_points(self):
        theta = make_theta(50)
        sq = series_mul(theta, theta)
        for n in range(50):
            assert sq.coeff(n) == two_squares_count(n)

    def test_multiplicative_identity(self):
        delta = make_eta_product([(1, 24)], 5)
        one = QSeries([1, 0, 0, 0, 0])
        assert series_mul(delta, one).coeffs == delta.coeffs

    def test_meta_combination(self):
        t = make_theta(8)
        e = make_eisenstein(4, 8)
        prod = series_mul(t, e)
        assert prod.meta.twice_weight == 9
        assert prod.meta.level == 4
        assert prod.meta.character is CharacterMod4.TRIVIAL

    def test_chi_minus4_squares_to_trivial(self):
        meta = FormMeta(1, 4, CharacterMod4.CHI_MINUS4)
        t = make_theta(5).with_meta(meta)
        assert series_mul(t, t).meta.character is CharacterMod4.TRIVIAL

    def test_dense_matches_naive_oracle(self):
        # force the dense integer route: no zero coefficients at all
        a = QSeries([Fraction(i * i + 1) for i in range(80)])
        b = QSeries([Fraction(3 * i - 40) for i in range(80)])
        assert list(series_mul(a, b).coeffs) == naive_mul(a.coeffs, b.coeffs, 80)

    def test_dense_rational_route(self):
        a = QSeries([Fraction(1, i + 2) for i in range(70)])
        b = QSeries([Fraction(i, 3) + 1 for i in range(70)])
        assert list(series_mul(a, b).coeffs) == naive_mul(a.coeffs, b.coeffs, 70)

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_commutative(self, a, b):
        assert series_mul(a, b).coeffs == series_mul(b, a).coeffs

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series, small_series)
    def test_associative(self, a, b, c):
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        prec = min(left.precision, right.precision)
        assert left.coeffs[:prec] == right.coeffs[:prec]


class TestApplyD:
    def test_order_zero_is_identity(self):
        a = QSeries([5, Fraction(1, 3), 2])
        assert apply_D(a, 0).coeffs == a.coeffs

    def test_single_derivative(self):
        a = QSeries([0, 1, 1])
        assert apply_D(a, 1).coeffs == (0, 1, 2)

    def test_on_theta(self):
        theta = make_theta(10)
        d2 = apply_D(theta, 2)
        assert ints(d2) == [0, 2, 0, 0, 32, 0, 0, 0, 0, 162]

    def test_meta_dropped(self):
        assert apply_D(make_theta(5), 1).meta is None

    @settings(max_examples=50, deadline=None)
    @given(small_series, st.integers(0, 3), st.integers(0, 3))
    def test_composition(self, a, r, s):
        assert apply_D(a, r + s).coeffs == apply_D(apply_D(a, r), s).coeffs

    @settings(max_examples=50, deadline=None)
    @given(small_series, small_series)
    def test_leibniz_rule(self, a, b):
        lhs = apply_D(series_mul(a, b), 1)
        rhs = series_add(
            series_mul(apply_D(a, 1), b), series_mul(a, apply_D(b, 1))
        )
        assert lhs.coeffs == rhs.coeffs


class TestTheta:
    def test_first_ten(self):
        assert ints(make_theta(10)) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]

    def test_precision_one(self):
        assert ints(make_theta(1)) == [1]

    def test_q25(self):
        assert make_theta(26).coeff(25) == 2

    def test_meta(self):
        meta = make_theta(3).meta
        assert meta.twice_weight == 1
        assert meta.level == 4
        assert meta == FormMeta(1, 4, CharacterMod4.TRIVIAL)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            make_theta(0)


class TestEtaProduct:
    def test_delta_against_oracle(self):
        delta = make_eta_product([(1, 24)], 51)
        assert list(delta.coeffs) == delta_oracle(51)
        assert ints(delta)[1:5] == [1, -24, 252, -1472]

    def test_eta2z_12_against_oracle(self):
        d46 = make_eta_product([(2, 12)], 50)
        assert list(d46.coeffs) == delta_4_6_oracle(50)
        assert d46.coeff(1) == 1

    def test_fractional_order_rejected(self):
        with pytest.raises(ValueError, match="non-integral order"):
            make_eta_product([(1, 1)], 10)

    def test_negative_exponent_inverse(self):
        # eta(z)^24 * eta(z)^-24 has trivial total order and equals 1
        prod = make_eta_product([(1, 24), (1, -24)], 20)
        assert ints(prod) == [1] + [0] * 19

    def test_inverse_euler_factor_gives_partition_numbers(self):
        # prod (1 - q^n)^-1 = sum p(n) q^n, eta(z)^-1 without its q^(-1/24)
        partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert _euler_factor(1, -1, 11) == partitions
        assert _euler_factor(2, -1, 11)[::2] == partitions[:6]

    def test_shift_beyond_precision(self):
        assert make_eta_product([(1, 24)], 1).is_zero()


class TestEisenstein:
    def test_e4(self):
        assert ints(make_eisenstein(4, 3)) == [1, 240, 2160]

    def test_e6(self):
        assert ints(make_eisenstein(6, 3)) == [1, -504, -16632]

    def test_e12_over_691(self):
        # E_12 = 1 + (65520/691) sum sigma_11(n) q^n: one denominator 691.
        e12 = make_eisenstein(12, 4)
        assert_canonical(e12)
        assert e12.den == 691
        assert e12.coeffs == (1, Fraction(65520, 691), Fraction(65520 * 2049, 691),
                              Fraction(65520 * 177148, 691))

    def test_weight_two_rejected(self):
        with pytest.raises(ValueError):
            make_eisenstein(2, 10)

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            make_eisenstein(5, 10)

    def test_bernoulli_against_oracle(self):
        for n in (4, 6, 8, 10, 12):
            assert bernoulli_number(n) == bernoulli_oracle(n)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)


class TestJsonFormat:
    def test_round_trip(self):
        t = make_theta(7)
        again = QSeries.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
        assert again.coeffs == t.coeffs
        assert again.meta.twice_weight == t.meta.twice_weight
        assert again.meta.character is t.meta.character

    def test_coeff_strings_are_lowest_terms(self):
        d = QSeries([Fraction(2, 4)]).to_json_dict()
        assert d["coeffs"] == ["1/2"]

    def test_meta_free_series(self):
        d = QSeries([1, 2]).to_json_dict()
        assert d["twice_weight"] is None
        assert QSeries.from_json_dict(d).meta is None

    def test_only_the_written_coefficient_format_is_read(self):
        # Fraction(str) would build 10**3000000 before anything failed.
        with pytest.raises(ValueError, match=r"bad coefficient '1e3000000'"):
            QSeries.from_json_dict({"coeffs": ["1e3000000"]})
        read = QSeries.from_json_dict({"coeffs": ["-3/4", "+5", "0/1", 7]})
        assert read.coeffs == (Fraction(-3, 4), 5, 0, 7)


# Series of 1..40 coefficients: fractional, negative, and all-zero.
core_coeffs = st.one_of(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=60),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 40).map(lambda n: [Fraction(0)] * n),
)
core_scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def assert_canonical(series):
    assert type(series.den) is int and series.den > 0
    assert all(type(v) is int for v in series.num)
    assert math.gcd(series.den, *series.num) == 1


def assert_equals_oracle(series, coeffs):
    assert_canonical(series)
    assert list(series.coeffs) == list(coeffs)
    assert series == QSeries(coeffs)


class TestIntegerNumeratorCore:
    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, st.integers(1, 7))
    def test_equal_constructions_are_equal(self, coeffs, k):
        s = QSeries(coeffs)
        assert_canonical(s)
        # The same coefficients over a needlessly large denominator.
        scaled = _from_ints([k * v for v in s.num], k * s.den)
        as_strings = QSeries([str(c) for c in coeffs])
        for other in (scaled, as_strings):
            assert_canonical(other)
            assert other == s
            assert hash(other) == hash(s)

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, core_coeffs, core_scalars, core_scalars)
    def test_add_matches_fraction_oracle(self, ca_list, cb_list, ca, cb):
        prec = min(len(ca_list), len(cb_list))
        want = [ca * x + cb * y for x, y in zip(ca_list, cb_list)][:prec]
        out = series_add(QSeries(ca_list), QSeries(cb_list), ca, cb)
        assert_equals_oracle(out, want)

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, core_coeffs)
    def test_mul_matches_fraction_oracle(self, ca_list, cb_list):
        prec = min(len(ca_list), len(cb_list))
        out = series_mul(QSeries(ca_list), QSeries(cb_list))
        assert_equals_oracle(out, naive_mul(ca_list, cb_list, prec))

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, st.integers(0, 4))
    def test_apply_D_matches_fraction_oracle(self, coeffs, r):
        out = apply_D(QSeries(coeffs), r)
        assert_equals_oracle(out, [c * n**r for n, c in enumerate(coeffs)])

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, st.data())
    def test_truncate_matches_fraction_oracle(self, coeffs, data):
        prec = data.draw(st.integers(1, len(coeffs)))
        assert_equals_oracle(QSeries(coeffs).truncate(prec), coeffs[:prec])

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs)
    def test_json_round_trip_matches_fraction_oracle(self, coeffs):
        d = json.loads(json.dumps(QSeries(coeffs).to_json_dict()))
        assert d["coeffs"] == [f"{c.numerator}/{c.denominator}" for c in coeffs]
        assert_equals_oracle(QSeries.from_json_dict(d), coeffs)


class TestFormMeta:
    def test_half_integral_weight_needs_level_4(self):
        with pytest.raises(ValueError):
            FormMeta(1, 1, CharacterMod4.TRIVIAL)

    def test_immutability(self):
        t = make_theta(3)
        with pytest.raises(AttributeError):
            t.coeffs = ()

    def test_chi_minus4_values(self):
        # (-4/d) and the trivial character on odd d, written out here; the
        # product table of CharacterMod4 is the pointwise product of values.
        value = {
            CharacterMod4.TRIVIAL: lambda d: 1,
            CharacterMod4.CHI_MINUS4: lambda d: 1 if d % 4 == 1 else -1,
        }
        for a in CharacterMod4:
            for b in CharacterMod4:
                for d in range(1, 12, 2):
                    assert value[a * b](d) == value[a](d) * value[b](d)
