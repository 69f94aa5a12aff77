import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcadjoint import kernels
from rcadjoint import qseries as qseries_module
from rcadjoint.qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    _divisor_power_sums,
    _euler_factor,
    _from_ints,
    _miller_power,
    _power_product,
    bernoulli_number,
    make_eisenstein,
    make_eta_product,
    make_theta,
)
from rcadjoint.bracket import BracketParams, rc_bracket, series_mul
from rcadjoint.cli import _series_parts
from rcadjoint.forms import catalog_get

from oracles import (
    apply_D,
    bernoulli_oracle,
    delta_4_6_oracle,
    delta_oracle,
    eta_power_oracle,
    naive_mul,
    series_add,
    series_file_dumps,
    series_from_json_loop,
    two_squares_count,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_series = st.lists(rationals, min_size=1, max_size=12).map(QSeries)
# Twice-weights odd and even; an odd one needs 4 | level.
form_metas = st.builds(
    lambda w2, level, character: FormMeta(
        w2, 4 * level if w2 % 2 else level, character
    ),
    st.integers(0, 30),
    st.integers(1, 12),
    st.sampled_from(CharacterMod4),
)


def ints(series):
    return [int(c) for c in series.coeffs]


class TestSeriesAdd:
    """The Fraction-list oracle that the bracket's linearity tests use."""

    def test_self_cancellation(self):
        a = [1, 2, 3, Fraction(5, 7)]
        assert not any(series_add(a, a, 1, -1))

    def test_add_zero(self):
        a = [1, 2, 3]
        assert not any(series_add(a, [0] * 3, 0, 1))
        assert series_add(a, [0] * 3, 1, 1) == a

    def test_theta_doubling(self):
        theta = make_theta(6).coeffs
        assert series_add(theta, theta, 1, 1) == [2, 4, 0, 0, 4, 0]

    def test_precision_is_min(self):
        assert len(series_add([1, 2, 3, 4], [1, 1])) == 2


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
        chi = CharacterMod4.CHI_MINUS4
        assert chi * chi is CharacterMod4.TRIVIAL
        # Two weight-1/2 factors: chi_-4 from each factor and once more from
        # the half-integral weights (cohen_character(1, 1)).
        t = make_theta(5).with_meta(FormMeta(1, 4, chi))
        assert series_mul(t, t).meta.character is chi

    def test_characters_of_theta_powers(self):
        # Known spaces: theta^2 = sum r_2(n) q^n is in M_1(Gamma_0(4), chi_-4),
        # theta^3 in M_3/2(Gamma_0(4)), theta^4 = sum r_4(n) q^n in
        # M_2(Gamma_0(4)), and theta * Delta_{4,6} in S_13/2(Gamma_0(4)).
        theta = make_theta(12)
        theta2 = series_mul(theta, theta)
        assert theta2.meta == FormMeta(2, 4, CharacterMod4.CHI_MINUS4)
        assert series_mul(theta2, theta).meta == FormMeta(3, 4, CharacterMod4.TRIVIAL)
        assert series_mul(theta2, theta2).meta == FormMeta(4, 4, CharacterMod4.TRIVIAL)
        f = series_mul(theta, catalog_get("delta_4_6", 12))
        assert f.meta == FormMeta(13, 4, CharacterMod4.TRIVIAL)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(form_metas, min_size=3, max_size=3))
    def test_meta_commutative_and_associative(self, metas):
        a, b, c = (QSeries([1, 2]).with_meta(m) for m in metas)
        assert series_mul(a, b).meta == series_mul(b, a).meta
        left = series_mul(series_mul(a, b), c).meta
        assert left == series_mul(a, series_mul(b, c)).meta
        assert left.twice_weight == sum(m.twice_weight for m in metas)

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
    """The Fraction-list oracle of q d/dq that the bracket tests use."""

    def test_order_zero_is_identity(self):
        a = [5, Fraction(1, 3), 2]
        assert apply_D(a, 0) == a

    def test_single_derivative(self):
        assert apply_D([0, 1, 1], 1) == [0, 1, 2]

    def test_on_theta(self):
        d2 = apply_D(make_theta(10).coeffs, 2)
        assert d2 == [0, 2, 0, 0, 32, 0, 0, 0, 0, 162]

    @settings(max_examples=50, deadline=None)
    @given(small_series, st.integers(0, 3), st.integers(0, 3))
    def test_composition(self, a, r, s):
        assert apply_D(a.coeffs, r + s) == apply_D(apply_D(a.coeffs, r), s)

    @settings(max_examples=50, deadline=None)
    @given(small_series, small_series)
    def test_leibniz_rule(self, a, b):
        # The package's product against the oracle's derivation.
        lhs = apply_D(series_mul(a, b).coeffs, 1)
        rhs = series_add(
            series_mul(QSeries(apply_D(a.coeffs, 1)), b).coeffs,
            series_mul(a, QSeries(apply_D(b.coeffs, 1))).coeffs,
        )
        assert lhs == rhs


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-24, 24),
        st.sampled_from([1, 2, 4]),
        st.one_of(st.integers(1, 60), st.integers(1, 500)),
    )
    def test_euler_factor_against_miller_and_oracle(self, exponent, step, prec):
        size = (prec - 1) // step + 1
        # An int list, or the int64 array slice-adds made it on.
        got = list(map(int, _euler_factor(step, exponent, prec)))
        assert len(got) == prec
        assert all(got[i] == 0 for i in range(prec) if i % step)
        assert got[::step] == _miller_power(exponent, size)
        if prec <= 60:
            # Not resting on the recurrence: the naive expansion of the
            # product, or for a negative exponent, of its inverse.
            oracle = eta_power_oracle(abs(exponent), size)
            if exponent >= 0:
                assert got[::step] == oracle
            else:
                assert naive_mul(got[::step], oracle, size) == [1] + [0] * (size - 1)

    @settings(max_examples=120, deadline=None)
    @given(
        size=st.integers(1, 40),
        n=st.integers(0, 6),
        magnitude=st.sampled_from([1, 7, 2**12, 2**40]),
        lead=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    # Below and above the bound sum |base_i|^n < 2^63.
    @example(size=30, n=4, magnitude=7, lead=True, seed=1)
    @example(size=30, n=4, magnitude=2**40, lead=True, seed=1)
    def test_power_product_is_repeated_products(self, size, n, magnitude, lead, seed):
        rng = random.Random(seed)
        base = [
            rng.randint(-magnitude, magnitude) if rng.random() < 0.5 else 0
            for _ in range(size)
        ]
        powers = [([rng.randint(-5, 5) for _ in range(size)], 1)] if lead else []
        powers.append((base, n))
        expected = [1] + [0] * (size - 1)
        for factor, count in powers:
            for _ in range(count):
                expected = [int(x) for x in naive_mul(expected, factor, size)]
        # Whether each product's second operand is base itself: one entry
        # per factor of a _convolve_power call (square-and-multiply passes
        # one factor per product).
        calls = []
        real_power = qseries_module._convolve_power

        def spy_power(acc, b, count, prec):
            calls.extend([b is base] * count)
            return real_power(acc, b, count, prec)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qseries_module, "_convolve_power", spy_power)
            assert kernels._listed(_power_product(powers, size)) == expected
        if n > 1 and sum(map(abs, base)) ** n < 2**63:
            # One factor at a time: base goes in n times.
            assert calls == [True] * (n - (not lead))
        elif n > 2 or (lead and n == 2):
            # Square-and-multiply: some product takes a square of base.
            assert not all(calls)


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

    @pytest.mark.parametrize("e", [3, 5, 11])
    def test_divisor_power_sums_against_divisors(self, e):
        # Every n below 700, which includes prime powers up to 3^5, 5^4 and
        # 2^9 and products of three primes; sigma_11 leaves int64 at n = 53.
        size = 700
        expected = [0] + [
            sum(d**e for d in range(1, n + 1) if n % d == 0) for n in range(1, size)
        ]
        assert _divisor_power_sums(e, size) == expected
        assert all(type(v) is int for v in _divisor_power_sums(e, size))
        for small in (1, 2, 3, 4, 5):
            assert _divisor_power_sums(e, small) == expected[:small]

    @pytest.mark.parametrize(
        "e, size, ns, bound",
        [
            # sigma_5 passes 2^64 from n = 7086; sigma_11 passes 2^128 from 3184.
            (5, 8000, [7086, 7200, 7560, 7919, 7999], 2**64),
            (11, 4000, [3184, 3360, 3600, 3989, 3999], 2**128),
        ],
        ids=["sigma_5>2^64", "sigma_11>2^128"],
    )
    def test_divisor_power_sums_past_two_and_four_words(self, e, size, ns, bound):
        sigma = _divisor_power_sums(e, size)
        assert len(sigma) == size
        for n in ns:
            expected = sum(d**e for d in range(1, n + 1) if n % d == 0)
            assert expected >= bound
            assert sigma[n] == expected, n

    @pytest.mark.parametrize(
        "k, prec, array",
        [
            (4, 8000, True),
            # 504 sigma_5(n) < 2^63 for every n < 1776, not at n = 1776.
            (6, 1776, True),
            (6, 1777, False),  # byte rows
            (6, 8000, False),
            (12, 20, False),  # every numerator fits, over the denominator 691
        ],
    )
    def test_array_backed_exactly_when_every_numerator_fits(self, k, prec, array):
        # Over the denominator 1, the numerators past int64 keep the
        # sieve's byte rows.
        series = make_eisenstein(k, prec)
        stored = series.stored_num
        assert (isinstance(stored, np.ndarray) and stored.ndim == 1) == array
        assert (type(stored) is tuple) == (series.den != 1)
        fits = all(-(2**63) <= v < 2**63 for v in series.num)
        assert array == (series.den == 1 and fits)
        assert all(type(v) is int for v in series.num)
        factor = Fraction(-2 * k) / bernoulli_number(k)
        n = prec - 1
        sigma = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        assert series.coeff(n) == factor * sigma
        assert series.coeff(0) == 1

    def test_e6_past_int64(self):
        # sigma_5(n) passes 2^63 near n = 6000; the coefficients stay exact.
        n = 6720  # 2^6 * 3 * 5 * 7
        sigma = sum(d**5 for d in range(1, n + 1) if n % d == 0)
        assert sigma > 2**63
        assert make_eisenstein(6, n + 1).coeff(n) == -504 * sigma

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


# One JSON coefficient: a bare integer, or a string "p" or "p/q" with an
# optional sign, unreduced, with mixed denominators and up to 400 digits.
json_coeffs = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(
        lambda sign, p, q: sign + str(p) + ("" if q is None else f"/{q}"),
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.integers(0, 10**6), st.integers(10**399, 10**400 - 1)),
        st.one_of(st.none(), st.integers(1, 60)),
    ),
)
# Strings int() or a newline- or comma-joined check would take, and the
# other JSON values: booleans, floats, null.
trap_strings = st.sampled_from([
    " 5", "5 ", "\t7", "1_0", "\u0661", "\u0663/1", "5\n6", "5,6", "", "/",
    "5/", "/5", "1/-2", "1/+2", "+-1", "1/0", "-0/00", "1/2/3", "1.5", "1e5",
    "0x10",
])
any_json_coeff = st.one_of(
    json_coeffs, trap_strings, st.one_of(st.booleans(), st.floats(), st.none())
)
json_metas = st.sampled_from([
    None,
    FormMeta(24, 1, CharacterMod4.TRIVIAL),
    FormMeta(3, 4, CharacterMod4.CHI_MINUS4),
])


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(json_coeffs, min_size=1, max_size=30), json_metas)
    @example(["6/4", "-0/7", "+5", 7, "-3/12", "1" + "0" * 399 + "/9"], None)
    def test_reader_matches_fraction_oracle(self, coeffs, meta):
        d = {"coeffs": coeffs}
        if meta is not None:
            d.update(twice_weight=meta.twice_weight, level=meta.level,
                     character=meta.character.value)
        read = QSeries.from_json_dict(d)
        assert read == QSeries([Fraction(s) for s in coeffs], meta)
        again = QSeries.from_json_dict(json.loads(json.dumps(read.to_json_dict())))
        assert again == read

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.fractions(), min_size=1, max_size=30),
            st.lists(st.integers(-(10**60), 10**60), min_size=1, max_size=30),
        ),
        st.one_of(st.none(), form_metas),
    )
    @example([Fraction(7)], None)
    @example(
        [Fraction(-1, 6), Fraction(5, 4), 0], FormMeta(3, 4, CharacterMod4.CHI_MINUS4)
    )
    def test_series_file_text_is_json_dumps(self, coeffs, meta):
        # The CLI's writer; den > 1, negative values, no metadata and precision 1 included.
        series = QSeries(coeffs, meta)
        assert "".join(_series_parts(series)) == series_file_dumps(series)

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.lists(json_coeffs, min_size=1, max_size=12),
            st.lists(any_json_coeff, max_size=12),
        ),
        json_metas,
        st.sampled_from([None, 0, 1]),
    )
    @example(["5\n6"], None, None)
    @example(["0/1", "5,6"], None, 0)
    @example(["1/0", 0.5], None, 1)
    @example([True], None, None)
    @example([7, "1_0"], None, None)
    @example([Fraction(1, 2)], None, None)  # not JSON, though str() reads "1/2"
    def test_reader_matches_the_loop(self, coeffs, meta, excess):
        # excess: the "precision" field minus the coefficient count, or None
        # for no field.
        d = {"coeffs": coeffs}
        if meta is not None:
            d.update(twice_weight=meta.twice_weight, level=meta.level,
                     character=meta.character.value)
        if excess is not None:
            d["precision"] = len(coeffs) + excess
        try:
            expected = series_from_json_loop(d)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                QSeries.from_json_dict(d)
            assert str(caught.value) == str(exc)
        else:
            assert QSeries.from_json_dict(d) == expected


# Series of 1..40 coefficients: fractional, negative, and all-zero.
core_coeffs = st.one_of(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=60),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 40).map(lambda n: [Fraction(0)] * n),
)


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
    @given(core_coeffs, core_coeffs)
    def test_mul_matches_fraction_oracle(self, ca_list, cb_list):
        prec = min(len(ca_list), len(cb_list))
        out = series_mul(QSeries(ca_list), QSeries(cb_list))
        assert_equals_oracle(out, naive_mul(ca_list, cb_list, prec))

    @settings(max_examples=80, deadline=None)
    @given(core_coeffs, st.integers(0, 4))
    def test_apply_D_matches_fraction_oracle(self, coeffs, r):
        # The bracket scales its operands by n^r, the r-th derivation: with
        # g = 1 of weight 1, only D^r f * D^0 g is left, so [f, 1]_r is
        # Gamma(1 + r)/Gamma(1) D^r f = r! D^r f.
        one = QSeries([1] + [0] * (len(coeffs) - 1))
        out = rc_bracket(QSeries(coeffs), one, BracketParams(0, 2, r))
        assert_equals_oracle(out, [math.factorial(r) * c for c in apply_D(coeffs, r)])

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


# Numerators an int64 array can hold, both ends and zero drawn often.
_INT64_ENDS = [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)]
int64_values = st.one_of(
    st.sampled_from(_INT64_ENDS), st.integers(-(2**63), 2**63 - 1), st.integers(-9, 9)
)
int64_lists = st.lists(int64_values, min_size=1, max_size=14)


def _both_backings(values, den=1, meta=None):
    """(array-backed, tuple-backed) series of the same numerators."""
    return (_from_ints(np.array(values, dtype=np.int64), den, meta),
            _from_ints(values, den, meta))


# Numerators past int64 too: one and two words at their ends, several
# words, and zero drawn often.
_WIDE_ENDS = _INT64_ENDS + [2**63, -(2**63) - 1, 2**64, -(2**64),
                            2**127 - 1, -(2**127 - 1), -(2**127), 3**200, -(5**150)]
wide_values = st.one_of(
    st.sampled_from(_WIDE_ENDS), st.integers(-(2**127), 2**127 - 1),
    st.integers(-(2**400), 2**400), st.integers(-9, 9),
)
wide_lists = st.lists(wide_values, min_size=1, max_size=14)


def _rows_backing(values, den=1, meta=None, spare=0):
    """(rows-backed, tuple-backed) series of the same numerators: the rows
    the kernels' codec stores, two's complement at the widest value's
    bytes plus spare more."""
    width = max(((v if v >= 0 else ~v).bit_length() // 8 + 1 for v in values))
    width += spare
    raw = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    rows = np.frombuffer(raw, np.uint8).reshape(len(values), width).copy()
    return _from_ints(rows, den, meta), _from_ints(values, den, meta)


def _assert_backing_invisible(stored, plain, values, prec):
    """stored and the tuple-backed plain show the same series of values."""
    assert type(plain.stored_num) is tuple
    assert stored == plain and plain == stored
    assert hash(stored) == hash(plain)
    assert repr(stored) == repr(plain)
    assert stored.precision == plain.precision == len(values)
    assert stored.is_zero() == plain.is_zero() == (not any(values))
    assert stored.num == plain.num == tuple(values)
    assert all(type(v) is int for v in stored.num)
    for n in range(len(values)):
        assert stored.coeff(n) == plain.coeff(n)
        assert type(stored.coeff(n).numerator) is int
    assert stored.coeffs == plain.coeffs
    prec = min(prec, len(values))
    assert stored.truncate(prec) == plain.truncate(prec)
    assert type(stored.truncate(prec).stored_num) is type(stored.stored_num)
    assert "".join(_series_parts(stored)) == "".join(_series_parts(plain))
    assert stored.to_json_dict() == plain.to_json_dict()
    assert series_add(stored.coeffs, plain.coeffs, 3, -2) == series_add(
        plain.coeffs, plain.coeffs, 3, -2
    )
    for r in range(3):
        assert apply_D(stored.coeffs, r) == apply_D(plain.coeffs, r)


class TestStorage:
    """A series may keep a kernel's int64 array or byte rows; nothing it
    shows depends on it."""

    @settings(max_examples=150, deadline=None)
    @given(int64_lists, st.one_of(st.none(), form_metas), st.integers(1, 14))
    @example(_INT64_ENDS, None, 3)
    @example([0] * 9, None, 9)
    @example([-(2**63)], FormMeta(12, 4, CharacterMod4.TRIVIAL), 1)
    def test_the_backing_is_invisible(self, values, meta, prec):
        array, plain = _both_backings(values, 1, meta)
        assert isinstance(array.stored_num, np.ndarray)
        _assert_backing_invisible(array, plain, values, prec)

    @settings(max_examples=150, deadline=None)
    @given(wide_lists, st.one_of(st.none(), form_metas), st.integers(1, 14),
           st.integers(0, 3))
    @example(_WIDE_ENDS, None, 3, 0)
    @example([0] * 9, None, 9, 0)
    @example([-(2**127)], FormMeta(12, 4, CharacterMod4.TRIVIAL), 1, 2)
    @example([2**63, -(2**63)], None, 2, 0)
    def test_the_rows_backing_is_invisible(self, values, meta, prec, spare):
        rows, plain = _rows_backing(values, 1, meta, spare)
        assert rows.stored_num.dtype == np.uint8 and rows.stored_num.ndim == 2
        _assert_backing_invisible(rows, plain, values, prec)

    @settings(max_examples=100, deadline=None)
    @given(int64_lists, int64_lists, st.integers(0, 3), st.integers(1, 3))
    @example(_INT64_ENDS, _INT64_ENDS, 2, 1)
    @example([0] * 6, [-(2**63)] * 6, 1, 1)
    @example([2**63 - 1] * 12, [-(2**63)] * 12, 0, 2)  # the FFT route
    @example([2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1], 0, 1)  # Kronecker
    def test_products_and_brackets_do_not_see_the_backing(self, a, b, nu, den):
        # Slice-adds, the FFT and Kronecker read an array operand as they
        # read the Python ints, and the results are the same series.
        size = min(len(a), len(b))
        p = BracketParams(1, 3, nu)
        f, f_plain = _both_backings(a[:size], den)
        g, g_plain = _both_backings(b[:size])
        expected = rc_bracket(f_plain, g_plain, p)
        for x, y in [(f, g), (f, g_plain), (f_plain, g)]:
            assert rc_bracket(x, y, p) == expected
        product = series_mul(f, g)
        assert product == series_mul(f_plain, g_plain)
        assert list(product.coeffs) == naive_mul(f.coeffs, g.coeffs, size)

    @settings(max_examples=100, deadline=None)
    @given(wide_lists, wide_lists, st.integers(0, 3), st.integers(1, 3),
           st.integers(0, 3))
    @example([0] * 6, _WIDE_ENDS[:6], 1, 1, 0)
    @example([3, -9, 0, 7] * 3, [-5, 0, 2] * 4, 2, 1, 1)  # slice-adds
    @example([2**127 - 1] * 12, [-(2**127)] * 12, 3, 1, 0)
    @example([2**63, -(2**64)] * 6, [0, 5**150] * 6, 1, 2, 1)  # rows over 2
    @example([-(2**127), 2**127 - 1], [3**200, -(5**150)], 2, 1, 0)
    def test_products_and_brackets_do_not_see_rows(self, a, b, nu, den, spare):
        # Slice-adds (rows of values that fit, read as int64), the FFT and
        # Kronecker read rows operands as they read the Python ints, and
        # the results are the same series: each sum on the route the rule
        # picks, then with slice-adds refused (the FFT, or Kronecker by the
        # limb rule), then with the FFT refused too (Kronecker).
        size = min(len(a), len(b))
        p = BracketParams(1, 3, nu)
        f, f_plain = _rows_backing(a[:size], den, spare=spare)
        g, g_plain = _rows_backing(b[:size], spare=spare)
        expected = rc_bracket(f_plain, g_plain, p)
        expected_product = series_mul(f_plain, g_plain)
        assert list(expected_product.coeffs) == naive_mul(f.coeffs, g.coeffs, size)
        for refused in ([], ["_SLICE_LIMIT"], ["_SLICE_LIMIT", "_CERT_LIMIT"]):
            with pytest.MonkeyPatch.context() as patch:
                for limit in refused:
                    patch.setattr(kernels, limit, -1)
                for x, y in [(f, g), (f, g_plain), (f_plain, g)]:
                    assert rc_bracket(x, y, p) == expected
                assert series_mul(f, g) == expected_product

    def test_an_array_over_a_denominator_is_read_into_ints(self):
        array, plain = _both_backings([2, -4, 6], 4)
        assert type(array.stored_num) is tuple
        assert (array.num, array.den) == (plain.num, plain.den) == ((1, -2, 3), 2)

    def test_the_array_cannot_be_written(self):
        theta = make_theta(10)
        for series in (theta, theta.truncate(5), theta.with_meta(None),
                       series_mul(theta, theta)):
            assert isinstance(series.stored_num, np.ndarray)
            with pytest.raises(ValueError, match="read-only"):
                series.stored_num[1] = 7
            with pytest.raises(ValueError, match="read-only"):
                series.stored_num.fill(0)
        assert theta.num[:5] == (1, 2, 0, 0, 2)
        with pytest.raises(AttributeError):
            theta.stored_num = ()

    def test_a_truncated_series_is_stored_as_if_made_at_that_size(self):
        # E6 is rows from 1777 coefficients: cut below that, its values
        # fit an int64 array; cut above, rows as narrow as a new E6's.
        e6 = make_eisenstein(6, 8000)
        for prec in (1776, 1777, 5000):
            cut = e6.truncate(prec).stored_num
            made = make_eisenstein(6, prec).stored_num
            assert (cut.dtype, cut.shape) == (made.dtype, made.shape)
            assert np.array_equal(cut, made)
            assert not cut.flags.writeable

    def test_the_rows_cannot_be_written(self):
        # E6 past 1776 keeps the divisor sieve's rows, its bracket with E4
        # the FFT route's, and a bracket over 2^nu loses the 2^nu on them.
        e4, e6 = make_eisenstein(4, 2000), make_eisenstein(6, 2000)
        bracket = rc_bracket(e4, e6, BracketParams(8, 12, 3))
        assert bracket.den == 1
        for series in (e6, e6.truncate(1900), e6.with_meta(None), bracket,
                       _rows_backing([2**64, -1])[0]):
            assert series.stored_num.ndim == 2
            with pytest.raises(ValueError, match="read-only"):
                series.stored_num[1] = 7
            with pytest.raises(ValueError, match="read-only"):
                series.stored_num[1, 0] = 7
        assert e6.num[:3] == (1, -504, -16632)


class TestFormMeta:
    def test_half_integral_weight_needs_level_4(self):
        with pytest.raises(ValueError):
            FormMeta(1, 1, CharacterMod4.TRIVIAL)

    @pytest.mark.parametrize(
        "twice_weight, level, message",
        [
            (12, 0, "level must be positive"),
            (12, -4, "level must be positive"),
            (1, 2, "half-integral weight requires 4 [|] level"),
        ],
    )
    def test_every_construction_path_checks(self, twice_weight, level, message):
        good = FormMeta(3, 4, CharacterMod4.TRIVIAL)
        with pytest.raises(ValueError, match=message):
            FormMeta(twice_weight, level, CharacterMod4.TRIVIAL)
        with pytest.raises(ValueError, match=message):
            FormMeta(
                twice_weight=twice_weight, level=level, character=CharacterMod4.TRIVIAL
            )
        with pytest.raises(ValueError, match=message):
            good._replace(twice_weight=twice_weight, level=level)
        with pytest.raises(ValueError, match=message):
            FormMeta._make((twice_weight, level, CharacterMod4.TRIVIAL))

    def test_a_frozen_record(self):
        meta = FormMeta(3, 4, CharacterMod4.CHI_MINUS4)
        with pytest.raises(AttributeError):
            meta.level = 8
        assert meta._replace(level=8) == FormMeta(3, 8, CharacterMod4.CHI_MINUS4)
        assert meta == (3, 4, CharacterMod4.CHI_MINUS4)
        restored = pickle.loads(pickle.dumps(meta))
        assert (type(restored), restored) == (FormMeta, meta)

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
