from fractions import Fraction

import mpmath
import pytest

from rcadjoint.adjoint import adjoint_coefficients
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import QSeries, series_mul
from rcadjoint.verify import (
    lambda_from_first_coefficient,
    ratio_test,
    rewritten_sum_report,
)


class TestRatioTest:
    def test_exact_proportional_data(self):
        basis = QSeries([0, 1, -3, 0, 7])
        c_list = [(n, 3.0 * float(basis.coeff(n)), 0.0) for n in range(1, 5)]
        report = ratio_test(c_list, basis, tolerance=1e-3)
        assert report.spread == 0.0
        assert report.lam == 3.0
        assert report.passed

    def test_corrupted_entry_fails(self):
        basis = QSeries([0, 1, -3, 0, 7])
        c_list = [(n, 3.0 * float(basis.coeff(n)), 0.0) for n in range(1, 5)]
        c_list[1] = (2, -7.5, 0.0)  # should be -9
        report = ratio_test(c_list, basis, tolerance=1e-3)
        assert not report.passed
        assert report.spread > 1e-3

    def test_all_zero_basis_rejected(self):
        basis = QSeries([0, 0, 0, 0])
        with pytest.raises(ValueError):
            ratio_test([(1, 1.0, 0.0), (2, 2.0, 0.0)], basis, 1e-3)

    def test_zero_indices_skipped(self):
        basis = QSeries([0, 2, 0, 4])
        c_list = [(1, 10.0, 0.0), (2, 123.0, 0.0), (3, 20.0, 0.0)]
        report = ratio_test(c_list, basis, 1e-3)
        assert len(report.ratios) == 2
        assert report.lam == 5.0


class TestLambdaEstimates:
    @pytest.fixture(scope="class")
    @staticmethod
    def sec5_rows():
        M, n_max = 2000, 10
        prec = n_max + M + 1
        theta = catalog_get("theta", prec)
        d46 = catalog_get("delta_4_6", prec)
        f = series_mul(theta, d46)
        rows = adjoint_coefficients(f, theta, 0, n_max, M)
        return theta, d46, rows, M

    def test_mean_and_first_coefficient_agree(self, sec5_rows):
        theta, d46, rows, M = sec5_rows
        report = ratio_test(rows, d46, tolerance=1e-3)
        lam0 = lambda_from_first_coefficient(d46, theta, 0, M=M)
        assert report.passed
        assert abs(lam0 - report.lam) <= abs(report.lam) * (
            report.error_budget + 1e-6
        )

    def test_lambda_nonnegative(self, sec5_rows):
        theta, d46, rows, M = sec5_rows
        report = ratio_test(rows, d46, tolerance=1e-3)
        assert report.lam > report.error_budget > 0

    def test_synthetic_rescaled_basis(self, sec5_rows):
        theta, d46, rows, M = sec5_rows
        # basis with a(1) = 2: lambda halves
        doubled = QSeries([2 * c for c in d46.coeffs], d46.meta)
        lam = lambda_from_first_coefficient(doubled, theta, 0, M=M)
        lam_ref = lambda_from_first_coefficient(d46, theta, 0, M=M)
        # c(1) scales with the doubled input, a(1) = 2 divides it back out
        assert lam == pytest.approx(lam_ref, rel=1e-12)

    def test_integral_analog_positive(self):
        M, prec = 1200, 1211
        e4 = catalog_get("E4", prec)
        delta = catalog_get("delta", prec)
        lam = lambda_from_first_coefficient(delta, e4, 0, M=M)
        assert lam > 0

    def test_zero_series_rejected(self):
        zero = QSeries([0] * 50)
        with pytest.raises(ValueError, match="zero series"):
            lambda_from_first_coefficient(zero, catalog_get("theta", 50), 0, M=10)


class TestRewrittenSum:
    def test_zero_terms(self):
        assert rewritten_sum_report(0) == (0.0, 0.0)

    def test_single_term_matches_manual(self):
        theta = catalog_get("theta", 3)
        d46 = catalog_get("delta_4_6", 3)
        a2 = series_mul(theta, d46).coeff(2)
        expected = float(a2) * 2 / 2 ** (11 / 2)
        faithful, _ = rewritten_sum_report(1)
        assert faithful == pytest.approx(expected, rel=1e-14)

    def test_faithful_sum_positive(self):
        faithful, rewritten = rewritten_sum_report(1000)
        assert faithful > 0
        # the rewritten squares-indexed sum is reported, not asserted
        assert isinstance(rewritten, float)

    def test_converges(self):
        f1, _ = rewritten_sum_report(500)
        f2, _ = rewritten_sum_report(1000)
        assert f1 == pytest.approx(f2, rel=1e-3)
