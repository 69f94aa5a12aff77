import pytest

from rcadjoint.adjoint import adjoint_coefficients
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import QSeries, series_mul
from rcadjoint.verify import lambda_test, ratio_test


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

    def test_row_off_the_basis_support_fails(self):
        # a(2) = 0, so c(2) must vanish within err(2) + tolerance * |lambda|.
        basis = QSeries([0, 2, 0, 4])
        report = ratio_test(
            [(1, 10.0, 0.0), (2, 0.1, 0.0), (3, 20.0, 0.0)], basis, 1e-3
        )
        assert (report.lam, report.spread, report.stray) == (5.0, 0.0, (2,))
        assert not report.passed

    @pytest.mark.parametrize("c_2, err_2", [(0.004, 0.0), (0.5, 0.6), (0.0, 0.0)])
    def test_row_off_the_basis_support_within_budget_passes(self, c_2, err_2):
        basis = QSeries([0, 2, 0, 4])
        report = ratio_test(
            [(1, 10.0, 0.0), (2, c_2, err_2), (3, 20.0, 0.0)], basis, 1e-3
        )
        assert report.stray == ()
        assert report.passed

    def test_vanishing_c_at_a_basis_index_has_no_budget(self):
        # The zero map is proportional to every basis with lambda = 0, but
        # c(n) = 0 at a(n) != 0 has no relative budget: it fails.
        basis = QSeries([0, 1, -3, 0, 7])
        report = ratio_test([(n, 0.0, 0.0) for n in range(1, 5)], basis, 1e-3)
        assert (report.lam, report.spread) == (0.0, 0.0)
        assert report.error_budget == float("inf")
        assert not report.passed


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
        lam0 = lambda_test(d46, theta, 0, M=M).lam
        assert report.passed
        assert abs(lam0 - report.lam) <= abs(report.lam) * (
            report.error_budget + 1e-6
        )

    def test_lambda_nonnegative(self, sec5_rows):
        theta, d46, rows, M = sec5_rows
        report = ratio_test(rows, d46, tolerance=1e-3)
        assert report.lam > report.error_budget > 0

    def test_lambda_budget_is_its_row(self, sec5_rows):
        # h = [d46, theta]_0 is the product the rows were computed from.
        theta, d46, rows, M = sec5_rows
        n, c_1, err = rows[0]
        report = lambda_test(d46, theta, 0, M=M)
        assert (n, report.lam) == (1, c_1)
        assert report.error_budget == abs(err) / abs(c_1)
        assert report.passed and 0 < report.error_budget < 1e-2

    def test_synthetic_rescaled_basis(self, sec5_rows):
        theta, d46, rows, M = sec5_rows
        # basis with a(1) = 2: lambda halves
        doubled = QSeries([2 * c for c in d46.coeffs], d46.meta)
        lam = lambda_test(doubled, theta, 0, M=M).lam
        lam_ref = lambda_test(d46, theta, 0, M=M).lam
        # c(1) scales with the doubled input, a(1) = 2 divides it back out
        assert lam == pytest.approx(lam_ref, rel=1e-12)

    def test_integral_analog_positive(self):
        M, prec = 1200, 1211
        e4 = catalog_get("E4", prec)
        delta = catalog_get("delta", prec)
        lam = lambda_test(delta, e4, 0, M=M).lam
        assert lam > 0

    def test_zero_series_rejected(self):
        zero = QSeries([0] * 50)
        with pytest.raises(ValueError, match="zero series"):
            lambda_test(zero, catalog_get("theta", 50), 0, M=10).lam
