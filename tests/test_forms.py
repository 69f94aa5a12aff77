import math

import pytest

from rcadjoint.forms import catalog_get, catalog_names

from oracles import delta_4_6_oracle


def test_theta_entry():
    t = catalog_get("theta", 5)
    assert [int(c) for c in t.coeffs] == [1, 2, 0, 0, 2]
    assert t.meta.twice_weight == 1


def test_delta_4_6_entry():
    d = catalog_get("delta_4_6", 3)
    assert [int(c) for c in d.coeffs] == [0, 1, 0]
    assert d.meta.twice_weight == 12
    assert d.meta.level == 4
    assert d.coeff(0) == 0


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown form"):
        catalog_get("nosuch", 5)


def test_catalog_names():
    assert set(catalog_names()) == {"theta", "delta", "delta_4_6", "E4", "E6"}


@pytest.mark.parametrize("name", ["theta", "delta", "delta_4_6", "E4", "E6"])
def test_precision_monotone(name):
    short = catalog_get(name, 20)
    long = catalog_get(name, 45)
    assert long.coeffs[:20] == short.coeffs


def test_cusp_flags():
    assert catalog_get("delta_4_6", 5).coeff(0) == 0
    assert catalog_get("delta", 5).coeff(0) == 0
    assert catalog_get("theta", 5).coeff(0) != 0
    assert catalog_get("E4", 5).coeff(0) != 0
    assert catalog_get("E6", 5).coeff(0) != 0


def hecke_multiplicative(f, m, n):
    """Does a(m) a(n) = a(mn) hold exactly?"""
    return f.coeff(m) * f.coeff(n) == f.coeff(m * n)


def test_delta_hecke_pair():
    delta = catalog_get("delta", 10)
    assert hecke_multiplicative(delta, 2, 3)
    assert delta.coeff(6) == (-24) * 252  # tau(6) = tau(2) tau(3)


def test_delta_4_6_hecke_odd_coprime():
    d = catalog_get("delta_4_6", 51)
    oracle = delta_4_6_oracle(51)
    assert list(d.coeffs) == oracle
    pairs = [
        (m, n)
        for m in range(3, 50, 2)
        for n in range(m + 2, 50, 2)
        if m * n <= 50 and math.gcd(m, n) == 1
    ]
    assert pairs  # sanity: the grid is nonempty
    assert all(hecke_multiplicative(d, m, n) for m, n in pairs)


def test_theta_not_normalized():
    # a(1) = 2, so even the trivial pair (1, 4) breaks the relation.
    theta = catalog_get("theta", 10)
    assert theta.coeff(1) == 2
    assert not hecke_multiplicative(theta, 1, 4)


def test_hecke_index_out_of_precision():
    delta = catalog_get("delta", 5)
    with pytest.raises(IndexError):
        hecke_multiplicative(delta, 2, 3)


def test_hecke_rejects_non_coprime():
    # The relation holds for coprime indices only: tau(2) tau(4) != tau(8).
    delta = catalog_get("delta", 40)
    assert not hecke_multiplicative(delta, 2, 4)
