"""Classical identities as exact oracles on the multi-pair FFT route.

S_16, S_18 and S_20 of SL_2(Z) are one-dimensional, spanned by Delta*E4,
Delta*E6 and Delta*E4^2, so a bracket of level-1 forms of those weights
is a fixed multiple of that product.  In this package's sign convention,
coefficient by coefficient:

    [E4, E6]_3 = 141120 Delta E4,
    [Delta, E4]_1 = 4 Delta E6,
    [Delta, E4]_2 = 20 Delta E4^2.

Each bracket is checked at a size where its one convolve_sum call runs on
the FFT route at the widest limb width its per-shift certificate allows,
against a product made by series_mul (one pair per call).  The route line
is asserted too, so that each check keeps meaning what it says when the
routing rules move.

Two more identities check the int64 path, where a series keeps the int64
array that slice-adds made it on: the Hecke relations of the weight-6
newform Delta_{4,6} = eta(2z)^12, built by the slice-add chain J * J,
J^2 * J, J^3 * J, and Jacobi's four-square theorem for theta^4, whose
second product reads an array-backed theta^2 on the FFT route.

The last ones check the Eisenstein series of the divisor sieve where its
numerators pass one and two int64 words: M_8 and M_10 are spanned by E8
and E10, so E8 = E4^2 and E10 = E4 E6, and 1728 Delta = E4^3 - E6^2; and
an eta quotient with a negative exponent, which Miller's recurrence
builds: F = eta(4z)^8 / eta(2z)^4 in M_2(Gamma_0(4)), with
eta(2z)^12 = theta^8 F - 16 theta^4 F^2.
"""

import logging
import math

import numpy as np
import pytest

from rcadjoint import kernels
from rcadjoint.bracket import BracketParams, rc_bracket, series_mul
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import make_eisenstein, make_eta_product, make_theta


def _route_lines(caplog, run):
    """run()'s result and the kernels' DEBUG lines it wrote."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        out = run()
    return out, [r.getMessage() for r in caplog.records if r.name == kernels.__name__]


def _odd_primes(limit):
    """The odd primes below limit, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(3, limit, 2) if sieve[p]]


@pytest.mark.parametrize(
    "f, g, nu, prec, factor, product, pairs, limb_bits",
    [
        ("E4", "E6", 3, 8000, 141120, ["delta", "E4"], 4, 14),
        ("delta", "E4", 1, 20000, 4, ["delta", "E6"], 2, 14),
        ("delta", "E4", 2, 2511, 20, ["delta", "E4", "E4"], 3, 15),
    ],
    ids=["[E4,E6]_3=141120*Delta*E4", "[Delta,E4]_1=4*Delta*E6",
         "[Delta,E4]_2=20*Delta*E4^2"],
)
def test_bracket_is_its_multiple_of_delta_times_a_form(
    caplog, f, g, nu, prec, factor, product, pairs, limb_bits
):
    forms = {name: catalog_get(name, prec) for name in {f, g, *product}}
    expected = forms[product[0]]
    for name in product[1:]:
        expected = series_mul(expected, forms[name])
    params = BracketParams(forms[f].meta.twice_weight, forms[g].meta.twice_weight, nu)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        bracket = rc_bracket(forms[f], forms[g], params)
    (line,) = [r.getMessage() for r in caplog.records if r.name == kernels.__name__]
    assert line.startswith(f"convolve_sum route=fft pairs={pairs} prec={prec} ")
    assert line.endswith(f" limb_bits={limb_bits}")
    assert bracket.precision == expected.precision == prec
    # bracket.num / bracket.den == factor * expected.num / expected.den
    assert [v * expected.den for v in bracket.num] == [
        factor * bracket.den * v for v in expected.num
    ]


def test_delta_4_6_hecke_relations_on_the_slice_add_chain(caplog):
    # Delta_{4,6} = q prod (1 - q^(2n))^12 spans S_6(Gamma_0(4)), so its
    # coefficients are Hecke eigenvalues: a(pn) = a(p) a(n) - p^5 a(n/p)
    # for every odd prime p, and a(2n) = 0 (the 2-part of the level).
    prec = 20011
    delta, lines = _route_lines(caplog, lambda: catalog_get("delta_4_6", prec))
    assert len(lines) == 3
    assert all(line.startswith("convolve_sum route=slices pairs=1 prec=10005 ")
               for line in lines)
    assert isinstance(delta.stored_num, np.ndarray)
    a = delta.num
    assert a[:4] == (0, 1, 0, -12) and not any(a[2::2])
    relations = 0
    for p in _odd_primes(prec):
        for n in range(1, (prec - 1) // p + 1):
            lower = a[n // p] if n % p == 0 else 0
            assert a[p * n] == a[p] * a[n] - p**5 * lower, (p, n)
            relations += 1
    assert relations == 40151


def test_theta_fourth_power_is_jacobis_four_square_count(caplog):
    # r_4(n) = 8 sigma(n) - 32 sigma(n/4) (Jacobi), with sigma(n/4) = 0
    # unless 4 | n: theta^4 = 1 + sum r_4(n) q^n.
    prec = 20000
    theta = catalog_get("theta", prec)
    square, lines = _route_lines(caplog, lambda: series_mul(theta, theta))
    (line,) = lines
    assert line.startswith(f"convolve_sum route=slices pairs=1 prec={prec} ")
    assert isinstance(square.stored_num, np.ndarray)
    fourth, lines = _route_lines(caplog, lambda: series_mul(square, square))
    (line,) = lines
    assert line.startswith(f"convolve_sum route=fft pairs=1 prec={prec} ")
    assert " limbs=1,1 " in line and line.endswith(" limb_bits=16")
    sigma = [0] * prec
    for d in range(1, prec):
        for n in range(d, prec, d):
            sigma[n] += d
    expected = [1] + [8 * sigma[n] - (32 * sigma[n // 4] if n % 4 == 0 else 0)
                      for n in range(1, prec)]
    assert (fourth.den, list(fourth.num)) == (1, expected)


@pytest.mark.parametrize(
    "k, weights, prec, limb_bits",
    [(8, (4, 4), 1000, 16), (10, (4, 6), 400, 16)],
    ids=["E8=E4^2", "E10=E4*E6"],
)
def test_eisenstein_series_past_int64_are_products(caplog, k, weights, prec, limb_bits):
    # 480 sigma_7(n) and -264 sigma_9(n) pass 2^64 from n = 566 and 139, so
    # E8 and E10 keep the sieve's byte rows, while E4 keeps its int64 array.
    series, lines = _route_lines(caplog, lambda: make_eisenstein(k, prec))
    assert lines == [] and series.stored_num.ndim == 2
    assert max(map(abs, series.num)) >= 2**64
    factors = [make_eisenstein(w, prec) for w in weights]
    assert isinstance(factors[0].stored_num, np.ndarray)
    product, lines = _route_lines(caplog, lambda: series_mul(*factors))
    (line,) = lines
    assert line.startswith(f"convolve_sum route=fft pairs=1 prec={prec} ")
    assert line.endswith(f" limb_bits={limb_bits}")
    assert product == series


def test_delta_is_the_discriminant_of_e4_and_e6(caplog):
    # 1728 Delta = E4^3 - E6^2 at a size where E4 keeps its int64 array and
    # sigma_5 passes 2^64 (from n = 7086), so E6 keeps the sieve's byte rows.
    prec = 8000
    e4, e6 = make_eisenstein(4, prec), make_eisenstein(6, prec)
    assert e4.stored_num.dtype == np.int64 and e6.stored_num.shape == (prec, 10)
    square, lines = _route_lines(caplog, lambda: series_mul(e4, e4))
    cube, more = _route_lines(caplog, lambda: series_mul(square, e4))
    lines += more
    e6_square, more = _route_lines(caplog, lambda: series_mul(e6, e6))
    lines += more
    assert [line.split(" len=")[0] for line in lines] == [
        f"convolve_sum route=fft pairs=1 prec={prec}"
    ] * 3
    assert all(line.endswith(" limb_bits=15") for line in lines)
    delta = catalog_get("delta", prec)
    assert cube.den == e6_square.den == delta.den == 1
    assert [a - b for a, b in zip(cube.num, e6_square.num)] == [
        1728 * v for v in delta.num
    ]


def test_eta_2z_twelfth_power_from_theta_and_an_eta_quotient(caplog):
    # M_6(Gamma_0(4)) holds theta^8 F, theta^4 F^2 and eta(2z)^12, with
    # F = eta(4z)^8 / eta(2z)^4 = sum_{n odd} sigma(n) q^n (its eta(2z)^-4
    # from Miller's recurrence, which no CLI command reaches), and
    # eta(2z)^12 = theta^8 F - 16 theta^4 F^2.  Every dense product is on
    # the FFT route at 16-bit limbs.
    prec = 2000
    f, lines = _route_lines(caplog, lambda: make_eta_product([(4, 8), (2, -4)], prec))
    assert f.num[:8] == (0, 1, 0, 4, 0, 6, 0, 8)
    theta = make_theta(prec)

    def products():
        square = series_mul(theta, theta)
        fourth = series_mul(square, square)
        return (series_mul(series_mul(fourth, fourth), f),
                series_mul(fourth, series_mul(f, f)))

    (first, second), more = _route_lines(caplog, products)
    lines += more
    dense = [line for line in lines if " route=slices " not in line]
    assert [line.split(" len=")[0] for line in dense] == [
        "convolve_sum route=fft pairs=1 prec=1999"
    ] + [f"convolve_sum route=fft pairs=1 prec={prec}"] * 5
    assert " limbs=3,27 " in dense[0]  # B^-4 to 1000 terms has 27 byte limbs
    assert all(line.endswith(" limb_bits=16") for line in dense)
    eta = catalog_get("delta_4_6", prec)
    assert first.den == second.den == eta.den == 1
    assert [a - 16 * b for a, b in zip(first.num, second.num)] == list(eta.num)
