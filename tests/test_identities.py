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
"""

import logging

import pytest

from rcadjoint import kernels
from rcadjoint.bracket import BracketParams, rc_bracket, series_mul
from rcadjoint.forms import catalog_get


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
