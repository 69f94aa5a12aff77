import logging
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcadjoint import kernels, qseries
from rcadjoint.forms import catalog_get
from rcadjoint.qseries import make_eta_product

from oracles import naive_mul, summed_fft_error_bound


def rand_ints(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def _paired_rows(held):
    """The byte rows of held's pairs of operands, pair by pair."""
    rows = iter(kernels._dense_rows([op for pair in held for op in pair]))
    return list(zip(rows, rows))


def _terms(pairs, prec):
    """The pairs cut to prec, in the byte rows the dense routes read."""
    return _paired_rows(
        [(kernels.Scaled(a[:prec]), kernels.Scaled(b[:prec])) for a, b in pairs]
    )


def _nonzero(terms):
    """The pairs of terms whose operands both have a nonzero value."""
    return [(a, b) for a, b in terms if a.mags.shape[1] and b.mags.shape[1]]


def fft(a, b, prec):
    """convolve_fft on the one pair (a, b), as Python ints."""
    return kernels._listed(kernels.convolve_fft(_terms([(a, b)], prec), prec))


def kronecker(a, b, prec):
    """The Kronecker route on the one pair (a, b), as Python ints."""
    return kernels._listed(kernels._convolve_kronecker(_terms([(a, b)], prec), prec))


def slices(pairs, prec):
    """The slice-add route on the pairs, or None when its certificate fails."""
    held, nonzeros, _ = kernels._read_pairs(pairs, prec)
    terms, _ = kernels._slice_terms(held, nonzeros)
    return None if terms is None else kernels._convolve_slices(terms, prec).tolist()


def _slice_certificate(a, b):
    """sum |x_i| * max|y| for x the side of (a, b) with fewer nonzeros."""
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    return sum(map(abs, a)) * max(map(abs, b), default=0)


def fft_bound(a, b):
    """fft_error_bound of the one pair (a, b), both nonzero, on 8-bit
    balanced limbs, the narrowest width: below the limit, some width
    certifies."""
    ((rows_a, rows_b),) = _terms([(a, b)], max(len(a), len(b)))
    shapes = [(kernels._bit_shape(rows_a), kernels._bit_shape(rows_b))]
    return kernels.fft_error_bound(shapes, 8)


def test_dense_routes_agree_with_naive():
    rng = random.Random(7)
    a = rand_ints(rng, 60, -1000, 1000)
    b = rand_ints(rng, 60, -1000, 1000)
    expected = [int(x) for x in naive_mul(a, b, 60)]
    assert fft(a, b, 60) == expected
    assert kronecker(a, b, 60) == expected
    assert kernels.convolve_exact(a, b, 60) == expected
    assert fft([3, -1, 4], [2, 7, 0], 3) == [6, 19, 1]


def test_bigint_route_on_huge_coefficients():
    rng = random.Random(11)
    a = rand_ints(rng, 40, -(10**30), 10**30)
    b = rand_ints(rng, 40, -(10**30), 10**30)
    expected = [int(x) for x in naive_mul(a, b, 40)]
    assert fft(a, b, 40) == expected
    assert kronecker(a, b, 40) == expected
    assert kernels.convolve_exact(a, b, 40) == expected


def test_truncation():
    a = [1, 1, 1, 1]
    b = [1, 1]
    assert kernels.convolve_exact(a, b, 3) == [1, 2, 2]


def test_zero_factor():
    assert kernels.convolve_exact([0, 0], [1, 2], 2) == [0, 0]


def _signed_rows(vals, width):
    """vals as rows of width little-endian two's-complement bytes."""
    raw = b"".join(v.to_bytes(width, "little", signed=True) for v in vals)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(vals), width)


def test_byte_row_codec_round_trips():
    # The one int <-> byte-row conversion of both dense routes, at every
    # width from one byte to 40, on the extreme values of each width.
    rng = random.Random(3)
    for width in range(1, 41):
        top = 1 << (8 * width - 1)
        signed = [0, 1, -1, top - 1, -(top - 1), -top]
        signed += [rng.randrange(-top, top) for _ in range(4)]
        assert kernels._ints_from_rows(_signed_rows(signed, width)) == signed
        vals = signed + [2 * top - 1, -(2 * top - 1)]
        mags, neg = kernels._byte_rows(vals, width)
        assert mags.dtype == np.uint8 and mags.shape == (len(vals), width)
        assert [int.from_bytes(bytes(row), "little") for row in mags] == [
            abs(v) for v in vals
        ]
        assert neg.tolist() == [v < 0 for v in vals]
        # Rows that all fit in one 64-bit word but one, which needs a
        # second: the fit check must look at every row, not the first.
        for wide in (1 << 63, -(1 << 63) - 1) if width > 8 else ():
            batch = [rng.randrange(-(1 << 63), 1 << 63) for _ in range(9)]
            batch[5] = wide
            assert kernels._ints_from_rows(_signed_rows(batch, width)) == batch


@settings(max_examples=300, deadline=None)
@given(
    width=st.one_of(st.integers(1, 40), st.sampled_from([7, 8, 9])),
    narrow=st.booleans(),
    block=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_rows_read_as_the_signed_ints_of_their_bytes(width, narrow, block, data):
    # _ints_from_rows against one int.from_bytes per row, at widths 1-40:
    # narrow rows hold int64 values (read as one int64 array from 8 bytes
    # on), the others any value of their width; blocks of 1-3 rows put
    # block boundaries among the rows.
    bits = min(8 * width, 64 if narrow else 8 * width) - 1
    vals = data.draw(st.lists(st.integers(-(1 << bits), (1 << bits) - 1), max_size=12))
    rows = _signed_rows(vals, width)
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(kernels, "_JOIN_ROWS", block)
        out = kernels._ints_from_rows(rows)
    assert out == [int.from_bytes(bytes(row), "little", signed=True) for row in rows]
    assert out == vals


# The ends of one and of two int64 words.
_WORD_ENDS = [
    0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63),
    2**127 - 1, -(2**127 - 1), -(2**127),
]


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(8, 40),
    vals=st.lists(
        st.one_of(
            st.sampled_from(_WORD_ENDS),
            st.integers(-(2**63), 2**63 - 1),
            st.integers(-(2**127), 2**127 - 1),
            st.integers(-(2**319), 2**319 - 1),
        ),
        max_size=12,
    ),
)
@example(width=16, vals=_WORD_ENDS)
@example(width=12, vals=_WORD_ENDS)
@example(width=24, vals=_WORD_ENDS + [2**128, -(2**128) - 1])
@example(width=9, vals=[2**64, -(2**64) - 1, 2**63, -(2**63) - 1, -1])
def test_two_word_rows_read_as_the_signed_ints_of_their_bytes(width, vals):
    # _ints_from_rows against one int.from_bytes per row at widths 8-40, on
    # values that fit one int64 word (read as one int64 array), two words
    # (hi 2^64 + lo, rows of 9-15 bytes sign-extended to 16) or neither,
    # mixed in one call; a value too wide for the row wraps into it.
    top = 1 << (8 * width - 1)
    vals = [(v + top) % (2 * top) - top for v in vals]
    rows = _signed_rows(vals, width)
    out = kernels._ints_from_rows(rows)
    assert out == [int.from_bytes(bytes(row), "little", signed=True) for row in rows]
    assert out == vals and all(type(v) is int for v in out)
    one_word = all(-(2**63) <= v < 2**63 for v in vals)
    assert isinstance(kernels._read_rows(rows), np.ndarray) == one_word


# Magnitudes on both sides of the 8-bit limb boundary, of the 7-byte rows
# written as int64 (2**56 - 1 takes 7 limbs, 2**56 takes 8), of a 64-bit
# word (2**63 - 1 fits in a signed one, 2**63 does not), and one of 125
# limbs (10**300).
_BOUNDS = [
    1, 255, 256, 1000, 2**30, 2**40, 2**56 - 1, 2**56, 2**63 - 1, 2**63,
    10**30, 10**300,
]


@settings(max_examples=150, deadline=None)
@given(
    len_a=st.integers(1, 150),
    len_b=st.integers(1, 150),
    bound=st.sampled_from(_BOUNDS),
    every=st.sampled_from([1, 1, 1, 8]),
    prec=st.integers(1, 400),
    seed=st.integers(0, 2**32),
)
def test_every_route_returns_prec_coefficients(
    len_a, len_b, bound, every, prec, seed
):
    # Keeping every `every`-th coefficient of a makes the inputs sparse
    # enough for slice-adds; long dense inputs take the FFT or the
    # Kronecker route.  prec runs both below and above len_a + len_b - 1.
    # The first coefficients are -bound and bound, so the magnitude sits
    # exactly on the boundary under test.
    rng = random.Random(seed)
    a = [rng.randint(-bound, bound) if i % every == 0 else 0 for i in range(len_a)]
    b = rand_ints(rng, len_b, -bound, bound)
    a[0], b[0] = -bound, bound
    expected = [int(x) for x in naive_mul(a, b, prec)]
    exact = kernels.convolve_exact(a, b, prec)
    assert exact == expected
    assert all(type(v) is int for v in exact)
    assert kronecker(a, b, prec) == expected
    # At these sizes the rounding bound is far below the limit, so the FFT
    # route must certify and answer; a None here would hide a limb bug.
    assert fft_bound(a[:prec], b[:prec]) < kernels._CERT_LIMIT
    assert fft(a, b, prec) == expected
    # Slice-adds answer exactly when sum |x_i| * max|y| < 2^63, x the
    # side with fewer nonzeros, and refuse otherwise.
    assert slices([(a, b)], prec) == (
        expected if _slice_certificate(a[:prec], b[:prec]) < 2**63 else None
    )


_ROUTES = {
    "slices": "_convolve_slices",
    "fft": "convolve_fft",
    "kronecker": "_convolve_kronecker",
}


def _spy_routes(monkeypatch):
    """Record, in order, which route functions convolve_sum calls."""
    calls = []
    for route, name in _ROUTES.items():
        real = getattr(kernels, name)

        def spy(*args, _real=real, _route=route, **kwargs):
            calls.append(_route)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def _debug_lines(caplog, run):
    """The kernels' DEBUG lines that run() writes, and its result."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        out = run()
    return out, [r.getMessage() for r in caplog.records if r.name == kernels.__name__]


def _dense(bound, n=200, seed=3):
    rng = random.Random(seed)
    return rand_ints(rng, n, -bound, bound), rand_ints(rng, n, -bound, bound)


def _theta(n):
    """The theta series to n coefficients: 1, and 2 at every square."""
    return [1 if i == 0 else 2 if math.isqrt(i) ** 2 == i else 0 for i in range(n)]


@pytest.mark.parametrize(
    "a, b, routes",
    [
        # 2 nonzeros against 201 dense, and 20 against 400.
        ([1] + [0] * 199 + [2], [3] * 201, ["slices"]),
        (_theta(400), _dense(1000, n=400)[0], ["slices"]),
        # The FFT route's fixed cost keeps dense products up to prec 50 on
        # slice-adds; the 200 x 200 dense pair is past it.
        *[(*_dense(1000, n=n, seed=n), ["slices"]) for n in (5, 10, 20, 50)],
        (*_dense(1000), ["fft"]),
        # 5814 byte limbs at length 20: more than two per coefficient of
        # prec, so the limb rule sends the product to Kronecker without
        # trying the FFT.
        (*_dense(10**14000, n=20), ["kronecker"]),
        # At prec 40, 80 byte limbs stay on the FFT, and 81 do not.
        (*_dense(2**640 - 1, n=40), ["fft"]),
        (*_dense(2**648 - 1, n=40), ["kronecker"]),
    ],
    ids=["sparse", "slices", "dense-5", "dense-10", "dense-20", "dense-50", "fft",
         "kronecker", "limbs=2prec", "limbs=2prec+1"],
)
def test_convolve_exact_routes(monkeypatch, a, b, routes):
    expected = [int(x) for x in naive_mul(a, b, len(a))]
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, len(a)) == expected
    assert calls == routes


@pytest.mark.parametrize(
    "total, peak, routes",
    [
        # 2^63 - 1 = 73 * 126347562148695559: the certificate holds with
        # nothing to spare, and the top coefficients reach it exactly.
        (73, (2**63 - 1) // 73, ["slices"]),
        # 64 * 2^57 = 2^63: refused, and the dense routes are exact.
        (64, 2**57, ["fft"]),
    ],
    ids=["2^63-1", "2^63"],
)
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_slice_certificate_boundary(monkeypatch, total, peak, routes, sign):
    # 20 positive nonzeros summing to total, against 400 copies of
    # sign * peak: the certificate counts max|b| whatever its sign.
    a = [0] * 400
    for i in range(0, 380, 20):
        a[i] = 1
    a[380] = total - 19
    b = [sign * peak] * 400
    assert _slice_certificate(a, b) == total * peak in (2**63 - 1, 2**63)
    expected = [int(x) for x in naive_mul(a, b, 400)]
    assert expected[-1] == sign * total * peak
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, 400) == expected
    assert calls == routes


def test_all_zero_sparse_side_is_skipped_before_its_dense_side():
    # The second pair's sparser side is all zero and its other side is
    # beyond int64: it adds nothing to the certificate, and converting
    # that side would overflow.
    a, b = _theta(400), _dense(1000, n=400)[0]
    pairs = [(a, b), ([0] * 400, [2**64] * 400), ([-(2**70)] * 400, [0] * 400)]
    expected = [int(x) for x in naive_mul(a, b, 400)]
    assert slices(pairs, 400) == expected
    assert kernels.convolve_sum(pairs, 400) == expected


@pytest.mark.parametrize(
    "build, routes",
    [
        # The flagship's eta(2z)^12 = J(q^2)^4: J * J, J^2 * J and J^3 * J,
        # since sum |J_i|^4 < 2^63 at this size.
        (lambda: make_eta_product([(2, 12)], 20011), ["slices"] * 3),
        # dense_nu2's Delta = q eta(z)^24 = q J^8, by squaring: sum |J_i|^8
        # is past 2^63.
        (lambda: catalog_get("delta", 2511), ["slices", "fft", "fft"]),
    ],
    ids=["eta2-12", "delta"],
)
def test_workload_forms_construction_routes(monkeypatch, build, routes):
    calls = _spy_routes(monkeypatch)
    build()
    assert calls == routes


def _power_operands(size, lead, magnitude, every, seed):
    """A dense lead of values up to lead, and a base whose every every-th
    value is up to magnitude and the others 0."""
    rng = random.Random(seed)
    acc = rand_ints(rng, size, -lead, lead)
    base = [
        rng.randint(-magnitude, magnitude) if i % every == 0 else 0
        for i in range(size)
    ]
    return acc, base


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 40),
    n=st.integers(1, 5),
    lead=st.sampled_from([1, 2**12, 2**40, 2**56]),
    magnitude=st.sampled_from([1, 7, 2**12]),
    every=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
# The third of four products fails the int64 certificate: slice-adds,
# slice-adds, then the dense routes from Python ints.
@example(size=30, n=4, lead=2**52, magnitude=7, every=3, seed=0)
# A lead of 8 byte limbs at size 2, more than two per coefficient: its
# products take the limb rule's Kronecker route.
@example(size=2, n=2, lead=2**56, magnitude=2**12, every=1, seed=0)
def test_power_product_with_a_lead_is_repeated_products(
    size, n, lead, magnitude, every, seed
):
    acc, base = _power_operands(size, lead, magnitude, every, seed)
    expected, routes = acc, []
    for _ in range(n):
        limbs = max((abs(v).bit_length() + 7) // 8 for v in expected + base)
        if _slice_certificate(expected, base) < 2**63:
            routes.append("slices")
        else:  # the dense routes, Kronecker at once under the limb rule
            routes.append("kronecker" if limbs > 2 * size else "fft")
        expected = [int(x) for x in naive_mul(expected, base, size)]
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_routes(patch)
        out = qseries._power_product([(acc, 1), (base, n)], size)
    # The int64 array the last product's route made it on: slice-adds'
    # always, the dense routes' when every value fits in an int64.
    fits = all(-(2**63) <= v < 2**63 for v in expected)
    assert isinstance(out, np.ndarray) == (calls[-1] == "slices" or fits)
    if isinstance(out, np.ndarray):
        assert out.dtype == np.int64
        out = out.tolist()
    assert out == expected
    assert all(type(v) is int for v in out)
    if n == 1 or sum(map(abs, base)) ** n < 2**63:
        # One factor at a time, whatever the lead (n = 1 is one product
        # either way).  At these sizes the slice-add cost is below the
        # FFT's fixed cost, so a product takes slice-adds exactly when its
        # certificate holds, and a dense one is never refused by the FFT.
        assert calls == routes


@pytest.mark.parametrize(
    "acc, base, n, prec, routes",
    [
        # The flagship's J^4 at 20011: J * J, J^2 * J, J^3 * J.
        (qseries._jacobi(10006), qseries._jacobi(10006), 3, 10006, ["slices"] * 3),
        (*_power_operands(30, 2**52, 7, 3, 0), 4, 30,
         ["slices", "slices", "fft", "fft"]),
    ],
    ids=["jacobi", "fallback"],
)
def test_convolve_power_logs_the_lines_of_its_products(
    monkeypatch, caplog, acc, base, n, prec, routes
):
    # Each product logs the line convolve_exact logs for it, len= included
    # and limbs= on the dense routes' lines, and the routes are those of
    # the products.
    def chain():
        out = acc
        for _ in range(n):
            out = kernels.convolve_exact(out, base, prec)
        return out

    expected = _debug_lines(caplog, chain)
    calls = _spy_routes(monkeypatch)
    got = _debug_lines(caplog, lambda: kernels.convolve_power(acc, base, n, prec))
    assert got == expected
    assert calls == routes
    for line, route in zip(got[1], routes):
        assert f" len={prec},{prec} " in line
        assert (" limbs=" in line) == (route != "slices")


def test_int64_array_reads_ints_exactly():
    # Both ends of int64, and values halfway between two floats, which
    # the float64 cast must round to even as a direct float read does.
    values = [0, 1, -1, 2**53 + 1, 2**53 + 3, -(2**62 + 2**9), 2**62 + 3 * 2**9,
              2**63 - 1, -(2**63)]
    words = kernels.int64_array(values)
    assert words.tolist() == values
    assert words.astype(np.float64).tolist() == np.array(values, np.float64).tolist()
    rng = random.Random(7)
    wide = [rng.randint(-(2**63), 2**63 - 1) >> rng.randint(0, 62) for _ in range(2000)]
    assert (
        kernels.int64_array(wide).astype(np.float64).tolist()
        == np.array(wide, np.float64).tolist()
    )
    for beyond in (2**63, -(2**63) - 1):
        with pytest.raises(OverflowError):
            kernels.int64_array([1, beyond])


def test_kronecker_past_the_product_length(monkeypatch):
    # Mixed signs at magnitudes the limb rule sends to Kronecker, and prec
    # beyond len(a) + len(b): a negative top coefficient leaves
    # sign-extension bytes above the product, and those slots must read 0.
    a, b = _dense(10**27000, n=6, seed=5)
    a[-1], b[-1] = -(10**27000), 10**27000
    prec = len(a) + len(b) + 7
    expected = [int(x) for x in naive_mul(a, b, prec)]
    assert expected[len(a) + len(b) - 2] < 0
    assert kronecker(a, b, prec) == expected
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, prec) == expected
    assert calls == ["kronecker"]


def test_limb_rule_sends_a_short_wide_sum_to_kronecker(monkeypatch, caplog):
    # Two pairs at prec 3, one operand of 4001-digit coefficients (1661
    # byte limbs): the limb rule sends the sum to Kronecker, and the FFT is
    # never tried.  The line gives the largest byte-limb count against
    # twice prec.
    big = 10**4000 + 7
    wide = [0, big, -3]
    pairs = [(wide, wide), ([5, -1, 2], [1, 2, 3])]
    limbs = (big.bit_length() + 7) // 8
    assert limbs == 1661
    calls = _spy_routes(monkeypatch)
    out, lines = _debug_lines(caplog, lambda: kernels.convolve_sum(pairs, 3))
    assert out == _naive_sum(pairs, 3)
    assert calls == ["kronecker"]
    (line,) = lines
    assert line.startswith("convolve_sum route=kronecker pairs=2 prec=3 ")
    assert line.endswith(f" max_limbs={limbs} limit=6")
    assert " bound=" not in line and " limb_bits=" not in line


def test_fft_needs_only_its_balanced_limb_bound(monkeypatch, caplog):
    # 300 coefficients of 1000 bits, 125 byte limbs, fewer than prec.  The
    # limit is set between the bound on balanced 8-bit limbs (their maxima
    # sum to 128 * 125 + 1) and the bound the same theorem gives unsigned
    # byte limbs (255 each, so 255 * 125 in all), about 4 times higher: the
    # product runs on the FFT, at 8 bits, the only width within the limit,
    # and is exact.
    top = (1 << 1000) - 1
    a, b = _dense(top, n=300, seed=6)
    a[0] = b[0] = top
    bound = kernels.fft_error_bound([((300, 1000),) * 2], 8)
    unsigned = bound * (255 * 125 / (128 * 125 + 1)) ** 2
    limit = 2 * bound
    assert kernels.fft_error_bound([((300, 1000),) * 2], 9) > limit
    assert bound < limit < unsigned
    monkeypatch.setattr(kernels, "_CERT_LIMIT", limit)
    calls = _spy_routes(monkeypatch)
    out, (line,) = _debug_lines(caplog, lambda: kernels.convolve_exact(a, b, 300))
    assert out == _naive_sum([(a, b)], 300)
    assert calls == ["fft"]
    assert line.endswith(f" limbs=125,125 bound={bound} limit={limit} limb_bits=8")


@pytest.mark.parametrize("limit", ["_CERT_LIMIT", "_RESIDUAL_LIMIT"])
def test_failed_fft_check_falls_back_to_kronecker(monkeypatch, limit):
    a, b = _dense(10**6)
    expected = kernels.convolve_exact(a, b, 200)
    monkeypatch.setattr(kernels, limit, -1.0)
    assert fft(a, b, 200) is None
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, 200) == expected
    assert calls == ["fft", "kronecker"]


def test_residual_failure_after_the_last_pair_falls_back_to_kronecker(
    monkeypatch, caplog
):
    # Two operands of 2 byte limbs reaching 2^16 - 1 take 16-bit limbs,
    # two each (the top one for the balanced carry), so limb shifts 0, 1
    # and 2.  The pair's loop finishes shifts 0 and 1; shift 2, the last
    # inverse transform, is finished after it.  Half a unit of error there
    # must refuse the FFT.
    a, b = _dense(2**16 - 1)
    a[0] = b[0] = 2**16 - 1
    expected = [int(x) for x in naive_mul(a, b, 200)]
    irfft, calls = np.fft.irfft, []

    def perturbed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:  # shift 2
            out += 0.5
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        assert kernels.convolve_exact(a, b, 200) == expected
    assert len(calls) == 3
    (record,) = [r for r in caplog.records if r.name == kernels.__name__]
    assert "route=kronecker" in record.getMessage()
    assert "limbs=2,2" in record.getMessage()
    assert record.getMessage().endswith(" limit=0.25 limb_bits=16")


def test_fft_sum_keeps_one_pairs_byte_rows_alive(monkeypatch):
    # The FFT route reads the pairs in order and releases each pair's byte
    # rows once their limb rows are transformed.  The first inverse
    # transform comes in the last of four pairs: by then the rows of the
    # first three are gone, and only the last pair's are alive.
    pairs = [_dense(10**9, seed=seed) for seed in range(4)]
    expected = _naive_sum(pairs, 200)
    dense_rows, refs = kernels._dense_rows, []

    def recording(ops, *args):
        rows = dense_rows(ops, *args)
        refs.extend(weakref.ref(op.mags) for op in rows)
        return rows

    irfft, alive = np.fft.irfft, []

    def checking(*args, **kwargs):
        if not alive:
            alive.extend(ref() is not None for ref in refs)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(kernels, "_dense_rows", recording)
    monkeypatch.setattr(np.fft, "irfft", checking)
    assert kernels.convolve_sum(pairs, 200) == expected
    assert alive == [False] * 6 + [True] * 2


def test_route_is_logged_at_debug_only(caplog, capsys):
    a, b = _dense(1000)
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        kernels.convolve_exact(a, b, 200)
    (record,) = [r for r in caplog.records if r.name == kernels.__name__]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "route=fft" in message
    assert "len=200,200" in message
    assert "limbs=2,2" in message
    assert "bound=" in message
    assert capsys.readouterr().out == ""
    # Slice-adds name the sparser side's nonzero count and the int64
    # certificate, 39 * max|b|, against 2^63.
    a, b = _theta(400), _dense(1000, n=400)[0]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        kernels.convolve_exact(a, b, 400)
    (record,) = [r for r in caplog.records if r.name == kernels.__name__]
    message = record.getMessage()
    assert "route=slices" in message
    assert "nnz=20" in message
    assert f"bound={39 * max(map(abs, b))} limit=2^63" in message
    # A Scaled operand logs the line its int list logs.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        kernels.convolve_exact(kernels.Scaled(a, 1, 0), b, 400)
    assert [r.getMessage() for r in caplog.records if r.name == kernels.__name__] == [
        message
    ]
    # Refused by that certificate (39 * 2^63 >= 2^63), the dense line
    # gives its bit length before the FFT bound: 2^68 < 39 * 2^63 < 2^69.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        kernels.convolve_exact(a, [2**63] * 400, 400)
    (record,) = [r for r in caplog.records if r.name == kernels.__name__]
    message = record.getMessage()
    assert "route=fft" in message
    assert "slice_bound_bits=69 bound=" in message
    assert capsys.readouterr().out == ""


def _operand(rng, length, bound, kind):
    """length ints up to bound in magnitude: every one ("dense"), every
    ninth ("sparse") or none ("zero") nonzero; the first is bound."""
    if kind == "zero":
        return [0] * length
    every = 9 if kind == "sparse" else 1
    vals = [rng.randint(-bound, bound) if i % every == 0 else 0 for i in range(length)]
    vals[0] = bound
    return vals


_OPERAND = st.tuples(
    st.integers(1, 120),
    st.sampled_from(_BOUNDS),
    st.sampled_from(["dense", "dense", "sparse", "zero"]),
)


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(st.tuples(_OPERAND, _OPERAND), min_size=1, max_size=4),
    prec=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_convolve_sum_is_the_sum_of_naive_products(shapes, prec, seed):
    # 1-4 pairs of sparse, dense and all-zero operands, mixed freely; prec
    # runs both below and above the longest product (up to 239 terms).
    rng = random.Random(seed)
    pairs = [(_operand(rng, *x), _operand(rng, *y)) for x, y in shapes]
    expected = [
        int(sum(column))
        for column in zip(*(naive_mul(a, b, prec) for a, b in pairs))
    ]
    out = kernels.convolve_sum(pairs, prec)
    assert out == expected
    assert all(type(v) is int for v in out)
    assert kernels.convolve_sum(iter(pairs), prec) == expected
    if len(pairs) == 1:
        assert kernels.convolve_exact(*pairs[0], prec) == expected
    # At these sizes the summed rounding bound is far below the limit, so
    # the fused FFT route must certify and answer, whichever route the
    # density picks.
    out = kernels.convolve_fft(_nonzero(_terms(pairs, prec)), prec)
    assert kernels._listed(out) == expected
    # Slice-adds answer exactly whenever the summed certificate holds.
    cert = sum(_slice_certificate(a[:prec], b[:prec]) for a, b in pairs)
    assert slices(pairs, prec) == (expected if cert < 2**63 else None)
    # With the FFT route refused up front or after its residual check,
    # the Kronecker sum answers with the same list.
    for limit in ("_CERT_LIMIT", "_RESIDUAL_LIMIT"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, limit, -1.0)
            assert kernels.convolve_sum(pairs, prec) == expected


@pytest.mark.parametrize("limit", [None, "_CERT_LIMIT", "_RESIDUAL_LIMIT"])
def test_dense_sum_takes_one_route(monkeypatch, limit):
    # Three dense pairs of different lengths and limb counts, one of them
    # with an all-zero operand, are summed by one FFT route call (or one
    # Kronecker call after it refuses), not pair by pair.
    rng = random.Random(9)
    pairs = [
        (rand_ints(rng, 150, -(10**6), 10**6), rand_ints(rng, 90, -(10**20), 10**20)),
        (rand_ints(rng, 60, -1000, 1000), rand_ints(rng, 200, -(2**63), 2**63)),
        ([0] * 200, rand_ints(rng, 200, -5, 5)),
    ]
    expected = [
        int(sum(column)) for column in zip(*(naive_mul(a, b, 230) for a, b in pairs))
    ]
    if limit is not None:
        monkeypatch.setattr(kernels, limit, -1.0)
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_sum(pairs, 230) == expected
    assert calls == (["fft"] if limit is None else ["fft", "kronecker"])


def test_sum_route_is_logged_once_with_its_pair_count(caplog):
    a, b = _dense(1000)
    with caplog.at_level(logging.DEBUG, logger=kernels.__name__):
        kernels.convolve_sum([(a, b), (b, a)], 200)
    (record,) = [r for r in caplog.records if r.name == kernels.__name__]
    message = record.getMessage()
    assert "route=fft" in message
    assert "pairs=2" in message
    assert "len=" not in message
    assert "bound=" in message and "limit=" in message


def test_summed_bound_uses_the_shared_transform_length():
    # Both pairs are transformed at the long pair's length, so the short
    # pair's norms count at that length's growth factor too.  On 8-bit
    # limbs, bit lengths 23, 15 and 7 have 3, 2 and 1 limbs, each at most
    # 2^7: the short pair's limb products meet 1, 2, 2 and 1 at a time in
    # its four shifts, and the long pair's one product lies in shift 0,
    # the largest, with one of the short pair's.  The summed bound counts
    # all 3 * 2 of them there.
    short, long = ((10, 23), (10, 15)), ((5000, 7), (5000, 7))
    both = kernels.fft_error_bound([short, long], 8)
    alone = kernels.fft_error_bound([long], 8)
    summed = summed_fft_error_bound([short, long], 8)
    assert both == pytest.approx(summed * (10 + 5000) / (3 * 2 * 10 + 5000), rel=1e-12)
    assert alone == pytest.approx(summed_fft_error_bound([long], 8), rel=1e-12)
    assert both > kernels.fft_error_bound([short], 8) + alone


def _boundary_ints(rng, length, bits):
    """length ints whose largest magnitude has exactly bits bits: the first
    is +-(2^bits - 1), the next +-2^(bits - 1), the rest of either sign."""
    top = (1 << bits) - 1
    vals = [rng.randint(-top, top) for _ in range(length)]
    vals[:2] = [rng.choice((top, -top)), rng.choice((1, -1)) << bits - 1][:length]
    return vals


# A bit length a limb boundary of some width in 8-16 away: 8 q - 1, 8 q,
# 8 q + 1 for 8-bit limbs, and so on.
_BOUNDARY_BITS = st.builds(
    lambda width, q, offset: max(width * q + offset, 1),
    st.integers(8, 16), st.integers(0, 9), st.sampled_from([-1, 0, 1]),
)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(8, 16),
    magnitude=_BOUNDARY_BITS,
    length=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
# 2^63 - 1 in 16-bit limbs: 63 // 16 + 1 = 4 limbs hold it only because the
# top limb may reach +2^15, the balanced carry.
@example(bits=16, magnitude=63, length=3, seed=0)
def test_balanced_limbs_recombine_to_the_ints(bits, magnitude, length, seed):
    # Each limb row of a balanced split is within the limb bound, the top
    # one within the bound fft_error_bound gives it, and the limbs add up,
    # at their weights, to the ints.
    rng = random.Random(seed)
    vals = _boundary_ints(rng, length, magnitude)
    half = 1 << bits - 1
    if length > 2:  # every limb below the top one at +-2^(bits-1)
        vals[2] = rng.choice((1, -1)) * sum(
            half << bits * i for i in range(magnitude // bits)
        )
    (rows,) = kernels._dense_rows([kernels.Scaled(vals)])
    assert kernels._bit_shape(rows) == (length, magnitude)
    limbs = [
        [int(d) for d in row]
        for row in kernels._limb_rows(rows, bits, np.empty(length))
    ]
    assert len(limbs) == magnitude // bits + 1
    assert all(abs(d) <= half for row in limbs for d in row)
    assert all(abs(d) <= min(half, 1 << magnitude % bits) for d in limbs[-1])
    recombined = [
        sum(d << bits * i for i, d in enumerate(column)) for column in zip(*limbs)
    ]
    assert recombined == vals
    # Each limb row stays within the maximum fft_error_bound assumes for it
    # (_limb_maxima), and reaches it once 2^B - 1 has a limb below its top
    # one (its top limb is then 2^(B mod bits)).
    assumed = kernels._limb_maxima(magnitude, bits).tolist()
    reached = [max(map(abs, row)) for row in limbs]
    assert len(assumed) == len(reached)
    assert all(r <= m for r, m in zip(reached, assumed))
    if magnitude >= bits and length > 2:
        assert reached == assumed


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(*[st.tuples(st.integers(1, 50), _BOUNDARY_BITS)] * 2),
        min_size=1, max_size=3,
    ),
    prec=st.integers(1, 120),
    seed=st.integers(0, 2**32),
)
def test_every_limb_width_is_the_naive_sum(shapes, prec, seed):
    # The FFT sum forced to each width in 8-16 whose bound holds is the
    # naive sum.  convolve_fft picks the widest of them.
    rng = random.Random(seed)
    pairs = [
        (_boundary_ints(rng, *x), _boundary_ints(rng, *y)) for x, y in shapes
    ]
    expected = _naive_sum(pairs, prec)
    terms = _nonzero(_terms(pairs, prec))
    bit_shapes = [(kernels._bit_shape(a), kernels._bit_shape(b)) for a, b in terms]
    certified = [
        bits for bits in range(8, 17)
        if kernels.fft_error_bound(bit_shapes, bits) < kernels._CERT_LIMIT
    ]
    assert 8 in certified
    for bits in certified:
        assert kernels._listed(kernels._fft_sum(list(terms), prec, bits)) == expected
    widest = max(certified)
    assert kernels._limb_width(terms) == (
        widest, kernels.fft_error_bound(bit_shapes, widest)
    )
    assert kernels._listed(kernels.convolve_fft(terms, prec)) == expected


_SHAPE = st.tuples(st.integers(1, 5000), st.integers(1, 400))


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(st.tuples(_SHAPE, _SHAPE), min_size=1, max_size=4),
    bits=st.integers(8, 16),
)
def test_shift_bound_is_within_the_summed_bound(shapes, bits):
    # Each shift's limb products are some of the products that the summed
    # bound counts in every shift, and the largest shift holds at least
    # their average over the shifts; with one limb per operand every
    # product lies in shift 0, and the two bounds are one.
    bound = kernels.fft_error_bound(shapes, bits)
    summed = summed_fft_error_bound(shapes, bits)
    shifts = max(a // bits + b // bits + 1 for (_, a), (_, b) in shapes)
    assert summed / shifts * (1 - 1e-12) <= bound <= summed * (1 + 1e-12)
    one_limb = [
        ((len_a, min(a, bits - 1)), (len_b, min(b, bits - 1)))
        for (len_a, a), (len_b, b) in shapes
    ]
    assert kernels.fft_error_bound(one_limb, bits) == pytest.approx(
        summed_fft_error_bound(one_limb, bits), rel=1e-12
    )


def test_worst_case_limbs_at_a_width_only_the_shift_bound_admits(monkeypatch, caplog):
    # 500 coefficients whose 20 balanced 16-bit limbs are all 2^15, of one
    # sign per operand, so that every limb product of a shift adds up: the
    # per-shift bound admits 16-bit limbs, where the summed bound, which
    # counts all 21 x 21 limb pairs in every shift, is over 1/4 (it admits
    # 13 bits).  The sum runs on the FFT at 16 bits and is exact.
    top = sum(1 << 15 + 16 * i for i in range(20))
    a, b = [top] * 500, [-top] * 500
    ((rows_a, rows_b),) = _terms([(a, b)], 500)
    assert all(
        np.abs(row).tolist() == [1 << 15] * 500
        for rows in (rows_a, rows_b)
        for row in kernels._limb_rows(rows, 16, np.empty(500))
        if row.any()
    )
    shapes = [(kernels._bit_shape(rows_a), kernels._bit_shape(rows_b))]
    bound = kernels.fft_error_bound(shapes, 16)
    assert bound < kernels._CERT_LIMIT <= summed_fft_error_bound(shapes, 16)
    calls = _spy_routes(monkeypatch)
    out, (line,) = _debug_lines(caplog, lambda: kernels.convolve_exact(a, b, 500))
    assert out == _naive_sum([(a, b)], 500)
    assert calls == ["fft"]
    assert line.endswith(f" limbs=40,40 bound={bound} limit=0.25 limb_bits=16")


def test_kronecker_slots_hold_the_whole_sum():
    # 1000 products of 2^23 - 1 with itself: each fits a 7-byte slot, their
    # sum (about 2^56) does not; the slot width comes from the whole sum.
    m = (1 << 23) - 1
    pairs = [([m, -m], [m, m])] * 1000
    expected = [1000 * m * m, 0]
    assert kernels._listed(kernels._convolve_kronecker(_terms(pairs, 2), 2)) == expected
    assert kernels.convolve_sum(pairs, 2) == expected


def _naive_sum(pairs, prec):
    """The sum over pairs of their schoolbook truncated products, in ints."""
    out = [0] * prec
    for a, b in pairs:
        for i, x in enumerate(a[:prec]):
            if x:
                for j, y in enumerate(b[: prec - i]):
                    out[i + j] += x * y
    return out


_SCALED_OPERAND = st.tuples(
    st.integers(1, 300),  # length
    # Bits of the base values; None aims the scaled values at 2^55-2^64,
    # around the 7/8-byte boundary of the codec.
    st.sampled_from([0, 1, 8, 55, 56, 63, 64, 100, 200, None, None]),
    st.integers(0, 8),  # r
    st.sampled_from([0, 1, 2, 31, 32, 33, 55, 56, 75, 200]),  # bits of |w|
    st.sampled_from([1, -1]),  # sign of w
    st.sampled_from(["dense", "dense", "sparse", "list"]),
)


def _scaled_operand(rng, length, bits, r, w_bits, w_sign, kind):
    """A Scaled operand (or, for kind "list", its int list) with mixed
    signs and zeros; every ninth base value may be nonzero if sparse."""
    w = w_sign * (rng.randint(1 << (w_bits - 1), (1 << w_bits) - 1) if w_bits else 0)
    if bits is None:
        scale = max(abs(w) * (length - 1) ** r, 1)
        bound = max((1 << rng.randint(55, 64)) // scale, 1)
    else:
        bound = (1 << bits) - 1 if bits else 0
    every = 9 if kind == "sparse" else 1
    values = [
        rng.choice((0, rng.randint(-bound, bound), bound, -bound))
        if i % every == 0 else 0
        for i in range(length)
    ]
    op = kernels.Scaled(values, w, r)
    return kernels._ints(op) if kind == "list" else op


def _as_ints(op):
    """An operand as its int list."""
    return kernels._ints(op) if isinstance(op, kernels.Scaled) else op


@settings(max_examples=200, deadline=None)
@given(
    base=_SCALED_OPERAND,
    scales=st.lists(st.tuples(st.integers(0, 8), st.integers(-(2**200), 2**200)),
                    min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_scaled_rows_are_the_rows_of_the_scaled_ints(base, scales, seed):
    # Several scales of one base list in one call share its rows and its
    # powers; each must equal the byte rows of its own int list.
    rng = random.Random(seed)
    values = _scaled_operand(rng, *base[:-1], "dense").values
    ops = [kernels.Scaled(values, w, r) for r, w in scales]
    for op, rows in zip(ops, kernels._dense_rows(ops)):
        ints = kernels._ints(op)
        assert ints == [op.w * n**op.r * v for n, v in enumerate(values)]
        # As many limbs as the largest magnitude needs: none when all are 0.
        limbs = (max(map(abs, ints)).bit_length() + 7) // 8
        mags, neg = kernels._byte_rows(ints, limbs)
        assert rows.mags.dtype == np.uint8
        assert rows.mags.shape == mags.shape
        assert rows.mags.tobytes() == mags.tobytes()
        assert rows.neg.tolist() == neg.tolist()


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(_SCALED_OPERAND, _SCALED_OPERAND), min_size=1, max_size=4
    ),
    shared=st.booleans(),
    prec=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_convolve_sum_of_scaled_operands_is_the_naive_sum(shapes, shared, prec, seed):
    # Scaled operands mixed with int lists, and (shared) every pair's
    # first operand a different scale of one base list.
    rng = random.Random(seed)
    pairs = [
        (_scaled_operand(rng, *x), _scaled_operand(rng, *y)) for x, y in shapes
    ]
    scaled = [i for i, (a, _) in enumerate(pairs) if isinstance(a, kernels.Scaled)]
    if shared and scaled:
        values = pairs[scaled[0]][0].values
        for i in scaled:
            pairs[i] = (pairs[i][0]._replace(values=values), pairs[i][1])
    ints = [(_as_ints(a), _as_ints(b)) for a, b in pairs]
    expected = _naive_sum(ints, prec)
    out = kernels.convolve_sum(pairs, prec)
    assert out == expected
    assert all(type(v) is int for v in out)
    assert kernels.convolve_sum(iter(pairs), prec) == expected
    # The nonzero counts, the slice-add cost and every operand's byte-row
    # shape are those of the int lists, so the route, the FFT bound and
    # the DEBUG line are too.
    held, nonzeros, cost = kernels._read_pairs(pairs, prec)
    int_held, int_nonzeros, int_cost = kernels._read_pairs(ints, prec)
    assert (nonzeros, cost) == (int_nonzeros, int_cost)
    rows, int_rows = _paired_rows(held), _paired_rows(int_held)
    assert [(a.mags.shape, b.mags.shape) for a, b in rows] == [
        (a.mags.shape, b.mags.shape) for a, b in int_rows
    ]
    # Every route on these operands: both dense routes on the scaled
    # rows, slice-adds wherever their certificate holds, and the
    # Kronecker route through convolve_sum with the FFT refused.
    terms = _nonzero(rows)
    assert kernels._listed(kernels.convolve_fft(list(terms), prec)) == expected
    assert kernels._listed(kernels._convolve_kronecker(terms, prec)) == expected
    cert = sum(_slice_certificate(a[:prec], b[:prec]) for a, b in ints)
    assert slices(pairs, prec) == (expected if cert < 2**63 else None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_CERT_LIMIT", -1.0)
        assert kernels.convolve_sum(pairs, prec) == expected


def test_scaled_operands_take_every_route(monkeypatch):
    # [theta, theta]-like sparse pairs, a sparse base against a dense one,
    # and dense bases, all given as Scaled: each takes the route its int
    # lists take, and the FFT refused sends the dense sum to Kronecker.
    rng = random.Random(4)
    dense = rand_ints(rng, 400, -1000, 1000)
    cases = [
        (_theta(400), _theta(400), "slices"),
        (_theta(400), dense, "slices"),
        (dense, rand_ints(rng, 400, -(2**60), 2**60), "fft"),
    ]
    for f, g, route in cases:
        pairs = [(kernels.Scaled(f, 5 - 2 * r, r), kernels.Scaled(g, 1, 2 - r))
                 for r in range(3)]
        ints = [(kernels._ints(a), kernels._ints(b)) for a, b in pairs]
        expected = _naive_sum(ints, 400)
        calls = _spy_routes(monkeypatch)
        assert kernels.convolve_sum(pairs, 400) == expected
        assert calls == [route]
        if route == "fft":
            monkeypatch.setattr(kernels, "_CERT_LIMIT", -1.0)
            calls = _spy_routes(monkeypatch)
            assert kernels.convolve_sum(pairs, 400) == expected
            assert calls == ["fft", "kronecker"]


def test_scaled_nonzero_count_at_the_slice_limit(monkeypatch):
    # n^r vanishes at n = 0 for r > 0: a base of length 1024 with 257
    # nonzeros, one at n = 0, scales to 256 against the 256 nonzeros of a
    # 512-long b.  The sides tie, so the first is the sparser, and the
    # cost 256 * (512 + 1024) is exactly slice-adds' limit
    # 32 * 1024 * log2(1024) + 2^16.  With r = 0, b is the sparser and
    # 256 * (1024 + 1024) is over it.
    values = [3] + [0] * 1023
    for i in range(1, 1024, 4):
        values[i] = -7
    b = list(range(1, 257)) + [0] * 256
    assert kernels._FFT_OVERHEAD == 2**16
    assert 256 * (512 + 1024) == 32 * 1024 * math.log2(1024) + 2**16
    for r, cost, route in ((1, 256 * 1536, "slices"), (0, 256 * 2048, "fft")):
        pair = [(kernels.Scaled(values, 2, r), b)]
        ints = [(kernels._ints(pair[0][0]), b)]
        for pairs in (pair, ints):
            assert kernels._read_pairs(pairs, 1024)[2] == cost
            calls = _spy_routes(monkeypatch)
            assert kernels.convolve_sum(pairs, 1024) == _naive_sum(ints, 1024)
            assert calls == [route]


def _grouped_operand(rng, length, pool):
    """length ints, about a third of them nonzero, drawn from pool."""
    return [rng.choice(pool) if rng.random() < 0.35 else 0 for _ in range(length)]


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(1, 150),
    prec=st.integers(1, 200),
    big=st.sampled_from([3, 2**20, 2**40]),
    seed=st.integers(0, 2**32),
)
def test_grouped_slice_adds_are_the_naive_sum(length, prec, big, seed):
    # Repeated values of +-1, 2 and a large value on the sparser side:
    # each repeated value's slices are summed before one multiply.
    rng = random.Random(seed)
    pool = [1, -1, 2, 2, -2, big, -big]
    pairs = [
        (_grouped_operand(rng, length, pool), rand_ints(rng, length, -big, big)),
        (_theta(length), rand_ints(rng, length, -1000, 1000)),
    ]
    expected = _naive_sum(pairs, prec)
    cert = sum(_slice_certificate(a[:prec], b[:prec]) for a, b in pairs)
    assert slices(pairs, prec) == (expected if cert < 2**63 else None)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_grouped_slice_adds_at_the_certificate_boundary(monkeypatch, sign):
    # 73 copies of sign * 7 against 400 copies of peak, with
    # 7 * 73 * peak = 2^63 - 1: the group's scratch sum reaches 73 * peak
    # and its one multiply gives the top coefficient 2^63 - 1 exactly.
    peak = (2**63 - 1) // (7 * 73)
    assert 7 * 73 * peak == 2**63 - 1
    a = [0] * 400
    for i in range(0, 365, 5):
        a[i] = sign * 7
    b = [peak] * 400
    assert _slice_certificate(a, b) == 2**63 - 1
    expected = [int(x) for x in naive_mul(a, b, 400)]
    assert expected[-1] == sign * (2**63 - 1)
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, 400) == expected
    assert calls == ["slices"]
    # One more copy is refused, and the dense routes are exact.
    a[365] = sign * 7
    expected = [int(x) for x in naive_mul(a, b, 400)]
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, 400) == expected
    assert calls == ["fft"]
