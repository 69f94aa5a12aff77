import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcadjoint import kernels

from oracles import naive_mul


def rand_ints(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def test_dense_routes_agree_with_naive():
    rng = random.Random(7)
    a = rand_ints(rng, 60, -1000, 1000)
    b = rand_ints(rng, 60, -1000, 1000)
    expected = [int(x) for x in naive_mul(a, b, 60)]
    assert kernels.convolve_fft(a, b, 60) == expected
    assert kernels.convolve_bigint(a, b, 60) == expected
    assert kernels.convolve_exact(a, b, 60) == expected
    assert kernels.convolve_fft([3, -1, 4], [2, 7, 0], 3) == [6, 19, 1]


def test_bigint_route_on_huge_coefficients():
    rng = random.Random(11)
    a = rand_ints(rng, 40, -(10**30), 10**30)
    b = rand_ints(rng, 40, -(10**30), 10**30)
    expected = [int(x) for x in naive_mul(a, b, 40)]
    assert kernels.convolve_fft(a, b, 40) == expected
    assert kernels.convolve_bigint(a, b, 40) == expected
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
    # enough for the sparse route; long dense inputs take the FFT or the
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
    assert kernels.convolve_bigint(a, b, prec) == expected
    # At these sizes the rounding bound is far below the limit, so the FFT
    # route must certify and answer; a None here would hide a limb bug.
    assert kernels.fft_certificate(a[:prec], b[:prec])[2] < kernels._CERT_LIMIT
    assert kernels.convolve_fft(a, b, prec) == expected


_ROUTES = {
    "sparse": "_convolve_sparse",
    "fft": "convolve_fft",
    "kronecker": "convolve_bigint",
}


def _spy_routes(monkeypatch):
    """Record, in order, which route functions convolve_exact calls."""
    calls = []
    for route, name in _ROUTES.items():
        real = getattr(kernels, name)

        def spy(*args, _real=real, _route=route, **kwargs):
            calls.append(_route)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def _dense(bound, n=200, seed=3):
    rng = random.Random(seed)
    return rand_ints(rng, n, -bound, bound), rand_ints(rng, n, -bound, bound)


@pytest.mark.parametrize(
    "a, b, routes",
    [
        ([1] + [0] * 199 + [2], [3] * 201, ["sparse"]),
        (*_dense(1000), ["fft"]),
        # 5814 limbs at length 20: the rounding bound is ~0.38.
        (*_dense(10**14000, n=20), ["fft", "kronecker"]),
    ],
    ids=["sparse", "fft", "kronecker"],
)
def test_convolve_exact_routes(monkeypatch, a, b, routes):
    expected = [int(x) for x in naive_mul(a, b, len(a))]
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, len(a)) == expected
    assert calls == routes


def test_kronecker_past_the_product_length():
    # Mixed signs at magnitudes the FFT certificate refuses, and prec
    # beyond len(a) + len(b): a negative top coefficient leaves
    # sign-extension bytes above the product, and those slots must read 0.
    a, b = _dense(10**27000, n=6, seed=5)
    a[-1], b[-1] = -(10**27000), 10**27000
    prec = len(a) + len(b) + 7
    assert kernels.fft_certificate(a, b)[2] >= kernels._CERT_LIMIT
    expected = [int(x) for x in naive_mul(a, b, prec)]
    assert expected[len(a) + len(b) - 2] < 0
    assert kernels.convolve_bigint(a, b, prec) == expected


@pytest.mark.parametrize("limit", ["_CERT_LIMIT", "_RESIDUAL_LIMIT"])
def test_failed_fft_check_falls_back_to_kronecker(monkeypatch, limit):
    a, b = _dense(10**6)
    expected = kernels.convolve_exact(a, b, 200)
    monkeypatch.setattr(kernels, limit, -1.0)
    assert kernels.convolve_fft(a, b, 200) is None
    calls = _spy_routes(monkeypatch)
    assert kernels.convolve_exact(a, b, 200) == expected
    assert calls == ["fft", "kronecker"]


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
