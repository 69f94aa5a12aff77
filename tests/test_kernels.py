import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rcadjoint import kernels

from oracles import naive_mul


def rand_ints(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def test_int64_routes_agree_with_naive():
    rng = random.Random(7)
    a = rand_ints(rng, 60, -1000, 1000)
    b = rand_ints(rng, 60, -1000, 1000)
    expected = [int(x) for x in naive_mul(a, b, 60)]
    assert list(kernels.convolve_int64(a, b, 60)) == expected
    assert kernels.convolve_bigint(a, b, 60) == expected
    assert kernels.convolve_exact(a, b, 60) == expected
    assert list(kernels.convolve_int64([3, -1, 4], [2, 7, 0], 3)) == [6, 19, 1]


def test_bigint_route_on_huge_coefficients():
    rng = random.Random(11)
    a = rand_ints(rng, 40, -(10**30), 10**30)
    b = rand_ints(rng, 40, -(10**30), 10**30)
    assert not kernels.int64_safe(
        max(map(abs, a)), max(map(abs, b)), 40
    )
    expected = [int(x) for x in naive_mul(a, b, 40)]
    assert kernels.convolve_exact(a, b, 40) == expected


def test_truncation():
    a = [1, 1, 1, 1]
    b = [1, 1]
    assert kernels.convolve_exact(a, b, 3) == [1, 2, 2]


def test_zero_factor():
    assert kernels.convolve_exact([0, 0], [1, 2], 2) == [0, 0]


# Magnitudes on both sides of the int64 certificate.
_BOUNDS = [1, 1000, 2**30, 2**40, 10**30]


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
    # enough for the sparse route; long dense inputs take the int64 or
    # big-int route.  prec runs both below and above len_a + len_b - 1.
    rng = random.Random(seed)
    a = [rng.randint(-bound, bound) if i % every == 0 else 0 for i in range(len_a)]
    b = rand_ints(rng, len_b, -bound, bound)
    expected = [int(x) for x in naive_mul(a, b, prec)]
    exact = kernels.convolve_exact(a, b, prec)
    assert exact == expected
    assert all(type(v) is int for v in exact)
    assert kernels.convolve_bigint(a, b, prec) == expected
    length = min(len(a), len(b))
    if kernels.int64_safe(max(map(abs, a)), max(map(abs, b)), length):
        assert kernels.convolve_int64(a, b, prec).tolist() == expected
