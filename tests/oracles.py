"""Independent brute-force oracles used by the test suite.

Everything here avoids the package's series engine on purpose: naive
convolution, direct lattice-point counting, a separate Bernoulli
recurrence and a term-by-term alpha, so that equalities between library
output and oracle output are genuine cross-checks.
"""

from fractions import Fraction

from rcadjoint.bracket import rc_coefficient


def naive_mul(a, b, prec):
    """Schoolbook truncated polynomial product."""
    out = [Fraction(0)] * prec
    for i, ai in enumerate(a[:prec]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: prec - i]):
            out[i + j] += ai * bj
    return out


def eta_power_oracle(exponent, prec):
    """Expand prod_{n>=1} (1 - q^n)^exponent naively.

    Multiplies the binomials one at a time; no pentagonal shortcut.
    """
    out = [Fraction(0)] * prec
    out[0] = Fraction(1)
    for n in range(1, prec):
        for _ in range(exponent):
            # multiply by (1 - q^n)
            for idx in range(prec - 1, n - 1, -1):
                out[idx] -= out[idx - n]
    return out


def delta_oracle(prec):
    """tau(n) for n < prec via q * prod (1-q^n)^24, naive expansion."""
    inner = eta_power_oracle(24, prec)
    return [Fraction(0)] + inner[: prec - 1]


def delta_4_6_oracle(prec):
    """Coefficients of q * prod (1-q^(2n))^12, naive expansion."""
    out = [Fraction(0)] * prec
    out[0] = Fraction(1)
    for n in range(2, prec, 2):
        for _ in range(12):
            for idx in range(prec - 1, n - 1, -1):
                out[idx] -= out[idx - n]
    return [Fraction(0)] + out[: prec - 1]


def two_squares_count(n):
    """Number of (x, y) in Z^2 with x^2 + y^2 = n, by direct search."""
    count = 0
    x = 0
    while x * x <= n:
        rest = n - x * x
        y = 0
        while y * y < rest:
            y += 1
        if y * y == rest:
            if x == 0 and y == 0:
                count += 1
            elif x == 0 or y == 0:
                count += 2
            else:
                count += 4
        x += 1
    return count


def bernoulli_oracle(n):
    """B_n via the Akiyama-Tanigawa algorithm (B_1 = +1/2 convention;
    only even indices are used by callers)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def alpha_coeff(p, n, m):
    """alpha(k, l, nu; n, m) = sum_r c_r n^r m^(nu-r), the adjoint sum's kernel.

    Built term by term from the bracket's scalar coefficients, with the
    bracket's own convention that m^0 = 1, so m = 0 gives c_nu n^nu.  It
    equals the q^(n+m) coefficient of the bracket of q^n and q^m, which
    test_criterion_1 checks over a full grid.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return sum(
        rc_coefficient(p, r) * n**r * m ** (p.nu - r) for r in range(p.nu + 1)
    )
