"""Output checks for the workloads.

The references are independent of the code under test: the eigenvalues
were recorded from the command line at the nominal sizes, and the bracket
reference is the defining sum computed here from the divisor sums.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Reference lambda and relative tolerance per workload:
# flagship at M = 20000, theta * delta_4_6 against theta (case 2, nu = 0);
# dense_nu2 at M = 2500, [delta, E4]_2 against E4 (integral case, nu = 2).
# Moving M by 2% moves lambda by about 2e-10 and 1e-7 respectively; the
# tolerances are ~500x and ~100x wider, and a lambda off by 1e-3 fails.
LAMBDA = {
    "flagship": (0.6786394942941791, 1e-7),
    "dense_nu2": (3193.295326065643, 1e-5),
}
MAX_SPREAD = 1e-3


def check_ratio(call, lam_ref, rtol):
    """Failures of one `verify ratio` call (an empty list means it passed)."""
    if call["rc"] != 0:
        return [f"verify ratio exited with {call['rc']}"]
    try:
        verdict = json.loads(call["stdout"])
        lam, spread, budget = (
            verdict["lambda"],
            verdict["spread"],
            verdict["error_budget"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verdict: {exc!r}"]
    failures = []
    if verdict.get("pass") is not True:
        failures.append("verdict pass is not true")
    if lam_ref is not None and not math.isclose(lam, lam_ref, rel_tol=rtol):
        failures.append(f"lambda {lam!r} differs from {lam_ref!r} by more than {rtol}")
    if not spread <= MAX_SPREAD:
        failures.append(f"spread {spread!r} > {MAX_SPREAD}")
    if not lam > budget:
        failures.append(f"lambda {lam!r} not above error_budget {budget!r}")
    return failures


def _divisor_sums(power, n_max):
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for multiple in range(d, n_max + 1, d):
            sigma[multiple] += dp
    return sigma


def _rising(x, count):
    return math.prod(x + j for j in range(count))


def bracket_reference(k, l, nu, indices):
    """[E_k, E_l]_nu at the given indices from the defining sum.

    sum_{i+j=n} a(i) b(j) sum_r c_r i^r j^(nu-r), with
    c_r = (-1)^(nu-r) C(nu,r) (k+r)_(nu-r) (l+nu-r)_r, and
    E_w = 1 - (2w/B_w) sum sigma_(w-1)(n) q^n (240 for E4, -504 for E6).
    """
    scale = {4: 240, 6: -504}
    n_max = max(indices)
    a = [1] + [scale[k] * s for s in _divisor_sums(k - 1, n_max)[1:]]
    b = [1] + [scale[l] * s for s in _divisor_sums(l - 1, n_max)[1:]]
    c = [
        (-1) ** (nu - r) * math.comb(nu, r) * _rising(k + r, nu - r)
        * _rising(l + nu - r, r)
        for r in range(nu + 1)
    ]
    return {
        n: sum(
            a[i] * b[n - i] * sum(c[r] * i**r * (n - i) ** (nu - r) for r in range(nu + 1))
            for i in range(n + 1)
        )
        for n in indices
    }


def check_bracket(call, path, precision, reference):
    """Failures of one `bracket` call against reference coefficients."""
    if call["rc"] != 0:
        return [f"bracket exited with {call['rc']}"]
    try:
        with open(path) as fh:
            data = json.load(fh)
        coeffs = data["coeffs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable bracket output: {exc!r}"]
    return check_coefficients(coeffs, precision, reference)


def check_coefficients(coeffs, precision, reference):
    if len(coeffs) != precision:
        return [f"bracket has {len(coeffs)} coefficients, expected {precision}"]
    return [
        f"coefficient {n} is {coeffs[n]}, expected {want}"
        for n, want in sorted(reference.items())
        if Fraction(coeffs[n]) != want
    ]
