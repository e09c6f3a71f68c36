"""Four routes to the k-th coefficient of the n-th cyclotomic polynomial.

coeff_direct reads the constructed polynomial and is the oracle; the Moller
partition sum, the Grytczuk-Tropak prefix recurrence, the Bell form at 0 and
the Taylor re-expansion around 1 must all agree with it exactly.

The Moller sum only receives contributions from partitions whose parts j have
mu(n/j) != 0 (any other part makes its generalized binomial vanish), so the
enumeration runs over partitions into that restricted part set; the sum
over every partition of k lives in the tests as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import bell_complete, partitions_into_parts
from .cycloderiv import phi_derivs_at_one
from .errors import InputError, InvariantError, ResourceError
from .numtheory import euler_phi, mobius, ramanujan_sum
from .polyring import cyclotomic

TAYLOR_FROM_ONE_CAP = 64


def coeff_direct(n: int, k: int) -> int:
    """a_n(k) read off the constructed polynomial; 0 beyond the degree."""
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    coeffs = cyclotomic(n).coeffs
    return coeffs[k] if k < len(coeffs) else 0


def _mu_at(n: int, j: int) -> int:
    # mu(n/j) with the convention mu(t) = 0 when t is not an integer
    return mobius(n // j) if n % j == 0 else 0


def _binom_mu(mu: int, lam: int) -> int:
    # generalized binomial C(mu, lam) for mu in {-1, 0, 1}
    if lam == 0:
        return 1
    if lam == 1:
        return mu
    return (-1) ** lam * (mu * (mu - 1)) // 2


def coeff_moller(n: int, k: int) -> int:
    """Moller's partition sum: a_n(k) = sum over partitions of k of
    prod_j (-1)^(lambda_j) C(mu(n/j), lambda_j), negated at n = 1, where the
    product it expands, prod_{d | n} (1 - x^d)^mu(n/d), is 1 - x = -Phi_1."""
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    sign = -1 if n == 1 else 1
    if k == 0:
        return sign
    parts = [j for j in range(1, k + 1) if _mu_at(n, j) != 0]
    total = 0
    for mults in partitions_into_parts(k, parts):
        term = 1
        for j, lam in mults.items():
            term *= (-1) ** lam * _binom_mu(_mu_at(n, j), lam)
            if term == 0:
                break
        total += term
    return sign * total


def coeff_prefix_recurrence(n: int, K: int) -> list[int]:
    """(a_n(0), ..., a_n(K)) by a_n(k) = -(1/k) sum_{j<k} a_n(j) r_{k-j}(n)."""
    if n < 2 or K < 0:
        raise InputError("need n >= 2 and K >= 0")
    out = [1]
    for k in range(1, K + 1):
        s = sum(out[j] * ramanujan_sum(k - j, n) for j in range(k))
        if s % k:
            raise InvariantError(f"recurrence step not divisible: n={n}, k={k}")
        out.append(-s // k)
    return out


def coeff_bell(n: int, k: int) -> int:
    """a_n(k) = B_k(-0! r_1(n), ..., -(k-1)! r_k(n)) / k!."""
    if n < 2 or k < 0:
        raise InputError("need n >= 2 and k >= 0")
    xs = [-factorial(j - 1) * ramanujan_sum(j, n) for j in range(1, k + 1)]
    val = bell_complete(k, xs)
    if val % factorial(k):
        raise InvariantError(f"Bell value not divisible by k!: n={n}, k={k}")
    return val // factorial(k)


def coeff_taylor_from_one(n: int, k: int, cap: int = TAYLOR_FROM_ONE_CAP) -> int:
    """a_n(k) by re-expanding the Taylor series of Phi_n around 1.

    a_n(k) = (1/k!) sum_{t=k}^{phi(n)} (-1)^(t-k) Phi_n^(t)(1) / (t-k)!,
    with the derivatives at 1 taken from the Bell-transform closed form.
    Expensive; guarded by a cap on phi(n).
    """
    if n < 2 or k < 0:
        raise InputError("need n >= 2 and k >= 0")
    d = euler_phi(n)
    if d > cap:
        raise ResourceError(f"phi({n}) = {d} exceeds the configured cap {cap}")
    if k > d:
        raise InputError(f"k must be at most phi(n) = {d}")
    derivs = phi_derivs_at_one(n, d)
    total = sum(
        Fraction((-1) ** (t - k), factorial(t - k)) * derivs[t] for t in range(k, d + 1)
    )
    val = total / factorial(k)
    if val.denominator != 1:
        raise InvariantError(f"Taylor re-expansion not integral: n={n}, k={k}")
    return val.numerator


def coeff_all_methods(n: int, k: int, include_taylor: bool = False) -> int:
    """All implemented routes to a_n(k); raises InvariantError on disagreement."""
    direct = coeff_direct(n, k)
    got = {"moller": coeff_moller(n, k)}
    if n >= 2:
        # the recurrence and the Bell form hold for n >= 2 only
        got["recurrence"] = coeff_prefix_recurrence(n, k)[k]
        got["bell"] = coeff_bell(n, k)
    if include_taylor:
        got["taylor1"] = coeff_taylor_from_one(n, k)
    bad = {name: v for name, v in got.items() if v != direct}
    if bad:
        raise InvariantError(f"coefficient methods disagree at n={n}, k={k}: direct={direct}, {bad}")
    return direct
