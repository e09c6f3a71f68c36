"""Closed forms for higher (logarithmic) derivatives of cyclotomic polynomials.

Covers the values at 0 (Ramanujan sums), at 1 (Bernoulli/Stirling/Jordan
combinations), at -1 (the same twisted by the index multiplier alpha), the
full derivatives by one Bell transform, the Schwarzian, and the
inverse-cyclotomic variants.  Every function here has an independent
oracle counterpart in polyring.log_derivative_oracle, which reads only the
coefficients of the polynomial (a Taylor shift to the point followed by the
power-series logarithm recurrence), and the test suite holds the two for
exactly equal.

No floating point appears anywhere: all values are Fraction or int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinat import bernoulli_plus, exp_transform, stirling_first
from .errors import DomainError, InputError, PoleError
from .numtheory import dedekind_psi, euler_phi, jordan_totient, n_alpha, ramanujan_sum
from .polyring import IntPoly, cyclotomic, phi_value_at_one


@dataclass(frozen=True)
class CTable:
    """Row k of the sigma-polynomial coefficient table.

    entries[j] = c_{k,j} with c_{k,j} = B_j^+ s(k,j) / j for j >= 1 and
    c_{k,0} = -sum of the others, so that -(k-1)! sigma_k(n) = sum c_{k,j} n^j.
    """

    k: int
    entries: tuple[Fraction, ...]


@lru_cache(maxsize=None)
def c_table(k: int) -> CTable:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    tail = [bernoulli_plus(j) * stirling_first(k, j) / j for j in range(1, k + 1)]
    return CTable(k, (-sum(tail),) + tuple(tail))


def c_coefficient(k: int, j: int) -> Fraction:
    return c_table(k).entries[j]


def sigma_k(k: int, n: int) -> Fraction:
    """sigma_k(n) = sum over the n-th roots of unity except 1 of (z - 1)^(-k).

    Computed by the Bernoulli/Stirling closed form
    -(k-1)! sigma_k(n) = sum_{j=1}^{k} s(k,j) (B_j^+ / j) (n^j - 1), which is
    sum_{j=0}^{k} c_{k,j} n^j in the coefficients of c_table(k).
    """
    if k < 1 or n < 2:
        raise InputError("sigma_k needs k >= 1 and n >= 2")
    total = sum(c * n ** j for j, c in enumerate(c_table(k).entries))
    return -total / factorial(k - 1)


def _jordan_sum(k: int, m: int) -> Fraction:
    # sum_{j=1}^{k} c_{k,j} J_j(m), the Bernoulli-Stirling form of both values at +-1
    c = c_table(k).entries
    return sum(c[j] * jordan_totient(j, m) for j in range(1, k + 1))


def log_deriv_phi_at_zero(n: int, k: int) -> Fraction:
    """(log Phi_n)^(k)(0) = -(k-1)! r_k(n) for n >= 2."""
    if n < 2:
        raise DomainError("closed form at 0 is stated for n >= 2; use the oracle for n = 1")
    if k < 1:
        raise InputError("order k must be >= 1")
    return Fraction(-factorial(k - 1) * ramanujan_sum(k, n))


def log_deriv_phi_at_one(n: int, k: int) -> Fraction:
    """(log Phi_n)^(k)(1) = sum_{j=1}^{k} (B_j^+ s(k,j) / j) J_j(n) for n >= 2."""
    if n < 2:
        raise DomainError(f"Phi_{n}(1) vanishes or is out of range; need n >= 2")
    if k < 1:
        raise InputError("order k must be >= 1")
    return _jordan_sum(k, n)


def log_deriv_phi_at_minus_one(n: int, k: int) -> Fraction:
    """(log Phi_n)^(k)(-1) = (-1)^k sum_j (B_j^+ s(k,j) / j) J_j(n alpha_n), n != 2."""
    if n == 2:
        raise PoleError("Phi_2(-1) = 0")
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    return (-1) ** k * _jordan_sum(k, n_alpha(n))


def _phi_derivs(base: int, log_deriv, n: int, K: int) -> list[Fraction]:
    # (h, h', ..., h^(K)) at the point from h = base and (log h)^(j) = log_deriv(n, j)
    if K < 0:
        raise InputError("K must be >= 0")
    logs = [log_deriv(n, j) for j in range(1, K + 1)]
    return [Fraction(base)] + exp_transform(logs, base)


def phi_derivs_at_one(n: int, K: int) -> list[Fraction]:
    """(Phi_n(1), Phi_n'(1), ..., Phi_n^(K)(1)) via the Bell transform."""
    if n < 2:
        raise DomainError("need n >= 2")
    return _phi_derivs(phi_value_at_one(n), log_deriv_phi_at_one, n, K)


# The order recurrence this name once ran is the one exp_transform runs now,
# so it is an alias; it stays while perfbench's coeff_sweep workload reads it.
phi_derivs_at_one_recurrence = phi_derivs_at_one


def phi_derivs_at_minus_one(n: int, K: int) -> list[Fraction]:
    """(Phi_n(-1), ..., Phi_n^(K)(-1)) via the Bell transform, n != 2.

    For n = 1 the base Phi_1(-1) = -2 is negative; the transform still applies
    because the logarithmic derivatives of -Phi_1 and Phi_1 coincide.
    """
    if n == 2:
        raise PoleError("Phi_2(-1) = 0")
    return _phi_derivs(cyclotomic(n)(-1), log_deriv_phi_at_minus_one, n, K)


def schwarzian_phi_at_one(n: int) -> Fraction:
    """Schwarzian derivative of Phi_n at 1: -phi(n)^2/8 - Psi(n)^2/24 + 1/2."""
    if n < 2:
        raise DomainError("need n >= 2")
    return (
        -Fraction(euler_phi(n) ** 2, 8)
        - Fraction(dedekind_psi(n) ** 2, 24)
        + Fraction(1, 2)
    )


def normalized_derivative(f: IntPoly, k: int, z: Fraction | int) -> Fraction:
    """f^(k)(z) / ((deg f)^k f(z)); 1 for k = 0."""
    if f.degree < 1:
        raise InputError("need deg f >= 1")
    if k < 0:
        raise InputError("k must be >= 0")
    fz = Fraction(f(Fraction(z)))
    if fz == 0:
        raise PoleError(f"f({z}) = 0")
    return Fraction(f.derivative(k)(Fraction(z))) / (Fraction(f.degree) ** k * fz)


def log_deriv_inverse_cyclo_at_zero(n: int, k: int) -> Fraction:
    """(log Psi_n)^(k)(0): (k-1)! r_k(n), minus (k-1)! n when n divides k."""
    if n < 2:
        raise InputError("need n >= 2")
    if k < 1:
        raise InputError("order k must be >= 1")
    r = ramanujan_sum(k, n)
    if k % n == 0:
        return Fraction(factorial(k - 1) * (r - n))
    return Fraction(factorial(k - 1) * r)


def log_deriv_inverse_cyclo_at_minus_one(n: int, k: int) -> Fraction:
    """(log Psi_n)^(k)(-1) for odd n >= 3.

    Equals (-1)^k sum_j (B_j^+ s(k,j) (2^j - 1) / j) (n^j - J_j(n)); Psi_n(-1)
    vanishes exactly for even n, which is rejected as a pole.
    """
    if n % 2 == 0:
        raise PoleError(f"Psi_{n}(-1) = 0 for even n")
    if n < 3:
        raise InputError("need odd n >= 3")
    if k < 1:
        raise InputError("order k must be >= 1")
    c = c_table(k).entries
    s = sum(c[j] * (2 ** j - 1) * (n ** j - jordan_totient(j, n)) for j in range(1, k + 1))
    return (-1) ** k * s

