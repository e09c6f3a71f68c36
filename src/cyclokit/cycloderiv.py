"""Closed forms for higher (logarithmic) derivatives of cyclotomic polynomials.

Covers the values at 0 (Ramanujan sums), at 1 (Bernoulli/Stirling/Jordan
combinations), at -1 (the same twisted by the index multiplier alpha), the
full derivatives by one Bell transform, the Schwarzian, and the
inverse-cyclotomic variants.  The derivative lists never build a Fraction per
order: each log-derivative numerator is one integer dot product of a c-table
row with J_1..J_K, reduced against the row's denominator by one gcd, and the
Bell arguments d^k (log h)^(k) over the least common denominator d of those
reduced values go straight to the integer Bell row; only the returned
derivatives are Fractions.  Every function here has an independent
oracle counterpart in polyring.log_derivative_values, which reads only the
coefficients of the polynomial (a Taylor shift to the point followed by the
power-series logarithm recurrence), and the test suite holds the two for
exactly equal.

No floating point appears anywhere: all values are Fraction or int.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .combinat import _exp_from_bell_arguments, bernoulli_plus, over_common_denominator, stirling_first
from .errors import DomainError, InputError, PoleError
from .numtheory import dedekind_psi, euler_phi, jordan_totient, n_alpha, prime_power_value, ramanujan_sum
from .polyring import IntPoly


class CTable(namedtuple("CTable", "k nums den")):
    """Row k of the sigma-polynomial coefficient table.

    c_{k,j} = nums[j] / den, where c_{k,j} = B_j^+ s(k,j) / j for j >= 1 and
    c_{k,0} = -sum of the others, so that -(k-1)! sigma_k(n) = sum c_{k,j} n^j.
    Kept as integer numerators over the common denominator den, so that every
    sum over the row is one integer dot product and one division.
    """

    __slots__ = ()

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row as rationals (c_{k,0}, ..., c_{k,k})."""
        return tuple(Fraction(c, self.den) for c in self.nums)


@lru_cache(maxsize=None)
def c_table(k: int) -> CTable:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    tail = [bernoulli_plus(j) * stirling_first(k, j) / j for j in range(1, k + 1)]
    den, nums = over_common_denominator(tail)
    return CTable(k, (-sum(nums),) + tuple(nums), den)


def sigma_k(k: int, n: int) -> Fraction:
    """sigma_k(n) = sum over the n-th roots of unity except 1 of (z - 1)^(-k).

    Computed by the Bernoulli/Stirling closed form
    -(k-1)! sigma_k(n) = sum_{j=1}^{k} s(k,j) (B_j^+ / j) (n^j - 1), which is
    sum_{j=0}^{k} c_{k,j} n^j in the coefficients of c_table(k).
    """
    if k < 1 or n < 2:
        raise InputError("sigma_k needs k >= 1 and n >= 2")
    row = c_table(k)
    total = sum(c * n ** j for j, c in enumerate(row.nums))
    return Fraction(-total, row.den * factorial(k - 1))


def _jordan_totients(K: int, m: int) -> list[int]:
    return [jordan_totient(j, m) for j in range(1, K + 1)]


def _jordan_sum(k: int, js: list[int], sign: int) -> Fraction:
    # sign^k sum_{j=1}^{k} c_{k,j} J_j(m) for js = [J_1(m), J_2(m), ...], the
    # Bernoulli-Stirling form of the values at sign = +-1
    row = c_table(k)
    return Fraction(sign ** k * sum(map(mul, row.nums[1:], js)), row.den)


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
    return _jordan_sum(k, _jordan_totients(k, n), 1)


def log_deriv_phi_at_minus_one(n: int, k: int) -> Fraction:
    """(log Phi_n)^(k)(-1) = (-1)^k sum_j (B_j^+ s(k,j) / j) J_j(n alpha_n), n != 2."""
    if n == 2:
        raise PoleError("Phi_2(-1) = 0")
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    return _jordan_sum(k, _jordan_totients(k, n_alpha(n)), -1)


def _phi_derivs(base: int, m: int, sign: int, K: int) -> list[Fraction]:
    # (h, h', ..., h^(K)) at the point from h = base and the log-derivatives
    # (log h)^(k) = sign^k sum_j c_{k,j} J_j(m) = t_k / e_k in lowest terms,
    # with J_1..J_K(m) read once; the Bell arguments are z_k = d^k t_k / e_k
    # for the least common denominator d of the e_k
    if K < 0:
        raise InputError("K must be >= 0")
    js = _jordan_totients(K, m)
    tops, dens = [], []
    for k in range(1, K + 1):
        row = c_table(k)
        t = sum(map(mul, row.nums[1:], js))
        g = gcd(t, row.den)
        tops.append(-t // g if sign < 0 and k % 2 else t // g)
        dens.append(row.den // g)
    d = lcm(*dens)
    zs, power = [], 1
    for t, e in zip(tops, dens):
        zs.append(t * (d // e) * power)
        power *= d
    return [Fraction(base)] + _exp_from_bell_arguments(base, d, zs)


def phi_derivs_at_one(n: int, K: int) -> list[Fraction]:
    """(Phi_n(1), Phi_n'(1), ..., Phi_n^(K)(1)) via the Bell transform."""
    if n < 2:
        raise DomainError("need n >= 2")
    return _phi_derivs(prime_power_value(n), n, 1, K)


# The order recurrence this name once ran is the one the Bell row runs now,
# so it is an alias; it stays while perfbench's coeff_sweep workload reads it.
phi_derivs_at_one_recurrence = phi_derivs_at_one


def phi_derivs_at_minus_one(n: int, K: int) -> list[Fraction]:
    """(Phi_n(-1), ..., Phi_n^(K)(-1)) via the Bell transform, n != 2.

    The base is Phi_n(-1) = Phi_(n alpha_n)(1) = exp(Lambda(n alpha_n)) for
    n > 2, read with no polynomial built.  For n = 1 the base Phi_1(-1) = -2
    is negative; the transform still applies because the logarithmic
    derivatives of -Phi_1 and Phi_1 coincide.
    """
    if n == 2:
        raise PoleError("Phi_2(-1) = 0")
    m = n_alpha(n)
    return _phi_derivs(-2 if n == 1 else prime_power_value(m), m, -1, K)


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
    js = [(2 ** j - 1) * (n ** j - jordan_totient(j, n)) for j in range(1, k + 1)]
    return _jordan_sum(k, js, -1)

