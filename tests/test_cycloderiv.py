from fractions import Fraction
from math import factorial, lcm, perm

import pytest

from cyclokit import cycloderiv as cd
from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from cyclokit.combinat import bernoulli_plus, stirling_first
from cyclokit.errors import DomainError, InputError, PoleError
from cyclokit.polyring import IntPoly


def ones_poly(n):
    """p_n = 1 + x + ... + x^(n-1)."""
    return IntPoly((1,) * n)


def test_c_table_row_4():
    row = cd.c_table(4)
    assert row.entries == (
        Fraction(251, 120),
        Fraction(-3),
        Fraction(11, 12),
        Fraction(0),
        Fraction(-1, 120),
    )


def test_c_table_integer_row():
    # the integer numerators over the least common denominator reproduce the
    # weights B_j^+ s(k, j) / j and their negated sum
    for k in range(1, 17):
        row = cd.c_table(k)
        tail = [bernoulli_plus(j) * stirling_first(k, j) / j for j in range(1, k + 1)]
        assert [Fraction(c, row.den) for c in row.nums] == [-sum(tail)] + tail
        assert row.entries == tuple([-sum(tail)] + tail)
        assert row.den == lcm(*(c.denominator for c in tail))
        assert all(type(c) is int for c in row.nums)


def test_c_table_row_sums():
    for k in range(1, 10):
        assert sum(cd.c_table(k).entries) == 0


def test_sigma_k_values():
    assert cd.sigma_k(1, 4) == Fraction(-3, 2)
    for n in range(2, 31):
        assert cd.sigma_k(1, n) == Fraction(-(n - 1), 2)


def test_sigma_k_against_oracle():
    # (log p_n)^(k)(1) = -(k-1)! sigma_k(n)
    for n in range(2, 25):
        vals = pr.log_derivative_values(ones_poly(n), 6, 1)
        for k in range(1, 7):
            assert vals[k - 1] == -factorial(k - 1) * cd.sigma_k(k, n)


def test_sigma_k_c_polynomial_form():
    for k in range(1, 9):
        row = cd.c_table(k).entries
        for n in range(2, 20):
            poly_val = sum(row[j] * n ** j for j in range(k + 1))
            assert poly_val == -factorial(k - 1) * cd.sigma_k(k, n)


def test_log_deriv_phi_at_zero():
    for n in range(2, 31):
        assert cd.log_deriv_phi_at_zero(n, 1) == -nt.mobius(n)
    assert cd.log_deriv_phi_at_zero(4, 2) == 2
    assert cd.log_deriv_phi_at_zero(6, 4) == 6
    with pytest.raises(DomainError):
        cd.log_deriv_phi_at_zero(1, 1)


def test_log_deriv_phi_at_zero_holder_form():
    # -(k-1)! r_k(n), with r_k(n) in Holder's closed form mu(m) phi(n) / phi(m),
    # m = n / (n, k), not production's divisor sum
    from math import gcd

    for n in range(2, 61):
        for k in range(1, 13):
            m = n // gcd(n, k)
            r = nt.mobius(m) * nt.euler_phi(n) // nt.euler_phi(m)
            assert cd.log_deriv_phi_at_zero(n, k) == -factorial(k - 1) * r


def test_log_deriv_phi_at_one_values():
    for n in range(2, 31):
        assert cd.log_deriv_phi_at_one(n, 1) == Fraction(nt.euler_phi(n), 2)
    assert cd.log_deriv_phi_at_one(6, 2) == 1
    assert cd.log_deriv_phi_at_one(5, 2) == 0


def test_log_deriv_phi_at_minus_one_values():
    for k in range(1, 7):
        assert cd.log_deriv_phi_at_minus_one(1, k) == Fraction(-factorial(k - 1), 2 ** k)
    assert cd.log_deriv_phi_at_minus_one(3, 1) == -1
    assert cd.log_deriv_phi_at_minus_one(12, 2) == 6
    with pytest.raises(PoleError):
        cd.log_deriv_phi_at_minus_one(2, 1)


def test_formulas_match_oracle_small_sweep():
    for n in range(2, 41):
        phi_n = pr.cyclotomic(n)
        at_zero = pr.log_derivative_values(phi_n, 5, 0)
        at_one = pr.log_derivative_values(phi_n, 5, 1)
        for k in range(1, 6):
            assert cd.log_deriv_phi_at_zero(n, k) == at_zero[k - 1]
            assert cd.log_deriv_phi_at_one(n, k) == at_one[k - 1]
        if n != 2:
            at_minus = pr.log_derivative_values(phi_n, 5, -1)
            for k in range(1, 6):
                assert cd.log_deriv_phi_at_minus_one(n, k) == at_minus[k - 1]


def test_formulas_match_oracle_large_degree():
    # degrees 480, 1440 and 960
    for n in (2310, 3003, 4620):
        phi_n = pr.cyclotomic(n)
        at_zero = pr.log_derivative_values(phi_n, 6, 0)
        at_one = pr.log_derivative_values(phi_n, 6, 1)
        at_minus = pr.log_derivative_values(phi_n, 6, -1)
        for k in range(1, 7):
            assert cd.log_deriv_phi_at_zero(n, k) == at_zero[k - 1]
            assert cd.log_deriv_phi_at_one(n, k) == at_one[k - 1]
            assert cd.log_deriv_phi_at_minus_one(n, k) == at_minus[k - 1]


def test_mobius_relation_sigma_s():
    # sigma_k(n) = sum_{d | n} s_k(d), with s_k(n) = -(log Phi_n)^(k)(1)/(k-1)!
    def s_k(k, n):
        if n == 1:
            return Fraction(0)
        return -cd.log_deriv_phi_at_one(n, k) / factorial(k - 1)

    for k in range(1, 6):
        for n in range(2, 61):
            assert cd.sigma_k(k, n) == sum(s_k(k, d) for d in nt.divisors(n))


def test_reflection_lemma():
    # (log Phi_n)^(k)(x) = (-1)^k (log Phi_{n alpha_n})^(k)(-x)
    for n in range(3, 41):
        na = nt.n_alpha(n)
        for x in (Fraction(1), Fraction(1, 2)):
            left = pr.log_derivative_values(pr.cyclotomic(n), 4, x)
            right = pr.log_derivative_values(pr.cyclotomic(na), 4, -x)
            for k in range(1, 5):
                assert left[k - 1] == (-1) ** k * right[k - 1]


def test_phi_derivs_at_one():
    derivs = cd.phi_derivs_at_one(5, 2)
    assert derivs == [5, 10, 20]
    # k = 2 closed form: (phi/4)(phi + Psi/3 - 2) times Phi_n(1)
    for n in range(2, 31):
        phi, psi = nt.euler_phi(n), nt.dedekind_psi(n)
        d = cd.phi_derivs_at_one(n, 2)
        assert d[2] == d[0] * Fraction(phi, 4) * (phi + Fraction(psi, 3) - 2)
    # k = 3 closed form in phi and Psi (constant term is +phi, as forced by
    # expanding B_3(phi/2, phi*Psi/12 - phi/2, phi - phi*Psi/4))
    for n in range(2, 31):
        phi, psi = Fraction(nt.euler_phi(n)), Fraction(nt.dedekind_psi(n))
        d = cd.phi_derivs_at_one(n, 3)
        expected = (
            phi ** 3 / 8 + phi ** 2 * psi / 8 - 3 * phi ** 2 / 4 - phi * psi / 4 + phi
        )
        assert d[3] == d[0] * expected


def test_phi_derivs_match_direct_differentiation():
    for n in range(2, 31):
        f = pr.cyclotomic(n)
        derivs = cd.phi_derivs_at_one(n, 5)
        for k in range(6):
            assert derivs[k] == f.derivative(k)(1)
        if n != 2:
            mderivs = cd.phi_derivs_at_minus_one(n, 5)
            for k in range(6):
                assert mderivs[k] == f.derivative(k)(-1)


def _derivs_oracle(n, K, x):
    # Phi_n^(j)(x) = sum_i c_i i!/(i-j)! x^(i-j) at x = +-1, from the coefficients
    coeffs = pr.cyclotomic(n).coeffs
    return [
        sum(coeffs[i] * perm(i, j) * x ** (i - j) for i in range(j, len(coeffs)))
        for j in range(K + 1)
    ]


def test_phi_derivs_match_coefficient_oracle():
    for n in range(1, 300):
        if n >= 2:
            assert cd.phi_derivs_at_one(n, 12) == _derivs_oracle(n, 12, 1)
        if n != 2:
            assert cd.phi_derivs_at_minus_one(n, 12) == _derivs_oracle(n, 12, -1)
    for n in range(3, 40):
        for K in range(12):
            assert cd.phi_derivs_at_one(n, K) == _derivs_oracle(n, K, 1)
            assert cd.phi_derivs_at_minus_one(n, K) == _derivs_oracle(n, K, -1)


def test_phi_derivs_recurrence_agrees():
    # the recurrence name is an alias kept for the benchmark, not a second route
    assert cd.phi_derivs_at_one_recurrence is cd.phi_derivs_at_one
    for n in range(2, 31):
        for K in (0, 1, 4, 6):
            assert cd.phi_derivs_at_one_recurrence(n, K) == _derivs_oracle(n, K, 1)


def test_phi_derivs_at_minus_one():
    assert cd.phi_derivs_at_minus_one(1, 1) == [-2, 1]
    f4 = pr.cyclotomic(4)
    d = cd.phi_derivs_at_minus_one(4, 3)
    assert d == [f4(-1), f4.derivative()(-1), f4.derivative(2)(-1), f4.derivative(3)(-1)]
    # second-derivative quotient closed form, alpha-twisted
    for n in [1] + list(range(3, 31)):
        d = cd.phi_derivs_at_minus_one(n, 2)
        phi = nt.euler_phi(n)
        psi_alpha = nt.dedekind_psi(nt.n_alpha(n))
        assert d[2] == d[0] * Fraction(phi, 4) * (phi + Fraction(psi_alpha, 3) - 2)
    # the base value is read off exp(Lambda(n alpha_n)) with no polynomial
    # built; the polynomial evaluated at -1 is its oracle
    for n in [1] + list(range(3, 2001)):
        assert cd.phi_derivs_at_minus_one(n, 0)[0] == pr.cyclotomic(n)(-1), n


def test_schwarzian():
    assert cd.schwarzian_phi_at_one(3) == Fraction(-2, 3)
    assert cd.schwarzian_phi_at_one(5) == -3
    assert cd.schwarzian_phi_at_one(2) == 0
    # direct: f'''/f' - 1.5 (f''/f')^2 at 1; Phi_2 has f'' = f''' = 0
    for n in range(2, 41):
        d = cd.phi_derivs_at_one(n, 3)
        direct = d[3] / d[1] - Fraction(3, 2) * (d[2] / d[1]) ** 2
        assert cd.schwarzian_phi_at_one(n) == direct


def test_normalized_derivative():
    assert cd.normalized_derivative(pr.cyclotomic(5), 1, 1) == Fraction(1, 2)
    assert cd.normalized_derivative(pr.cyclotomic(7), 0, 2) == 1
    # for non-negative coefficients and z >= 1 the value is at most 1
    # (z in (0, 1) can exceed 1: f = x at z = 1/2 gives 2)
    for coeffs in [(1, 2, 3), (0, 1, 0, 4), (5, 0, 0, 0, 1), (1, 1, 1, 1, 1, 1)]:
        f = IntPoly(coeffs)
        for z in (1, Fraction(3, 2), 3):
            for k in range(4):
                assert cd.normalized_derivative(f, k, z) <= 1
    assert cd.normalized_derivative(IntPoly((0, 1)), 1, Fraction(1, 2)) == 2
    with pytest.raises(PoleError):
        cd.normalized_derivative(IntPoly((-1, 1)), 1, 1)


def test_inverse_cyclo_at_zero():
    assert cd.log_deriv_inverse_cyclo_at_zero(6, 1) == 1
    assert cd.log_deriv_inverse_cyclo_at_zero(3, 3) == -2
    for n in range(2, 31):
        psi_n = pr.inverse_cyclotomic(n)
        if psi_n.degree == 0:
            continue  # Psi_p for n prime still has degree 1; only n=1 is constant
        vals = pr.log_derivative_values(psi_n, 6, 0)
        for k in range(1, 7):
            assert cd.log_deriv_inverse_cyclo_at_zero(n, k) == vals[k - 1]


def test_inverse_cyclo_at_minus_one():
    assert cd.log_deriv_inverse_cyclo_at_minus_one(3, 1) == Fraction(-1, 2)
    for n in range(3, 41, 2):
        vals = pr.log_derivative_values(pr.inverse_cyclotomic(n), 6, -1)
        for k in range(1, 7):
            assert cd.log_deriv_inverse_cyclo_at_minus_one(n, k) == vals[k - 1]
    with pytest.raises(PoleError):
        cd.log_deriv_inverse_cyclo_at_minus_one(6, 1)


def test_inverse_cyclo_stirling_weighted_corollary():
    # sum_j (-1)^j {k,j} (log Psi_n)^(j)(-1) = (B_k^+ (2^k - 1)/k)(n^k - J_k(n))
    from cyclokit.combinat import bernoulli_plus, stirling_second

    for n in (3, 5, 9, 15):
        for k in range(1, 7):
            lhs = sum(
                (-1) ** j * stirling_second(k, j) * cd.log_deriv_inverse_cyclo_at_minus_one(n, j)
                for j in range(1, k + 1)
            )
            rhs = bernoulli_plus(k) * (2 ** k - 1) * Fraction(n ** k - nt.jordan_totient(k, n), k)
            assert lhs == rhs


def test_input_guards():
    with pytest.raises(InputError):
        cd.sigma_k(0, 5)
    with pytest.raises(InputError):
        cd.log_deriv_inverse_cyclo_at_minus_one(1, 1)
    with pytest.raises(DomainError):
        cd.phi_derivs_at_one(1, 2)
