from fractions import Fraction

import pytest

from cyclokit import cyclocoeffs as cc
from cyclokit import numtheory as nt
from cyclokit.combinat import partitions
from cyclokit.errors import InputError, ResourceError


def test_coeff_direct():
    assert cc.coeff_direct(105, 7) == -2
    for n in range(2, 40):
        assert cc.coeff_direct(n, 0) == 1
        assert cc.coeff_direct(n, nt.euler_phi(n) + 3) == 0
    assert cc.coeff_direct(6, 1) == -1


def test_coeff_moller():
    assert cc.coeff_moller(105, 7) == -2
    # Phi_1 = x - 1, not Moller's 1 - x
    assert [cc.coeff_moller(1, k) for k in (0, 1, 2)] == [-1, 1, 0]
    for n in range(2, 80):
        assert cc.coeff_moller(n, 1) == -nt.mobius(n)
        mu1 = nt.mobius(n)
        mu2 = nt.mobius(n // 2) if n % 2 == 0 else 0
        assert cc.coeff_moller(n, 2) == (mu1 * mu1 - mu1 - 2 * mu2) // 2


def _coeff_moller_full_enumeration(n, k):
    # the Moller sum over every partition of k, not only those into parts j
    # with mu(n/j) != 0; it expands 1 - x = -Phi_1 at n = 1
    sign = -1 if n == 1 else 1
    if k == 0:
        return sign
    total = 0
    for vec in partitions(k):
        term = 1
        for j, lam in enumerate(vec, start=1):
            if lam:
                term *= (-1) ** lam * cc._binom_mu(cc._mu_at(n, j), lam)
                if term == 0:
                    break
        total += term
    return sign * total


def test_coeff_moller_matches_full_enumeration():
    for n in range(1, 31):
        for k in range(0, 11):
            assert cc.coeff_moller(n, k) == _coeff_moller_full_enumeration(n, k)


def test_coeff_prefix_recurrence():
    assert cc.coeff_prefix_recurrence(105, 7)[-1] == -2
    assert cc.coeff_prefix_recurrence(6, 2) == [1, -1, 1]
    for p in (2, 3, 5, 7, 11):
        assert cc.coeff_prefix_recurrence(p, p - 1) == [1] * p


def test_coeff_bell():
    assert cc.coeff_bell(105, 7) == -2
    assert cc.coeff_bell(4, 2) == 1
    # third-derivative value at 0 in terms of Mobius values
    for n in range(2, 101):
        mu1 = nt.mobius(n)
        mu2 = nt.mobius(n // 2) if n % 2 == 0 else 0
        mu3 = nt.mobius(n // 3) if n % 3 == 0 else 0
        expected = 3 * mu1 * mu1 - 3 * mu1 + 6 * mu2 * mu1 - 6 * mu3
        assert cc.coeff_bell(n, 3) * 6 == expected


def test_coeff_taylor_from_one():
    assert cc.coeff_taylor_from_one(5, 2) == 1
    assert cc.coeff_taylor_from_one(6, 1) == -1
    assert cc.coeff_taylor_from_one(12, 2) == -1
    with pytest.raises(ResourceError):
        cc.coeff_taylor_from_one(211, 1)  # phi = 210 over the default cap
    with pytest.raises(InputError):
        cc.coeff_taylor_from_one(5, 5)


def test_four_way_agreement_small():
    for n in range(2, 81):
        top = min(nt.euler_phi(n), 12)
        rec = cc.coeff_prefix_recurrence(n, top)
        for k in range(top + 1):
            direct = cc.coeff_direct(n, k)
            assert cc.coeff_moller(n, k) == direct
            assert rec[k] == direct
            assert cc.coeff_bell(n, k) == direct


def test_taylor_from_one_agreement_small():
    for n in range(2, 26):
        for k in range(0, min(nt.euler_phi(n), 8) + 1):
            assert cc.coeff_taylor_from_one(n, k) == cc.coeff_direct(n, k)


def test_lehmer_partition_form():
    # a_n(k) = sum over partitions of prod_j (1/lambda_j!)(-r_j(n)/j)^lambda_j
    from cyclokit.combinat import partitions

    def lehmer(n, k):
        if k == 0:
            return 1
        total = Fraction(0)
        for vec in partitions(k):
            term = Fraction(1)
            for j, lam in enumerate(vec, start=1):
                if lam:
                    base = Fraction(-nt.ramanujan_sum(j, n), j)
                    fact = 1
                    for i in range(2, lam + 1):
                        fact *= i
                    term *= base ** lam / fact
            total += term
        assert total.denominator == 1
        return total.numerator

    for n in range(2, 61):
        for k in range(0, 11):
            assert lehmer(n, k) == cc.coeff_bell(n, k)


def test_symmetry():
    for n in range(2, 121):
        d = nt.euler_phi(n)
        for k in range(d + 1):
            assert cc.coeff_direct(n, k) == cc.coeff_direct(n, d - k)


def test_recurrence_returns_zeros_beyond_degree():
    for n in (3, 4, 6, 10):
        d = nt.euler_phi(n)
        vals = cc.coeff_prefix_recurrence(n, d + 5)
        assert all(v == 0 for v in vals[d + 1 :])


def test_coeff_all_methods():
    assert cc.coeff_all_methods(105, 7) == -2
    assert cc.coeff_all_methods(12, 2, include_taylor=True) == -1
