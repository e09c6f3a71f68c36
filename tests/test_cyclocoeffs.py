import random
from fractions import Fraction
from math import prod

import pytest

from cyclokit import cyclocoeffs as cc
from cyclokit import cycloderiv
from cyclokit import numtheory as nt
from cyclokit.errors import InputError, InvariantError, ResourceError
from test_combinat import partitions


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


def test_coeff_moller_guardrail():
    k = cc.MOLLER_K_CAP
    assert k >= 32  # the benchmark's coefficient sweep asks for k <= 32
    for n in (2310, 30030):
        assert cc.coeff_moller(n, k) == cc.coeff_direct(n, k)
    for call in (cc.coeff_moller, cc.coeff_all_methods):
        with pytest.raises(ResourceError):
            call(30030, k + 1)


def _binom_mu(mu, lam):
    # generalized binomial C(mu, lam) for mu in {-1, 0, 1}
    if lam == 0:
        return 1
    if lam == 1:
        return mu
    return (-1) ** lam * (mu * (mu - 1)) // 2


def _coeff_moller_full_enumeration(n, k):
    # the Moller sum over every partition of k, every factor a generalized
    # binomial, vanishing ones included; it expands 1 - x = -Phi_1 at n = 1
    sign = -1 if n == 1 else 1
    if k == 0:
        return sign
    total = 0
    for vec in partitions(k):
        term = 1
        for j, lam in enumerate(vec, start=1):
            if lam:
                mu = nt.mobius(n // j) if n % j == 0 else 0
                term *= (-1) ** lam * _binom_mu(mu, lam)
                if term == 0:
                    break
        total += term
    return sign * total


def test_coeff_moller_matches_full_enumeration():
    for n in range(1, 120):
        for k in range(0, 15):
            assert cc.coeff_moller(n, k) == _coeff_moller_full_enumeration(n, k)


def test_coeff_moller_on_a_primorial_matches_the_recurrence():
    # 47# has 2^15 pairs (t, mu(n/t)); only the j <= k among them are parts
    n = prod(nt.primes_up_to(47))
    assert cc.coeff_prefix_recurrence(n, 40) == [cc.coeff_moller(n, k) for k in range(41)]


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
    rows = cycloderiv.c_table.cache_info().currsize
    with pytest.raises(ResourceError, match="guardrail TABLE_INDEX_LIMIT = 400"):
        cc.coeff_taylor_from_one(409, 1)  # phi = 408, refused before any c-table row
    assert cycloderiv.c_table.cache_info().currsize == rows
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


def test_taylor_from_one_agreement_up_to_the_table_index_limit():
    # phi(n) from 65 up to TABLE_INDEX_LIMIT
    rng = random.Random(2401)
    ns = [n for n in range(67, 1300) if 65 <= nt.euler_phi(n) <= 400]
    cases = [(n, rng.randrange(nt.euler_phi(n) + 1)) for n in rng.sample(ns, 2) + [401]]
    for n, k in cases + [(401, 200), (1010, 200)]:
        assert cc.coeff_taylor_from_one(n, k) == cc.coeff_direct(n, k), (n, k)


def test_taylor_from_one_refuses_a_derivative_not_divisible_by_its_factorial(monkeypatch):
    # Phi_n^(t)(1) / t! is an integer for every t; a list where one value is
    # off by 1 at t = 4 breaks that at every k <= 4, and no k above it reads t = 4
    def perturbed(n, K):
        derivs = cycloderiv.phi_derivs_at_one(n, K)
        derivs[4] += 1
        return derivs

    monkeypatch.setattr(cc, "phi_derivs_at_one", perturbed)
    for k in range(5):
        with pytest.raises(InvariantError, match=r"Phi_105\^\(4\)\(1\) is not divisible by 4!"):
            cc.coeff_taylor_from_one(105, k)
    assert cc.coeff_taylor_from_one(105, 7) == cc.coeff_direct(105, 7) == -2


def test_lehmer_partition_form():
    # a_n(k) = sum over partitions of prod_j (1/lambda_j!)(-r_j(n)/j)^lambda_j
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
    assert cc.coeff_all_methods(12, 2) == cc.coeff_taylor_from_one(12, 2) == -1
