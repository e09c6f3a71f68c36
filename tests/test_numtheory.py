import math
from fractions import Fraction
from math import gcd

import pytest

from cyclokit import numtheory as nt
from cyclokit.errors import InputError, ResourceError


def test_mobius_values():
    assert nt.mobius(1) == 1
    assert nt.mobius(6) == 1
    assert nt.mobius(12) == 0
    assert nt.mobius(30) == -1


def test_mobius_divisors_are_the_nonzero_pairs_ascending():
    # the huge n walk their divisors, which share only factorize with the pairs
    for n in [*range(1, 2001), 2 ** 40, 3 ** 30, 2 * 3 ** 25 * 5 ** 3]:
        divs = range(1, n + 1) if n <= 2000 else nt.divisors(n)
        expected = [(t, nt.mobius(n // t)) for t in divs if n % t == 0 and nt.mobius(n // t)]
        assert list(nt.mobius_divisors(n)) == expected, n


def test_euler_phi_values():
    assert nt.euler_phi(6) == 2
    assert nt.euler_phi(30) == 8
    assert nt.euler_phi(1) == 1


def test_dedekind_psi_values():
    assert nt.dedekind_psi(6) == 12
    assert nt.dedekind_psi(10) == 18
    assert nt.dedekind_psi(33) == 48
    assert nt.dedekind_psi(1) == 1


def test_prime_power_value():
    assert nt.prime_power_value(8) == 2
    assert nt.prime_power_value(105) == 1
    assert nt.prime_power_value(1) == 1
    assert nt.prime_power_value(49) == 7


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_radical_is_the_product_of_the_distinct_prime_divisors():
    for n in range(1, 500):
        assert nt.radical(n) == math.prod(p for p in range(2, n + 1) if n % p == 0 and _is_prime(p))


def test_primes_up_to_returns_exactly_the_primes_up_to_its_limit():
    # once the shared list has grown past the limit, the answer must still
    # stop at the limit
    nt.primes_up_to(1000)
    assert nt.primes_up_to(10) == [2, 3, 5, 7]
    oracle = [p for p in range(1001) if _is_prime(p)]
    for limit in range(1001):
        assert nt.primes_up_to(limit) == [p for p in oracle if p <= limit]
    # each answer is a fresh list, so a caller may change it
    nt.primes_up_to(10).clear()
    assert nt.primes_up_to(10) == [2, 3, 5, 7]


def test_jordan_totient_values():
    assert nt.jordan_totient(2, 6) == 24
    for k in range(1, 6):
        assert nt.jordan_totient(k, 1) == 1
    assert nt.jordan_totient(3, 4) == 56
    # J_1 = phi, J_2 = phi * psi
    for n in range(1, 60):
        assert nt.jordan_totient(1, n) == nt.euler_phi(n)
        assert nt.jordan_totient(2, n) == nt.euler_phi(n) * nt.dedekind_psi(n)


def test_jordan_totient_mobius_sum_form():
    for k in range(1, 5):
        for n in range(1, 80):
            expected = sum(nt.mobius(n // d) * d ** k for d in nt.divisors(n))
            assert nt.jordan_totient(k, n) == expected


def test_ramanujan_sum_values():
    for n in range(1, 51):
        assert nt.ramanujan_sum(1, n) == nt.mobius(n)
    assert nt.ramanujan_sum(2, 4) == -2
    for k in range(10):
        assert nt.ramanujan_sum(k, 1) == 1
    # k = 0 convention: r_0(n) = phi(n)
    for n in range(1, 40):
        assert nt.ramanujan_sum(0, n) == nt.euler_phi(n)


def _ramanujan_sum_holder(k, n):
    # Holder's closed form mu(n/(n,k)) phi(n) / phi(n/(n,k))
    m = n // gcd(n, k)
    return nt.mobius(m) * nt.euler_phi(n) // nt.euler_phi(m)


def test_ramanujan_holder_agrees_with_kluyver():
    for n in range(1, 301):
        for k in range(0, 3 * n + 1):
            assert _ramanujan_sum_holder(k, n) == nt.ramanujan_sum(k, n), (k, n)
    assert _ramanujan_sum_holder(2, 4) == -2
    assert _ramanujan_sum_holder(1, 6) == 1
    for n in range(1, 60):
        assert _ramanujan_sum_holder(n, n) == nt.euler_phi(n)


def test_ramanujan_sum_on_a_primorial_agrees_with_holder():
    # 47# has 15 prime factors: 2^15 pairs (t, mu(n/t)), one factor per prime
    n = math.prod(nt.primes_up_to(47))
    ks = list(range(0, 300)) + [n, 2 * n, n // 47, 6 * n // 47, 10 ** 30 + 1]
    for k in ks:
        assert nt.ramanujan_sum(k, n) == _ramanujan_sum_holder(k, n), k
    for n in (2 ** 40, 3 ** 30, 2 * 3 ** 25 * 5 ** 3):
        for k in (0, 1, 2, 6, n // 6, n // 2, n):
            assert nt.ramanujan_sum(k, n) == _ramanujan_sum_holder(k, n), (k, n)


def test_ramanujan_matches_float_root_sum():
    for n in range(1, 101):
        for k in range(1, 101):
            approx = sum(
                math.cos(2 * math.pi * j * k / n) for j in range(1, n + 1) if gcd(j, n) == 1
            )
            assert abs(nt.ramanujan_sum(k, n) - approx) < 1e-6


def test_ramanujan_periodicity():
    for n in range(1, 101):
        for k in range(1, 101):
            assert nt.ramanujan_sum(k, n) == nt.ramanujan_sum(k + n, n)


def test_alpha():
    assert nt.alpha(3) == 2
    assert nt.alpha(6) == Fraction(1, 2)
    assert nt.alpha(12) == 1
    for n in range(1, 300):
        assert nt.n_alpha(n) == (nt.alpha(n) * n).numerator
        if n != 2:
            assert nt.euler_phi(nt.n_alpha(n)) == nt.euler_phi(n)


@pytest.mark.parametrize("f", [nt.mobius, nt.euler_phi, nt.dedekind_psi])
def test_multiplicative(f):
    for a in range(1, 201):
        for b in range(a, 201):
            if a * b > 200:
                break
            if gcd(a, b) == 1:
                assert f(a * b) == f(a) * f(b)


def test_jordan_multiplicative():
    for k in range(1, 6):
        for a in range(1, 201):
            for b in range(a, 201):
                if a * b > 200:
                    break
                if gcd(a, b) == 1:
                    assert nt.jordan_totient(k, a * b) == nt.jordan_totient(k, a) * nt.jordan_totient(k, b)


def test_divisor_sums():
    for n in range(1, 501):
        assert sum(nt.mobius(d) for d in nt.divisors(n)) == (1 if n == 1 else 0)
    for k in range(1, 5):
        for n in range(1, 501):
            assert sum(nt.jordan_totient(k, d) for d in nt.divisors(n)) == n ** k


def test_input_errors():
    with pytest.raises(InputError):
        nt.mobius(0)
    with pytest.raises(InputError):
        nt.jordan_totient(0, 5)
    with pytest.raises(InputError):
        nt.ramanujan_sum(-1, 5)


def test_totient_sieve():
    phi = nt.totient_sieve(1000)
    for n in range(1, 1001):
        assert phi[n] == nt.euler_phi(n)


def test_factorize_grows_primes_only_as_far_as_the_cofactor(monkeypatch):
    # the old route sieved up to isqrt(n) first (2^30 entries for 2^60); a
    # guard on the sieve makes any such request fail instead of allocating
    sieve = nt.primes_up_to

    def bounded_sieve(limit):
        assert limit <= 10 ** 4, f"sieve requested up to {limit}"
        return sieve(limit)

    monkeypatch.setattr(nt, "primes_up_to", bounded_sieve)
    before = nt._prime_limit
    uncached = nt.factorize.__wrapped__
    assert uncached(2 ** 60) == ((2, 60),)
    assert uncached(2 * 3 ** 40) == ((2, 1), (3, 40))
    assert nt._prime_limit == before
    # the cofactor 10007 left after 101 and 103 needs primes up to 107 only
    assert uncached(101 * 103 * 10007) == ((101, 1), (103, 1), (10007, 1))
    assert nt._prime_limit <= max(before, 2 * 107)


def test_factorize_refuses_cofactors_beyond_the_sieve_guardrail(monkeypatch):
    # a fresh prime list and a guardrail of 1000: cofactors below 1001^2 still
    # factor exactly, larger ones with no prime factor up to 1000 are refused,
    # and the sieve is never asked for more than the guardrail
    limit = 1000
    monkeypatch.setattr(nt, "PRIME_SIEVE_LIMIT", limit)
    monkeypatch.setattr(nt, "_prime_list", [2, 3, 5, 7, 11, 13])
    monkeypatch.setattr(nt, "_prime_limit", 13)
    sieve = nt.primes_up_to

    def bounded_sieve(n):
        assert n <= limit, f"sieve requested up to {n}"
        return sieve(n)

    monkeypatch.setattr(nt, "primes_up_to", bounded_sieve)
    uncached = nt.factorize.__wrapped__
    assert uncached(997 * 997) == ((997, 2),)  # 997 is the largest prime <= 1000
    assert uncached(997 * 1009) == ((997, 1), (1009, 1))
    assert uncached(1000003) == ((1000003, 1),)  # a prime just below 1001^2
    assert uncached(2 * 3 * 1000003) == ((2, 1), (3, 1), (1000003, 1))
    assert uncached(2 ** 60) == ((2, 60),)
    assert uncached(2 * 3 ** 40) == ((2, 1), (3, 40))
    for n in (1009 * 1009, 1009 * 1013, 1000000000000000003, 2 * 1009 * 1013):
        with pytest.raises(ResourceError, match="PRIME_SIEVE_LIMIT"):
            uncached(n)
    assert nt._prime_limit == limit
    with pytest.raises(ResourceError, match="PRIME_SIEVE_LIMIT"):
        sieve(limit + 1)
