"""Multiplicative arithmetic functions, Jordan totients and Ramanujan sums.

Everything here is exact integer (or Fraction) arithmetic.  Factorization is
plain trial division against a shared prime sieve that grows only as far as
the cofactor left to split needs, and never past PRIME_SIEVE_LIMIT = L: a
cofactor of at least (L + 1)^2 with no prime factor up to L is refused with
ResourceError, so every n below (L + 1)^2 (about 4.4 * 10^12), and any n
whose cofactor falls below that square, factors exactly.  mobius_divisors
gives the pairs (t, mu(n/t)) of every product over (1 - x^t)^mu(n/t).
factorize, euler_phi, prime_power_value, jordan_totient, mobius_divisors and
ramanujan_sum memoize; the caches and the shared lists only ever grow, so
concurrent readers are safe under the GIL.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

from .errors import InputError, check_guardrail

# the shared sieve never grows past this: 155 611 primes, about 0.13 s to build
PRIME_SIEVE_LIMIT = 2 ** 21

_prime_list: list[int] = [2, 3, 5, 7, 11, 13]
_prime_limit = 13


def primes_up_to(limit: int) -> list[int]:
    """Exactly the primes <= limit, ascending: a fresh slice of the shared list.

    Raises ResourceError for a limit above PRIME_SIEVE_LIMIT.
    """
    global _prime_list, _prime_limit
    check_guardrail("sieve limit", limit, "PRIME_SIEVE_LIMIT", PRIME_SIEVE_LIMIT)
    if limit > _prime_limit:
        new_limit = min(max(limit, 2 * _prime_limit), PRIME_SIEVE_LIMIT)
        sieve = bytearray([1]) * (new_limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(new_limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(range(p * p, new_limit + 1, p))
        _prime_list = [i for i in range(new_limit + 1) if sieve[i]]
        _prime_limit = new_limit
    return _prime_list[: bisect_right(_prime_list, limit)]


def _ascending_primes():
    # walks the shared prime list, doubling it whenever the walk reaches its
    # end, and stops after the last prime up to PRIME_SIEVE_LIMIT
    i = 0
    while True:
        while i == len(_prime_list):
            if _prime_limit >= PRIME_SIEVE_LIMIT:
                return
            primes_up_to(_prime_limit + 1)
        yield _prime_list[i]
        i += 1


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p strictly increasing.

    Primes are divided out in ascending order until p^2 exceeds the remaining
    cofactor, so the prime list only grows as far as that cofactor needs:
    2^60 and 2 * 3^40 never touch a prime above 5.  A cofactor that would
    need a prime above PRIME_SIEVE_LIMIT raises ResourceError.
    """
    if n < 1:
        raise InputError(f"factorize requires n >= 1, got {n}")
    out = []
    m = n
    for p in _ascending_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    else:
        # no prime up to the guardrail L divides m, so m is prime if m < (L + 1)^2
        check_guardrail(
            f"factorize: a cofactor of {m.bit_length()} bits has no prime factor up to the sieve "
            "limit, and its square root", isqrt(m), "PRIME_SIEVE_LIMIT", PRIME_SIEVE_LIMIT,
        )
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _check_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise InputError(f"{name} must be a positive integer, got {n}")


def mobius(n: int) -> int:
    """Mobius function: (-1)^r on squarefree n with r prime factors, else 0."""
    _check_positive(n)
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, phi(1) = 1."""
    _check_positive(n)
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def dedekind_psi(n: int) -> int:
    """Dedekind psi: n * prod_{p|n} (1 + 1/p), psi(1) = 1."""
    _check_positive(n)
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p + 1)
    return out


@lru_cache(maxsize=None)
def prime_power_value(n: int) -> int:
    """p when n = p^k (k >= 1), else 1.

    This is exp(Lambda(n)) as an exact integer, i.e. the value of the n-th
    cyclotomic polynomial at 1 for n > 1.
    """
    _check_positive(n)
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0][0]
    return 1


def radical(n: int) -> int:
    """rad(n), the product of the distinct primes dividing n; rad(1) = 1."""
    return prod(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def jordan_totient(k: int, n: int) -> int:
    """Jordan totient J_k(n) = n^k * prod_{p|n} (1 - p^{-k}), exactly."""
    _check_positive(k, "k")
    _check_positive(n)
    out = 1
    for p, e in factorize(n):
        out *= p ** (k * (e - 1)) * (p ** k - 1)
    return out


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    _check_positive(n)
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (t, mu(n/t)) over the divisors t of n with mu(n/t) != 0,
    ascending in t: n/t runs over the 2^omega(n) squarefree divisors of n."""
    _check_positive(n)
    pairs = [(n, 1)]
    for p, _ in factorize(n):
        pairs += [(t // p, -mu) for t, mu in pairs]
    return tuple(sorted(pairs))


@lru_cache(maxsize=None)
def ramanujan_sum(k: int, n: int) -> int:
    """Ramanujan sum r_k(n) = sum_{t | (n, k)} mu(n/t) t, with r_0(n) = phi(n):
    each t with mu(n/t) != 0 takes p^e or p^(e-1) from each p^e || n, so the
    sum is prod_p (p^e [p^e | k] - p^(e-1) [p^(e-1) | k]), in omega(n) steps."""
    _check_positive(n)
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    return prod((k % p ** e == 0) * p ** e - (k % p ** (e - 1) == 0) * p ** (e - 1)
                for p, e in factorize(n))


def n_alpha(n: int) -> int:
    """n * alpha(n): 2n for odd n, n/2 when n == 2 (mod 4), n when 4 | n."""
    _check_positive(n)
    if n % 2 == 1:
        return 2 * n
    if n % 4 == 2:
        return n // 2
    return n


def alpha(n: int) -> Fraction:
    """The index multiplier relating values of Phi_n at x and Phi_{n*alpha} at -x.

    2 for odd n, 1/2 when n == 2 (mod 4), 1 when 4 | n.
    """
    return Fraction(n_alpha(n), n)


_phi_sieve: list[int] = [0, 1]


def totient_sieve(limit: int) -> list[int]:
    """Totient table phi[0..limit] (shared list, grown geometrically; read-only).

    No library route needs the table; the tests use it as the oracle for the
    inverse-totient candidate enumeration of the kronecker module.
    """
    global _phi_sieve
    if limit >= len(_phi_sieve):
        size = max(limit + 1, 2 * len(_phi_sieve))
        phi = list(range(size))
        for p in range(2, size):
            if phi[p] == p:  # p prime
                for m in range(p, size, p):
                    phi[m] -= phi[m] // p
        _phi_sieve = phi
    return _phi_sieve
