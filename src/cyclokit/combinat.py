"""Bernoulli numbers, Stirling numbers, integer partitions and Bell polynomials.

All values are exact: integers where the quantity is integral, Fraction
otherwise.  Tables are built lazily row by row and cached for the identity
sweeps that hammer them.

A note on the second-kind recurrence: the consequence {k, 2} = 2^(k-1) - 1 and
the set-partition interpretation force the multiplier of {k-1, j} to be j.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterator, Sequence

from .errors import DomainError, InputError

Rational = Fraction | int

_B_PLUS: list[Fraction] = [Fraction(1)]


def bernoulli_plus(n: int) -> Fraction:
    """Bernoulli number B_n^+ = B_n(1); B_1^+ = 1/2."""
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    while len(_B_PLUS) <= n:
        m = len(_B_PLUS)
        s = sum(comb(m, k) * _B_PLUS[k] / (m - k + 1) for k in range(m))
        _B_PLUS.append(1 - s)
    return _B_PLUS[n]


def bernoulli_minus(n: int) -> Fraction:
    """Bernoulli number B_n^- = B_n(0); equals B_n^+ except that B_1^- = -1/2."""
    b = bernoulli_plus(n)
    return -b if n == 1 else b


@lru_cache(maxsize=None)
def _stirling1_row(k: int) -> tuple[int, ...]:
    # row k of the signed first-kind triangle, indices 0..k
    if k == 0:
        return (1,)
    prev = _stirling1_row(k - 1)
    row = [0] * (k + 1)
    for j in range(1, k + 1):
        row[j] = prev[j - 1] - (k - 1) * (prev[j] if j <= k - 1 else 0)
    return tuple(row)


def stirling_first(k: int, j: int) -> int:
    """Signed Stirling number of the first kind s(k, j)."""
    if k < 0 or j < 0:
        raise InputError("Stirling indices must be non-negative")
    if j > k:
        return 0
    return _stirling1_row(k)[j]


@lru_cache(maxsize=None)
def _stirling2_row(k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)
    prev = _stirling2_row(k - 1)
    row = [0] * (k + 1)
    for j in range(1, k + 1):
        row[j] = (prev[j - 1] if j - 1 <= k - 1 else 0) + j * (prev[j] if j <= k - 1 else 0)
    return tuple(row)


def stirling_second(k: int, j: int) -> int:
    """Stirling set number {k, j}: partitions of a k-set into j non-empty blocks."""
    if k < 0 or j < 0:
        raise InputError("Stirling indices must be non-negative")
    if j > k:
        return 0
    return _stirling2_row(k)[j]


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as multiplicity vectors (l_1, ..., l_k), so that
    sum(j * l_j) = k.  Returned in ascending lexicographic order.

    >>> partitions(2)
    ((0, 1), (2, 0))
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    out = []
    for mults in partitions_into_parts(k, range(1, k + 1)):
        vec = [0] * k
        for part, m in mults.items():
            vec[part - 1] = m
        out.append(tuple(vec))
    return tuple(sorted(out))


def partitions_into_parts(k: int, parts: Sequence[int]) -> Iterator[dict[int, int]]:
    """Partitions of k using only the given distinct positive parts."""
    parts = sorted(set(parts), reverse=True)

    def rec(rem: int, idx: int) -> Iterator[dict[int, int]]:
        if rem == 0:
            yield {}
            return
        if idx == len(parts):
            return
        part = parts[idx]
        for m in range(rem // part, -1, -1):
            for rest in rec(rem - m * part, idx + 1):
                if m:
                    rest = dict(rest)
                    rest[part] = m
                yield rest

    return rec(k, 0)


def bell_partial(k: int, j: int, xs: Sequence[Rational]) -> Fraction:
    """Partial Bell polynomial B_{k,j}(x_1, ..., x_{k-j+1})."""
    if not 1 <= j <= k:
        raise InputError(f"need 1 <= j <= k, got j={j}, k={k}")
    if len(xs) < k - j + 1:
        raise InputError(f"need at least {k - j + 1} arguments, got {len(xs)}")
    total = Fraction(0)
    for mults in partitions_into_parts(k, range(1, k - j + 2)):
        if sum(mults.values()) != j:
            continue
        coeff = factorial(k)
        term = Fraction(1)
        for part, m in mults.items():
            coeff //= factorial(m) * factorial(part) ** m
            term *= Fraction(xs[part - 1]) ** m
        total += coeff * term
    return total


def _bell_row(k: int, xs: Sequence[Rational]) -> list[Rational]:
    # B_0, ..., B_k by the binomial recurrence B_m = sum_j C(m-1, j-1) B_(m-j) x_j
    b: list[Rational] = [1]
    for m in range(1, k + 1):
        b.append(sum(comb(m - 1, j - 1) * b[m - j] * xs[j - 1] for j in range(1, m + 1)))
    return b


def bell_complete(k: int, xs: Sequence[Rational]) -> Rational:
    """Complete Bell polynomial B_k via the binomial recurrence; B_0 = 1.

    Stays in int when the arguments are ints.
    """
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    if len(xs) < k:
        raise InputError(f"need at least {k} arguments, got {len(xs)}")
    return _bell_row(k, xs)[k]


def exp_transform(logderivs: Sequence[Rational], base: Rational) -> list[Fraction]:
    """Derivatives of h from derivatives of log h at a point.

    Given ((log h)'(x), ..., (log h)^(K)(x)) and base = h(x) != 0, returns
    (h'(x), ..., h^(K)(x)) through h^(k) = h * B_k(logderivs), from one Bell
    row in integers: B_k(D x_1, D^2 x_2, ...) = D^k B_k(x) for a common denominator D.
    """
    if base == 0:
        raise DomainError("exp_transform needs a nonzero base value")
    xs = [Fraction(v) for v in logderivs]
    d = lcm(*(x.denominator for x in xs))
    zs = [x.numerator * (d // x.denominator) * d ** j for j, x in enumerate(xs)]
    base = Fraction(base)
    return [base * Fraction(z, d ** k) for k, z in enumerate(_bell_row(len(zs), zs)[1:], 1)]
