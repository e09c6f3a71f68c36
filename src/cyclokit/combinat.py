"""Bernoulli numbers, Stirling numbers, integer partitions and Bell polynomials.

All values are exact: integers where the quantity is integral, Fraction
otherwise.  Tables are built lazily row by row and cached for the identity
sweeps that hammer them.  The Bernoulli list, the two Stirling triangles and
the Pascal rows grow by appending, and refuse with ResourceError any index
above TABLE_INDEX_LIMIT.  The Pascal rows are the one source of binomials:
the Bernoulli step and both Bell recurrences read C(m, i) from them, so each
Bell entry is one integer dot product.  The exponential transform works on
the integers d^k x_k over the common denominator d of its arguments and
makes one Fraction per returned value.

A note on the second-kind recurrence: the consequence {k, 2} = 2^(k-1) - 1 and
the set-partition interpretation force the multiplier of {k-1, j} to be j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterator, Sequence

from .errors import DomainError, InputError, check_guardrail

Rational = Fraction | int

# largest n for which B_n and the Stirling rows k <= n are built; each table
# grows by an O(n) step per index, and the Fraction sums of B_n grow with n:
# `cyclokit bernoulli 400` takes about 1 s from a cold start (Python 3.11,
# 2 vCPU)
TABLE_INDEX_LIMIT = 400

_B_PLUS: list[Fraction] = [Fraction(1)]
_S1_ROWS: list[tuple[int, ...]] = [(1,)]  # signed first kind, row k has indices 0..k
_S2_ROWS: list[tuple[int, ...]] = [(1,)]
_PASCAL_ROWS: list[tuple[int, ...]] = [(1,)]  # row m is C(m, 0), ..., C(m, m)


def check_table_index(n: int) -> None:
    """Raise ResourceError for an index above TABLE_INDEX_LIMIT."""
    check_guardrail("index", n, "TABLE_INDEX_LIMIT", TABLE_INDEX_LIMIT)


def _table_entry(table: list, n: int, step):
    # table[n], appending step(m, table) for m = len(table), ..., n first; a
    # table never grows past TABLE_INDEX_LIMIT, so a built row needs no check
    if n >= len(table):
        check_table_index(n)
        while len(table) <= n:
            table.append(step(len(table), table))
    return table[n]


def _pascal_step(m: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    prev = rows[m - 1]
    return (1,) + tuple(map(add, prev, prev[1:])) + (1,)


def _binomials(m: int) -> tuple[int, ...]:
    # (C(m, 0), ..., C(m, m)); refuses m above TABLE_INDEX_LIMIT
    return _table_entry(_PASCAL_ROWS, m, _pascal_step)


def _bernoulli_step(m: int, b: list[Fraction]) -> Fraction:
    return 1 - sum(c * bk / (m - k + 1) for k, (c, bk) in enumerate(zip(_binomials(m), b)))


def _stirling1_step(k: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    # s(k, j) = s(k-1, j-1) - (k-1) s(k-1, j), with s(k-1, k) = 0
    prev = rows[k - 1] + (0,)
    return (0,) + tuple(prev[j - 1] - (k - 1) * prev[j] for j in range(1, k + 1))


def _stirling2_step(k: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    # {k, j} = {k-1, j-1} + j {k-1, j}, with {k-1, k} = 0
    prev = rows[k - 1] + (0,)
    return (0,) + tuple(prev[j - 1] + j * prev[j] for j in range(1, k + 1))


def bernoulli_plus(n: int) -> Fraction:
    """Bernoulli number B_n^+ = B_n(1); B_1^+ = 1/2."""
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    return _table_entry(_B_PLUS, n, _bernoulli_step)


def bernoulli_minus(n: int) -> Fraction:
    """Bernoulli number B_n^- = B_n(0); equals B_n^+ except that B_1^- = -1/2."""
    b = bernoulli_plus(n)
    return -b if n == 1 else b


def stirling_first(k: int, j: int) -> int:
    """Signed Stirling number of the first kind s(k, j)."""
    if k < 0 or j < 0:
        raise InputError("Stirling indices must be non-negative")
    if j > k:
        return 0
    return _table_entry(_S1_ROWS, k, _stirling1_step)[j]


def stirling_second(k: int, j: int) -> int:
    """Stirling set number {k, j}: partitions of a k-set into j non-empty blocks."""
    if k < 0 or j < 0:
        raise InputError("Stirling indices must be non-negative")
    if j > k:
        return 0
    return _table_entry(_S2_ROWS, k, _stirling2_step)[j]


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


def over_common_denominator(xs: Sequence[Rational]) -> tuple[int, list[int]]:
    """The least common denominator d of the xs and the integers d * x_i."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _bell_arguments(xs: Sequence[Rational]) -> tuple[int, list[int]]:
    # d and the integers z_i = d^i x_i for the common denominator d of the
    # x_i; a Bell polynomial of weight k is homogeneous, B(z) = d^k B(x)
    d, nums = over_common_denominator(xs)
    return d, [z * d ** i for i, z in enumerate(nums)]


def bell_partial(k: int, j: int, xs: Sequence[Rational]) -> Fraction:
    """Partial Bell polynomial B_{k,j}(x_1, ..., x_{k-j+1}).

    By the recurrence B_{k,j} = sum_i C(k-1, i-1) x_i B_{k-i,j-1}, in
    integers over a common denominator: O(j (k - j)^2) terms.  Refuses k above
    TABLE_INDEX_LIMIT with ResourceError.
    """
    if not 1 <= j <= k:
        raise InputError(f"need 1 <= j <= k, got j={j}, k={k}")
    check_table_index(k)
    if len(xs) < k - j + 1:
        raise InputError(f"need at least {k - j + 1} arguments, got {len(xs)}")
    top = k - j
    d, zs = _bell_arguments(xs[:top + 1])
    # row[t] = B_{t+level, level}, which needs z_1, ..., z_(t+1); B_{t+1,1} is
    # z_(t+1), and the terms C(n, i) z_(i+1) of n = t + level - 1 serve every
    # level that reaches that n
    terms = [list(map(mul, _binomials(n), zs)) for n in range(k)]
    row = zs
    for level in range(2, j + 1):
        row = [sum(map(mul, terms[t + level - 1], reversed(row[:t + 1]))) for t in range(top + 1)]
    return Fraction(row[top], d ** k)


def _bell_row(k: int, xs: Sequence[Rational]) -> list[Rational]:
    # B_0, ..., B_k by the binomial recurrence B_m = sum_j C(m-1, j-1) x_j B_(m-j),
    # each B_m one dot product of Pascal row m - 1 with the x_j and B_(m-1), ..., B_0
    b: list[Rational] = [1]
    for m in range(1, k + 1):
        b.append(sum(map(mul, map(mul, _binomials(m - 1), xs), reversed(b))))
    return b


def bell_complete(k: int, xs: Sequence[Rational]) -> Rational:
    """Complete Bell polynomial B_k via the binomial recurrence; B_0 = 1.

    Stays in int when the arguments are ints.  Refuses k above
    TABLE_INDEX_LIMIT with ResourceError.
    """
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    check_table_index(k)
    if len(xs) < k:
        raise InputError(f"need at least {k} arguments, got {len(xs)}")
    return _bell_row(k, xs)[k]


def _exp_from_bell_arguments(base: Rational, d: int, zs: Sequence[int]) -> list[Fraction]:
    # h B_k(x) for k = 1..len(zs) from the integers z_k = d^k x_k, since
    # B_k(z) = d^k B_k(x): one Fraction per value, over den(h) d^k
    num, den = base.as_integer_ratio()
    out = []
    for b in _bell_row(len(zs), zs)[1:]:
        den *= d
        out.append(Fraction(num * b, den))
    return out


def exp_transform(logderivs: Sequence[Rational], base: Rational) -> list[Fraction]:
    """Derivatives of h from derivatives of log h at a point.

    Given ((log h)'(x), ..., (log h)^(K)(x)) and base = h(x) != 0, returns
    (h'(x), ..., h^(K)(x)) through h^(k) = h * B_k(logderivs), from one Bell
    row in integers: B_k(D x_1, D^2 x_2, ...) = D^k B_k(x) for a common
    denominator D.  Refuses K above TABLE_INDEX_LIMIT with ResourceError
    before the row is built.
    """
    if base == 0:
        raise DomainError("exp_transform needs a nonzero base value")
    check_table_index(len(logderivs))
    return _exp_from_bell_arguments(base, *_bell_arguments(logderivs))
