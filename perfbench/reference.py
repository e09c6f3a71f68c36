"""Independent integer arithmetic for benchmark inputs and their ground truth.

Nothing here imports cyclokit.  Every value the benchmark checks the library
against is computed by a different route than the library's own: cyclotomic
polynomials come from the truncated series prod_{d|n} (1 - x^d)^mu(n/d),
semigroup membership from a plain reachability table.
"""

from __future__ import annotations

import heapq
from math import gcd


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _apply_cyclotomic(c: list[int], n: int) -> int:
    # multiply the series c (truncated to len(c) terms) by
    # prod_{d|n} (1 - x^d)^mu(n/d); returns the sign that turns the product
    # into Phi_n, which is -1 only for n = 1 (1 - x = -Phi_1)
    top = len(c) - 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, top + 1):
                c[i] += c[i - d]
    return -1 if n == 1 else 1


def cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending."""
    return cyclotomic_product({n: 1})


def cyclotomic_product(factors: dict[int, int]) -> list[int]:
    """Coefficients of prod Phi_d^e over factors {d: e}, ascending.

    The product is a polynomial of known degree D, so its power series
    truncated after x^D is the polynomial itself.
    """
    degree = sum(e * euler_phi(d) for d, e in factors.items())
    c = [1] + [0] * degree
    sign = 1
    for d, e in factors.items():
        for _ in range(e):
            sign *= _apply_cyclotomic(c, d)
    return [sign * x for x in c]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_rem_monic(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f modulo the monic g."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        q = r[i]
        if q:
            for j in range(dg + 1):
                r[i - dg + j] -= q * g[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def semigroup_members(gens: list[int]) -> list[bool]:
    """Membership table of <gens> from 0 up to the first run of min(gens)
    consecutive members, after which every integer is a member."""
    m = min(gens)
    member = [True]
    run = 1
    x = 0
    while run < m:
        x += 1
        inside = any(x >= g and member[x - g] for g in gens)
        member.append(inside)
        run = run + 1 if inside else 0
    return member


def semigroup_gaps(gens: list[int]) -> list[int]:
    return [x for x, inside in enumerate(semigroup_members(gens)) if not inside]


def frobenius_number(gens: list[int]) -> int:
    """Largest integer outside <gens> (-1 when there is none), from the least
    member of each residue class mod min(gens), found by Dijkstra's method."""
    m = min(gens)
    least = [None] * m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        x, r = heapq.heappop(heap)
        if x > least[r]:
            continue
        for g in gens:
            y = x + g
            if least[y % m] is None or y < least[y % m]:
                least[y % m] = y
                heapq.heappush(heap, (y, y % m))
    return max(least) - m


def minimal_generators(gens: list[int]) -> list[int]:
    """Those g in gens that no sum of the other generators reaches."""
    out = []
    for g in sorted(set(gens)):
        others = [h for h in gens if h < g]
        reach = [True] + [False] * g
        for x in range(1, g + 1):
            reach[x] = any(x >= h and reach[x - h] for h in others)
        if not reach[g]:
            out.append(g)
    return out


def is_symmetric(gaps: list[int]) -> bool:
    """x in S exactly when F - x is a gap, for 0 <= x <= F."""
    if not gaps:
        return False
    F = max(gaps)
    gap_set = set(gaps)
    return all((x in gap_set) != (F - x in gap_set) for x in range(F + 1))


def semigroup_polynomial(gaps: list[int]) -> list[int]:
    """1 + (x - 1) sum over gaps g of x^g."""
    out = [0] * (max(gaps, default=-1) + 2)
    out[0] = 1
    for g in gaps:
        out[g] -= 1
        out[g + 1] += 1
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def coprime(*xs: int) -> bool:
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g == 1
