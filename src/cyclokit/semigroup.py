"""Numerical semigroups, semigroup polynomials and the gap-family application.

A semigroup is held in Kunz coordinates: the Apery set w_0, ..., w_(m-1) of
its multiplicity m, w_r being its least element = r (mod m) (Kunz 1987;
Rosales, Garcia-Sanchez, Garcia-Garcia & Branco, J. London Math. Soc. 65,
2002).  One builder reads off the rest: F = max w - m, and x is a gap iff
x < w_(x mod m).

From generators, the round-robin algorithm (Bocker & Liptak, Algorithmica
48, 2007) adds them in ascending order to the table of <m>.  A generator a
with w_(a mod m) <= a lies in the semigroup of the ones before it and is
skipped in O(1); any other is a minimal generator and costs m steps, one lap
per residue class mod gcd(a, m).  So the Apery set and the minimal
generators come out of one pass, and the set is closed by construction.

From a gap set, w_r is the largest gap in each class plus m.  Class r != 0
can hold only the gaps r, r + m, ..., w_r - m and class 0 none, so each
class of the complement is closed under adding m exactly when genus * m =
sum_r (w_r - r), one count on the Apery set.  The complement is a semigroup
exactly when the round robin over m and the w_r reaches this Apery set
again, and then its minimal generators are those of the complement:
O(F + m e) for e minimal generators.  Where e is a large share of m, as for
S_k and its children, one sweep over the pairs r <= s of nonzero residues
reads the Kunz inequalities w_r + w_s >= w_(r+s) instead, in O(F + m^2): one
that fails means the gap set is not the complement of a semigroup, and one
that holds with equality makes w_(r+s) no minimal generator.  The sweep also
decides every gap set the round robin does not accept, so a refusal always
names the sum that hits a gap.

The family S_k = {0, k, k+1, ...} minus {2k-1} has semigroup polynomial
f_k = 1 - x + x^k - x^(2k-1) + x^(2k); the certification pipeline shows S_k
is cyclotomic exactly for k <= 4, and the appendix-style child constructions
produce symmetric non-cyclotomic semigroups for every odd Frobenius number
from 9 on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from operator import index

from .errors import ConstructionError, InputError, InvariantError, check_guardrail
from .kronecker import (
    Certificate,
    certify,
    factor_kronecker,
    poly_div_exact,
)
from . import polyring
from .polyring import IntPoly, cyclotomic_product, log_derivative_values


@dataclass(frozen=True)
class NumericalSemigroup:
    """Cofinite additive submonoid of the naturals."""

    minimal_generators: tuple[int, ...]
    gaps: tuple[int, ...]
    frobenius: int
    genus: int
    multiplicity: int

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        # below F + 1 the sorted gaps end in F, so the search lands on an entry
        return x > self.frobenius or self.gaps[bisect_left(self.gaps, x)] != x

    def to_json_obj(self) -> dict:
        return {
            "minimal_generators": list(self.minimal_generators),
            "gaps": list(self.gaps),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
        }


# largest number of Apery-kernel steps: the round robin of from_generators
# costs m steps per minimal generator, bounded by m * (number of distinct
# generators), and the Kunz sweep of from_gaps one step per pair of nonzero
# residues, m(m - 1)/2.  from_gaps may run the round robin first, for at
# most max(4, (m - 1) // 8) laps of m steps, so a gap set it then hands to
# the sweep costs at most 5/4 of the pairs plus 5m steps.  At this limit
# `semigroup info --gens 4096,...,8191`, all minimal, takes about 1.7 s from
# a cold start; in-process, from_gaps takes about 0.6 s on the gaps 1..5792
# (the sweep alone) and 1.0 s at m = 5793 on w_1 = m + 1, w_2 = 2m + 2 and
# w_r = 2m + r (the round robin up to its budget, then the sweep), on
# Python 3.11, 2 vCPU
ROUND_ROBIN_LIMIT = 2 ** 24


def _round_robin(m: int, gens: list[int], most: int | None = None) -> tuple[list[int], list[int]] | None:
    # the Apery set mod m of the semigroup generated by gens (ascending, m
    # among them) and its minimal generators, or None, before its lap, on
    # finding more than `most` of them (m included).  A least element is a
    # sum of at most m - 1 generators other than m (a longer sum has a subsum
    # = 0 mod m, whose removal leaves a smaller element of the class), so
    # every reached entry w_r, and w_r + a with it, stays below the unreached
    # mark
    unreached = m * gens[-1] + 1
    w = [unreached] * m
    w[0] = 0
    minimal = [m]
    for a in gens:
        if w[a % m] <= a:
            continue
        if len(minimal) == most:
            return None
        minimal.append(a)
        # a moves within the classes mod d = gcd(a, m); one lap per class
        # from its least entry, which a cannot lower, sets w_(r+a) to
        # min(w_(r+a), w_r + a) all the way round
        d, step = gcd(a, m), a % m
        for c in range(d):
            cls = w[c::d]
            r = c + d * cls.index(min(cls))
            cur = w[r]
            for _ in range(m // d - 1):
                r += step
                if r >= m:
                    r -= m
                cur += a
                if cur < w[r]:
                    w[r] = cur
                else:
                    cur = w[r]
    return w, minimal


def _kunz_sweep(apery: list[int]) -> list[int]:
    # the minimal generators of a gap set's Apery set.  One sweep over the
    # residue pairs r <= s reads both Kunz conditions at t = r + s (mod m),
    # wrapped[r + s] = w_t: w_r + w_s < w_t is a gap in the complement's sums,
    # and w_r + w_s = w_t makes w_t no minimal generator
    m = len(apery)
    wrapped = apery + apery
    decomposable = set()
    for r in range(1, m):
        wr = apery[r]
        for ws, wt in zip(apery[r:], wrapped[2 * r:r + m]):
            if wr + ws <= wt:
                if wr + ws < wt:
                    raise InputError(f"complement not closed: {wr} + {ws} hits gap {wr + ws}")
                decomposable.add(wt)
    return [m] + [w for w in apery[1:] if w not in decomposable]


def _apery_minimal(apery: list[int]) -> list[int]:
    # the minimal generators of a gap set's Apery set.  The round robin over
    # m and the w_r reaches the Apery set of the semigroup they generate,
    # which is apery exactly when the complement of the gaps is closed; on any
    # other outcome the sweep decides, and names the sum that hits a gap.  A
    # lap costs about twice as much per step as the sweep does per pair, so
    # the round robin gives up past max(4, (m - 1) // 8) minimal generators
    # besides m, and a set that has more w_r below 2 min w, each certainly
    # minimal (a sum of two nonzero w is not that small), skips it
    m = len(apery)
    most = 1 + max(4, (m - 1) // 8)
    nonzero = sorted(apery[1:])
    if m > 1 and bisect_left(nonzero, 2 * nonzero[0]) >= most:
        return _kunz_sweep(apery)
    found = _round_robin(m, [m] + nonzero, most)
    if found is None or found[0] != apery:
        return _kunz_sweep(apery)
    return found[1]


def _frobenius(apery: list[int]) -> int:
    frobenius = max(apery) - len(apery)
    # P_S has degree F + 1, a dense list like those polyring allocates
    check_guardrail("degree F + 1 =", frobenius + 1, "DEGREE_GUARDRAIL", polyring.DEGREE_GUARDRAIL)
    return frobenius


def _from_apery(
    apery: list[int], frobenius: int, minimal: list[int], gaps: tuple[int, ...] | None = None
) -> NumericalSemigroup:
    # gaps, when the caller has them sorted, are not read off apery again
    m = len(apery)
    if gaps is None:
        gaps = tuple(x for x in range(1, frobenius + 1) if x < apery[x % m])
    return NumericalSemigroup(
        minimal_generators=tuple(sorted(minimal)),
        gaps=gaps,
        frobenius=frobenius,
        genus=len(gaps),
        multiplicity=m,
    )


def _integers(values, what: str) -> list[int]:
    # the values by operator.index, so a float, a string or a Fraction is
    # refused, by name, instead of truncated or parsed
    values = tuple(values)
    try:
        return list(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise InputError(f"{what} must be integers, got {bad!r}") from None


def from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by gens, integers with gcd 1."""
    gens = _integers(gens, "generators")
    if not gens or any(g < 1 for g in gens):
        raise InputError("generators must be positive integers")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise InputError(f"gcd of generators is {g}, not 1 (complement would be infinite)")
    gens = sorted(set(gens))
    # F + 1 >= m when m > 1, so a multiplicity above the limit is refused
    # before the m-entry table is allocated; the round robin's m steps per
    # minimal generator are bounded before it starts
    m = gens[0]
    check_guardrail("least generator", m, "DEGREE_GUARDRAIL", polyring.DEGREE_GUARDRAIL)
    check_guardrail("m * generators =", m * len(gens), "ROUND_ROBIN_LIMIT", ROUND_ROBIN_LIMIT)
    apery, minimal = _round_robin(m, gens)
    return _from_apery(apery, _frobenius(apery), minimal)


def from_gaps(gaps) -> NumericalSemigroup:
    """The numerical semigroup with the given gap set, integers; validates closure."""
    gaps = tuple(sorted(set(_integers(gaps, "gaps"))))
    if gaps and gaps[0] < 1:
        raise InputError("gaps must be positive integers")
    m = 1
    while m <= len(gaps) and gaps[m - 1] == m:
        m += 1
    # w_r is the largest gap = r (mod m) plus m; class r != 0 holds at most
    # the (w_r - r)/m gaps r, r + m, ..., w_r - m, and class 0 must hold
    # none, so the complement is closed under adding m exactly when the genus
    # reaches sum_r (w_r - r)/m
    apery = [0] * m
    for z in gaps:
        apery[z % m] = z + m
    if m * len(gaps) != sum(apery) - m * (m - 1) // 2:
        # the gaps above m are gaps[m - 1:]
        z = next(z for z in gaps[m - 1:] if gaps[bisect_left(gaps, z - m)] != z - m)
        raise InputError(f"complement not closed: {m} + {z - m} hits gap {z}")
    # the degree, then the m(m - 1)/2 residue pairs, are refused before either kernel
    frobenius = _frobenius(apery)
    check_guardrail("residue pairs m(m - 1)/2 =", m * (m - 1) // 2, "ROUND_ROBIN_LIMIT", ROUND_ROBIN_LIMIT)
    return _from_apery(apery, frobenius, _apery_minimal(apery), gaps)


def is_symmetric(S: NumericalSemigroup) -> bool:
    """x in S if and only if F - x is a gap; since the map x -> F - x sends
    the non-gaps below F into the gaps, that holds iff 2 * genus = F + 1.
    S = N (F = -1) counts as not symmetric."""
    return S.frobenius >= 0 and 2 * S.genus == S.frobenius + 1


def semigroup_polynomial(S: NumericalSemigroup) -> IntPoly:
    """P_S = 1 + (x - 1) sum over gaps g of x^g; monic of degree F + 1."""
    out = [1] + [0] * (S.frobenius + 1)
    for g in S.gaps:
        out[g] -= 1
        out[g + 1] += 1
    return IntPoly(out)


def is_cyclotomic(S: NumericalSemigroup) -> Certificate:
    """Certificate for P_S being Kronecker (then S is called cyclotomic)."""
    return certify(semigroup_polynomial(S))


# ---------------------------------------------------------------------------
# the S_k family

def fk_poly(k: int) -> IntPoly:
    """1 - x + x^k - x^(2k-1) + x^(2k), the semigroup polynomial of S_k."""
    terms = _fk_terms(k)
    out = [0] * (2 * k + 1)
    for i, c in terms:
        out[i] += c
    return IntPoly(out)


def _fk_terms(k: int) -> tuple[tuple[int, int], ...]:
    # the (exponent, coefficient) terms of f_k
    if k < 1:
        raise InputError("k must be >= 1")
    return (0, 1), (1, -1), (k, 1), (2 * k - 1, -1), (2 * k, 1)


def s_k(k: int) -> NumericalSemigroup:
    """S_k = {0, k, k+1, ...} minus {2k-1}: gaps 1..k-1 and 2k-1."""
    if k < 1:
        raise InputError("k must be >= 1")
    return from_gaps(list(range(1, k)) + [2 * k - 1])


_FK_DIVISOR_TABLE = (6, 10, 12)


def fk_gcd_pattern(k: int) -> tuple[int, ...]:
    """Indices d in {6, 10, 12} with Phi_d dividing f_k; no square of the
    three may divide f_k.

    Phi_d divides x^d - 1, so it divides f_k exactly when it divides f_k
    folded modulo x^d - 1 (exponents taken mod d), a residue of degree below
    d; Phi_d^2 divides f_k exactly when Phi_d also divides f_k'.  No
    polynomial of degree 2k is built.
    """
    f_terms = _fk_terms(k)
    df_terms = [(e - 1, e * c) for e, c in f_terms if e]
    found = []
    for d in _FK_DIVISOR_TABLE:
        phi_d = polyring.cyclotomic(d)
        if poly_div_exact(_fold(f_terms, d), phi_d) is not None:
            if poly_div_exact(_fold(df_terms, d), phi_d) is not None:
                raise InvariantError(f"Phi_{d}^2 divides f_{k}")
            found.append(d)
    return tuple(found)


def _fold(terms, d: int) -> IntPoly:
    # sum of c x^(e mod d) over the terms c x^e
    out = [0] * d
    for e, c in terms:
        out[e % d] += c
    return IntPoly(out)


def fk_no_other_cyclotomic_factors(k: int) -> bool:
    """True when no Phi_n with n outside {6, 10, 12} divides f_k.

    Decided by the complete factorization factor_kronecker(f_k), which covers
    every n with phi(n) <= deg f_k.
    """
    if k < 1:
        raise InputError("need k >= 1")
    return set(factor_kronecker(fk_poly(k)).factors) <= set(_FK_DIVISOR_TABLE)


def fk_remainder(k: int) -> IntPoly:
    """f_k divided by gcd(f_k, Phi_6 Phi_10 Phi_12)."""
    gcd_poly = cyclotomic_product(dict.fromkeys(fk_gcd_pattern(k), 1), IntPoly((1,)))
    return poly_div_exact(fk_poly(k), gcd_poly)


# ---------------------------------------------------------------------------
# appendix constructions

def child_symmetric(S: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """The symmetric child (S minus {x}) union {F - x} of a symmetric S.

    Preconditions (each reported by name on failure): x is a minimal
    generator, F/2 < x < F, 2x - F is a gap, 3x != 2F, 4x != 3F, and
    F - x is below the multiplicity.  Symmetry and the Frobenius number of
    the child are re-verified rather than trusted.
    """
    F = S.frobenius
    if not is_symmetric(S):
        raise ConstructionError("S symmetric", f"semigroup with gaps {S.gaps} is not symmetric")
    if x not in S.minimal_generators:
        raise ConstructionError("x minimal generator", f"{x} is not a minimal generator")
    if not (2 * x > F and x < F):
        raise ConstructionError("F/2 < x < F", f"x={x}, F={F}")
    if S.contains(2 * x - F):
        raise ConstructionError("2x - F not in S", f"2*{x} - {F} = {2 * x - F} is in S")
    if 3 * x == 2 * F:
        raise ConstructionError("3x != 2F", f"3*{x} = 2*{F}")
    if 4 * x == 3 * F:
        raise ConstructionError("4x != 3F", f"4*{x} = 3*{F}")
    if not F - x < S.multiplicity:
        raise ConstructionError("F - x < multiplicity", f"{F - x} >= {S.multiplicity}")
    new_gaps = (set(S.gaps) - {F - x}) | {x}
    child = from_gaps(new_gaps)
    if child.frobenius != F or not is_symmetric(child):
        raise InvariantError("child construction lost symmetry or the Frobenius number")
    return child


def noncyclotomic_symmetric_with_frobenius(F: int) -> NumericalSemigroup:
    """A symmetric non-cyclotomic numerical semigroup with Frobenius number F.

    F must be odd and at least 9.  The three smallest cases are fixed
    machine-found generator lists; beyond them, F = 3 (mod 4) uses the
    double-child construction from S_k with k = (F+1)/2 even, and
    F = 1 (mod 4) uses the single child swapping k+1 for k-2 with k odd.
    The result is verified: symmetric, Frobenius number F, and certified
    non-Kronecker semigroup polynomial.
    """
    if F % 2 == 0 or F < 9:
        raise InputError(f"need an odd F >= 9, got {F}")
    if F == 9:
        S = from_generators([5, 6, 7, 8])
    elif F == 11:
        S = from_generators([5, 7, 8, 9])
    elif F == 15:
        S = from_generators([6, 7, 10, 11])
    else:
        k = (F + 1) // 2
        base = s_k(k)
        if F % 4 == 3:
            S = child_symmetric(child_symmetric(base, k), k + 2)
        else:
            S = child_symmetric(base, k + 1)
    if S.frobenius != F or not is_symmetric(S):
        raise InvariantError(f"construction for F={F} failed verification")
    cert = is_cyclotomic(S)
    if cert.is_kronecker:
        raise InvariantError(f"construction for F={F} is cyclotomic")
    return S


# ---------------------------------------------------------------------------
# the theorem sweep

# largest k_max the sweep takes; it certifies f_k of degree 2k for every
# k <= k_max, about 1.5 s at this limit (Python 3.11, 2 vCPU)
FK_SWEEP_LIMIT = 500


def fk_theorem_sweep(k_max: int) -> list[dict]:
    """Rows {k, F_k, gcd_pattern, verdict, factorization} for k = 1..k_max.

    Asserts, with the failing k named: F_k = (2/B_2^+)((log f_k)'(1) +
    (log f_k)''(1)) = 48k - 24 computed from the oracle, the second
    derivative values f_k''(1) = k^2 + 3k - 2 and (log f_k)''(1) = 3k - 2,
    the gcd pattern of fk_gcd_pattern against the {6, 10, 12} part of the
    factorization certify returns, and that S_k is cyclotomic exactly for
    k <= 4.
    """
    if k_max < 5:
        raise InputError("k_max must be >= 5")
    check_guardrail("k_max", k_max, "FK_SWEEP_LIMIT", FK_SWEEP_LIMIT)
    rows = []
    for k in range(1, k_max + 1):
        f = fk_poly(k)
        logs = log_derivative_values(f, 2, 1)
        f_k_value = 12 * (logs[0] + logs[1])
        if f_k_value != 48 * k - 24:
            raise InvariantError(f"F_k recomputation failed at k={k}: {f_k_value}")
        if f.derivative(2)(1) != k * k + 3 * k - 2:
            raise InvariantError(f"f_k''(1) mismatch at k={k}")
        if logs[1] != 3 * k - 2:
            raise InvariantError(f"(log f_k)''(1) mismatch at k={k}")
        cert = certify(f)
        if (k <= 4) != cert.is_kronecker:
            raise InvariantError(f"S_k cyclotomicity wrong at k={k}: {cert.verdict}")
        pattern = fk_gcd_pattern(k)
        part = {d: e for d, e in cert.factorization.factors.items() if d in _FK_DIVISOR_TABLE}
        if part != dict.fromkeys(pattern, 1):
            raise InvariantError(f"gcd pattern {pattern} disagrees with the factorization at k={k}: {part}")
        rows.append(
            {
                "k": k,
                "F_k": int(f_k_value),
                "gcd_pattern": list(pattern),
                "verdict": cert.verdict,
                "factorization": cert.factorization.to_json_obj(),
            }
        )
    return rows
