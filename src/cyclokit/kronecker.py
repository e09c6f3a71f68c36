"""Kronecker factorization and certification.

A monic integer polynomial with all roots in the closed unit disc factors as
x^e0 times a product of cyclotomic polynomials, so trial division against
every Phi_d with phi(d) <= deg f is a complete decision procedure.  The
candidate indices {d : phi(d) <= deg f} are enumerated directly, by a
depth-first search over prime powers that keeps the running totient within
the degree (the inverse-totient enumeration of Contini, Croot and
Shparlinski), in time near-linear in the number of candidates; the search
runs once per binary order of magnitude of the degree and is cached.

Every division by a Phi_d is screened first by the integer divisibility
tests Phi_d(2) | f(2) and then Phi_d(3) | f(3), repeated before each further
division by the same Phi_d; Phi_d(3) is computed only for the d that pass at
2 (a few in ten thousand at degree 5500), each value in a bounded cache of
its own.  Only survivors are divided, and only division decides.  The
factorization is the only test of Phi_d-divisibility here: every
multiplicity the later stages need is read off it.

certify factors first and checks the factorization against f by rebuilding
the product with polyring.cyclotomic_product, the Mobius series Phi_d =
prod_{t | d} (1 - x^t)^mu(d/t) (Arnold and Monagan) that builds every product
of cyclotomic polynomials, one O(deg) pass per factor (1 - x^t).  A Kronecker
verdict comes from the factorization and that check alone.  The analytic
stages, gathered in analytic_certificate, run only when the remainder is
nontrivial: they are necessary conditions on a Kronecker polynomial, so they
can certify a non-Kronecker input but never decide a Kronecker one.  They are
sign tests at a few small integers on the real line, the vanishing odd-order
Stirling-weighted logarithmic-derivative sums, and the even-order
Jordan-totient lower bounds refined through root-of-unity exclusions and the
multiplicities the factorization found.  Each decides in integers; Fractions
are built only for the witnesses of a certificate that fires.  The sign
values come in pairs: f(1), f(-1) and f(0) are coefficient sums, and f(x),
f(-x) = E(x^2) +- x O(x^2) for the even and odd parts E, O.
The Stirling stages all read one row (log f)^(j)(+-1), j <= LOG_ROW_ORDER,
per point, as polyring hands it over: integers D (log f)^(j)(+-1) over a
common denominator D > 0.  A sum of order k is one integer dot product of the
first k of them with the weights (+-1)^j {k, j}, cached per (k, point); the
even bounds compare it with the Jordan-totient terms times D.  The bounds
need the least ratio J_k(j)/phi(j) over the indices j outside the exclusions
and the indices of the three least ratios; both are read off one walk over
the indices in ascending ratio order.  The exclusion families are tested
symbolically above the first ratio table (j <= 128); within it, where the
walks test most indices, membership is one bit of a mask built once per
excluded_set and extended by every with_extra.  Every certificate carries the
witness values needed to recheck it without re-running the search, except a
nontrivial_remainder one: its reconstruction can be rechecked, but the claim
that the remainder has no cyclotomic factor needs the search again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .combinat import bernoulli_plus, stirling_second
from .errors import InputError, InvariantError, PoleError, rat_str
from .numtheory import (
    euler_phi,
    jordan_totient,
    prime_power_value,
    primes_up_to,
)
from .polyring import (
    IntPoly,
    cyclotomic,
    cyclotomic_product,
    cyclotomic_value,
    log_derivative_row,
    norm_at_root_of_unity,
    poly_div_exact,
)

VERDICT_KRONECKER = "kronecker"
VERDICT_NON_KRONECKER = "non_kronecker"

REASON_NEGATIVE_AT_ONE = "negative_at_one"
REASON_NEGATIVE_AT_MINUS_ONE = "negative_at_minus_one"
REASON_NEGATIVE_AT_POINT = "negative_at_point"
REASON_ODD_IDENTITY = "odd_identity_violation"
REASON_EVEN_BOUND = "even_bound_violation"
REASON_REMAINDER = "nontrivial_remainder"

@dataclass
class CycloFactorization:
    """f = x^e0 * prod Phi_d^(e_d) * remainder, with a monic remainder that has
    no further cyclotomic or monomial divisors."""

    e0: int
    factors: dict[int, int]
    remainder: IntPoly

    def reconstruct(self) -> IntPoly:
        """x^e0 * prod Phi_d^(e_d) * remainder, by the Mobius series."""
        return cyclotomic_product(self.factors, IntPoly((0,) * self.e0 + self.remainder.coeffs))

    @property
    def is_kronecker(self) -> bool:
        return self.remainder == IntPoly((1,))

    def to_json_obj(self) -> dict:
        return {
            "e0": self.e0,
            "factors": {str(d): e for d, e in sorted(self.factors.items())},
            "remainder": list(self.remainder.coeffs),
            "is_kronecker": self.is_kronecker,
        }


@dataclass
class Certificate:
    """Outcome of certification, checkable from its embedded witnesses."""

    verdict: str
    reason: str | None = None
    k: int | None = None
    witnesses: tuple[Fraction, ...] = ()
    details: dict = field(default_factory=dict)
    factorization: CycloFactorization | None = None

    @property
    def is_kronecker(self) -> bool:
        return self.verdict == VERDICT_KRONECKER

    def to_json_obj(self) -> dict:
        out = {
            "verdict": self.verdict,
            "reason": self.reason,
            "k": self.k,
            "witnesses": [rat_str(w) for w in self.witnesses],
            "details": _jsonify(self.details),
        }
        if self.factorization is not None:
            out["factorization"] = self.factorization.to_json_obj()
        return out


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [_jsonify(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# candidate enumeration and screening

def cyclotomic_candidates(max_degree: int) -> list[tuple[int, int]]:
    """All (d, phi(d)) with phi(d) <= max_degree, ascending in d.

    Filtered once per degree out of the cached table for the bound
    2^k - 1 >= max_degree, k = max_degree.bit_length(), so the degrees of one
    binary order of magnitude share one search; the caller gets a fresh list.
    """
    return list(_candidates_within(max_degree))


@lru_cache(maxsize=256)
def _candidates_within(max_degree: int) -> tuple[tuple[int, int], ...]:
    if max_degree < 1:
        return ()
    table = _candidate_table((1 << max_degree.bit_length()) - 1)
    return tuple(c for c in table if c[1] <= max_degree)


@lru_cache(maxsize=64)
def _candidate_table(max_degree: int) -> tuple[tuple[int, int], ...]:
    # depth-first over the primes p <= max_degree + 1 in ascending order, each
    # taken to an exponent e >= 1 while the running totient, multiplied by
    # p^(e-1) (p - 1), stays within max_degree; every node of the search is
    # one candidate, so the work is proportional to their number
    primes = primes_up_to(max_degree + 1)
    out = []
    stack = [(0, 1, 1)]  # (index of the next usable prime, d, phi(d))
    while stack:
        i, d, phi = stack.pop()
        out.append((d, phi))
        for j in range(i, len(primes)):
            p = primes[j]
            phi_p = phi * (p - 1)
            if phi_p > max_degree:
                break
            d_p = d * p
            while phi_p <= max_degree:
                stack.append((j + 1, d_p, phi_p))
                d_p *= p
                phi_p *= p
    out.sort()
    return tuple(out)


# one entry per candidate d in each cache: factor_kronecker screens 10 665 at
# degree 5500, the CLI's CERTIFY_DEGREE_LIMIT, so a second call there finds
# them all cached; Phi_d(3) is computed only for the d that pass at 2
@lru_cache(maxsize=2 ** 14)
def _screen_value_2(d: int) -> int:
    return cyclotomic_value(d, 2)


@lru_cache(maxsize=2 ** 14)
def _screen_value_3(d: int) -> int:
    return cyclotomic_value(d, 3)


def factor_kronecker(f: IntPoly) -> CycloFactorization:
    """Exact decomposition x^e0 * prod Phi_d^(e_d) * remainder of a monic f."""
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if not f.is_monic():
        raise InputError("factor_kronecker requires a monic polynomial")
    e0 = 0
    while f.coeffs[e0] == 0:
        e0 += 1
    g = IntPoly(f.coeffs[e0:])
    factors: dict[int, int] = {}
    g2, g3 = g(2), g(3)
    deg = g.degree
    # the list copy costs a fraction of a microsecond, and going through the
    # public name lets perfbench's tracer count the candidates
    for d, phid in cyclotomic_candidates(deg):
        while phid <= deg:
            # Phi_d | g over Z forces Phi_d(2) | g(2) and Phi_d(3) | g(3)
            v2 = _screen_value_2(d)
            if g2 % v2:
                break
            v3 = _screen_value_3(d)
            if g3 % v3:
                break
            q = poly_div_exact(g, cyclotomic(d))
            if q is None:
                break
            g = q
            deg -= phid
            g2 //= v2
            g3 //= v3
            factors[d] = factors.get(d, 0) + 1
    return CycloFactorization(e0, factors, g)


# ---------------------------------------------------------------------------
# sign tests

def sign_tests(f: IntPoly) -> Certificate | None:
    """Real-line positivity tests: a Kronecker f has f(1) >= 0; when moreover
    f(0) != 0 and f(1) > 0 it has f(-1) >= 0, and when f(-1) > 0 it is
    positive on the whole real line, so any integer x with f(x) <= 0 is a
    certificate.  Only 2 <= |x| <= min(3, B) is sampled, where B = 1 +
    max|coeff| bounds the roots; the sample is a cheap early exit, and trial
    division still decides whatever it misses.

    With f(x) = E(x^2) + x O(x^2) for the even and odd parts E and O, f(1),
    f(-1) and f(0) are coefficient sums, and each pair f(x), f(-x) costs one
    Horner pass over E and one over O at x^2; the points are tested in the
    order -3, -2, 2, 3."""
    if not f.is_monic():
        raise InputError("sign_tests requires a monic polynomial")
    coeffs = f.coeffs
    evens, odds = coeffs[0::2], coeffs[1::2]
    even_sum, odd_sum = sum(evens), sum(odds)
    v1 = even_sum + odd_sum
    if v1 < 0:
        return _sign_certificate(REASON_NEGATIVE_AT_ONE, 1, v1)
    if coeffs[0] == 0 or v1 == 0:
        return None
    vm1 = even_sum - odd_sum
    if vm1 < 0:
        return _sign_certificate(REASON_NEGATIVE_AT_MINUS_ONE, -1, vm1)
    if vm1 == 0:
        return None
    values = {}
    for x in range(2, min(3, 1 + max(map(abs, coeffs))) + 1):
        e, o = _horner(evens, x * x), x * _horner(odds, x * x)
        values[-x], values[x] = e - o, e + o
    for x in sorted(values):
        if values[x] <= 0:
            return _sign_certificate(REASON_NEGATIVE_AT_POINT, x, values[x])
    return None


def _horner(coeffs: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_certificate(reason: str, x: int, value: int) -> Certificate:
    return Certificate(VERDICT_NON_KRONECKER, reason, witnesses=(Fraction(x), Fraction(value)))


# ---------------------------------------------------------------------------
# Stirling-weighted logarithmic-derivative machinery

@lru_cache(maxsize=64)
def _stirling_weights(k: int, point: int) -> tuple[int, ...]:
    # point^j {k, j} for j = 1..k
    return tuple(point ** j * stirling_second(k, j) for j in range(1, k + 1))


def _stirling_numerator(nums: list[int], k: int, point: int) -> int:
    # sum_{j <= k} point^j {k, j} nums[j - 1]: with nums a row over its
    # denominator D, the Stirling sum of order k is this integer over D
    return sum(map(mul, _stirling_weights(k, point), nums))


LOG_ROW_ORDER = 5
# a row (D, [D (log f)^(j)(x) for j <= K]) over a common denominator D > 0, or None
LogRows = dict[int, tuple[int, list[int]] | None]


def log_rows(f: IntPoly) -> LogRows:
    """{1: row, -1: row}, each polyring.log_derivative_row(f, LOG_ROW_ORDER,
    point), or None where f vanishes.

    Every Stirling stage of certify (orders 2..K) reads these two rows: the
    sum of order k is one integer dot product of the first k entries of a row
    with the weights point^j {k, j}, over D.
    """
    rows: LogRows = {}
    for point in (1, -1):
        try:
            rows[point] = log_derivative_row(f, LOG_ROW_ORDER, point)
        except PoleError:
            rows[point] = None
    return rows


def odd_identity_check(logs: LogRows, k: int) -> Certificate | None:
    """For odd k >= 3 the Stirling-weighted sums vanish on every Kronecker
    polynomial (B_k^+ = 0); a nonzero value at +1 or -1 is a certificate.
    logs is the log_rows of the polynomial; points where it vanishes are
    skipped."""
    if k < 3 or k % 2 == 0 or k > LOG_ROW_ORDER:
        raise InputError(f"odd_identity_check needs odd 3 <= k <= {LOG_ROW_ORDER}")
    for point in (1, -1):
        if logs[point] is None:
            continue
        den, nums = logs[point]
        total = _stirling_numerator(nums, k, point)
        if total:
            return Certificate(
                VERDICT_NON_KRONECKER,
                REASON_ODD_IDENTITY,
                k=k,
                witnesses=tuple(Fraction(z, den) for z in nums[:k]) + (Fraction(total, den),),
                details={"point": point},
            )
    return None


# ---------------------------------------------------------------------------
# excluded index families from root-of-unity evaluations

_RATIO_WALK_START = 128  # limit of the first ratio table; doubled as a walk needs


@dataclass(frozen=True)
class ExcludedIndices:
    """Symbolic description of indices d whose Phi_d cannot divide f.

    allowed_primes pairs each handled m in {1, 2, 3, 4, 6} with the primes
    q <= deg f + 1 for which q^2 divides |f(zeta_m)|^2; the whole family
    {m q^j : j >= 1} is excluded for every other prime q.  The families are
    infinite, so membership is decided symbolically above _RATIO_WALK_START,
    the limit of the first ratio table.  At or below it, where the ratio
    walks test most indices, it is one bit of a mask of the excluded indices
    there, built from allowed_primes once per excluded_set and extended by
    with_extra.  extra holds explicitly excluded single indices; 1 is always
    excluded.
    """

    allowed_primes: tuple[tuple[int, frozenset[int]], ...]
    skipped: tuple[int, ...] = ()
    extra: frozenset[int] = frozenset()
    # bit d set for each excluded d <= _RATIO_WALK_START; built when left out,
    # so a copy with other allowed_primes or extra must leave it out
    _low: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._low is None:
            object.__setattr__(self, "_low", _family_mask(self.allowed_primes) | _low_bits(self.extra))

    def with_extra(self, indices) -> "ExcludedIndices":
        indices = frozenset(indices)
        return ExcludedIndices(
            self.allowed_primes, self.skipped, self.extra | indices, self._low | _low_bits(indices)
        )

    def excludes(self, d: int) -> bool:
        if d <= _RATIO_WALK_START:
            return self._low >> d & 1 == 1
        if d in self.extra:
            return True
        for m, allowed in self.allowed_primes:
            # d = m q^j for the prime q = prime_power_value(d / m) > 1
            if d % m == 0 and (q := prime_power_value(d // m)) > 1 and q not in allowed:
                return True
        return False

    def describe(self) -> dict:
        return {
            "allowed_primes": {str(m): sorted(qs) for m, qs in self.allowed_primes},
            "skipped": list(self.skipped),
            "extra": sorted(self.extra),
        }


@lru_cache(maxsize=8)
def _index_families(m: int) -> tuple[int, dict[int, int]]:
    # the indices m q^j <= _RATIO_WALK_START, j >= 1, as a bit mask (bit d
    # for index d) over every prime q, and one mask for each q apart
    by_prime = {}
    for q in primes_up_to(_RATIO_WALK_START // m):
        mask = 0
        d = m * q
        while d <= _RATIO_WALK_START:
            mask |= 1 << d
            d *= q
        by_prime[q] = mask
    return sum(by_prime.values()), by_prime  # the masks are disjoint


def _low_bits(indices: frozenset[int]) -> int:
    # bit d set for each index d <= _RATIO_WALK_START
    return sum(1 << d for d in indices if d <= _RATIO_WALK_START)


def _family_mask(allowed_primes: tuple[tuple[int, frozenset[int]], ...]) -> int:
    # bit d set for d = 1 and every m q^j <= _RATIO_WALK_START, j >= 1, with
    # the prime q not allowed for m
    out = 1 << 1
    for m, allowed in allowed_primes:
        every, by_prime = _index_families(m)
        for q in allowed:
            every &= ~by_prime.get(q, 0)
        out |= every
    return out


def excluded_set(f: IntPoly, factors: dict[int, int]) -> ExcludedIndices:
    """Forbidden cyclotomic index families derived from |f(zeta_m)|^2.

    If Phi_{m q^j} divides f then q^2 divides the norm |f(zeta_m)|^2, so any
    prime with q^2 not dividing the norm rules out the whole family.  Only
    the primes q <= deg f + 1 are tested: for a larger q, phi(m q^j) >= q - 1
    exceeds deg f, so that family is excluded whatever the norm.  Each m
    needs f(zeta_d) != 0 for all d <= m; an m whose hypothesis fails is
    skipped and recorded.  That hypothesis is read off factors, the
    multiplicities of factor_kronecker(f): f(zeta_d) = 0 exactly when Phi_d
    divides f.
    """
    primes = primes_up_to(f.degree + 1)
    handled = []
    skipped = []
    for m in (1, 2, 3, 4, 6):
        if any(factors.get(d, 0) for d in range(1, m + 1)):
            skipped.append(m)
            continue
        norm2 = norm_at_root_of_unity(f, m)
        if norm2 == 0:
            raise InvariantError(f"norm vanished at m={m} despite divisor check")
        allowed = frozenset(q for q in primes if norm2 % (q * q) == 0)
        handled.append((m, allowed))
    return ExcludedIndices(tuple(handled), tuple(skipped))


_MU_SCAN_LIMIT = 10 ** 6


@lru_cache(maxsize=16)
def _ratio_table(k: int, limit: int) -> tuple[tuple[int, int], ...]:
    # (psi_k(j), j) for 2 <= j <= limit, ascending.  psi_k is multiplicative
    # with psi_k(p^e) = p^((k-1)(e-1)) (p^k - 1)/(p - 1), so one pass over the
    # multiples of each prime power p^e <= limit builds every value
    psi = [1] * (limit + 1)
    for p in primes_up_to(limit):
        step = (p ** k - 1) // (p - 1)
        q = p
        while q <= limit:
            for m in range(q, limit + 1, q):
                psi[m] *= step
            step = p ** (k - 1)
            q *= p
    return tuple(sorted(zip(psi[2:], range(2, limit + 1))))


def _ratio_walk(k: int, C: ExcludedIndices) -> Iterator[tuple[int, int]]:
    """(psi_k(j), j) for the indices j >= 2 outside C, in ascending order,
    where psi_k(j) = J_k(j)/phi(j) is an integer.

    psi_k(j) >= j^(k-1), so the table of the j <= L holds, in their global
    order, every index with psi_k(j) <= L^(k-1); the walk reads that part of
    it and moves on to the table for 2L when the caller asks for more.
    """
    done = 0  # every index with psi_k(j) <= done has been walked
    limit = _RATIO_WALK_START
    while True:
        table = _ratio_table(k, limit)
        bound = limit ** (k - 1)
        excludes = C.excludes
        for i in range(bisect_left(table, (done + 1,)), bisect_left(table, (bound + 1,))):
            r, j = table[i]
            if not excludes(j):
                yield r, j
        if limit == _MU_SCAN_LIMIT:
            raise InvariantError("mu_C scan exhausted; excluded set admits no index")
        done, limit = bound, min(2 * limit, _MU_SCAN_LIMIT)


def mu_C(k: int, C: ExcludedIndices) -> Fraction:
    """min of J_k(j)/phi(j) over indices j outside C, for k >= 2.

    The ratio is the integer psi_k(j) = prod_{p^e || j} p^((k-1)(e-1))
    (p^k - 1)/(p - 1), at least j^(k-1); the minimum is the first value of
    the walk over the indices outside C in ascending ratio order.
    """
    if k < 2:
        raise InputError("mu_C is used for k >= 2")
    return Fraction(next(_ratio_walk(k, C))[0])


def _small_low_ratio_indices(k: int, C: ExcludedIndices) -> list[int]:
    # the indices outside C whose ratio is among the three smallest values
    # there; these get their multiplicities determined exactly before the
    # bound is applied
    small: list[int] = []
    values = 0
    last = None
    for r, j in _ratio_walk(k, C):
        if r != last:
            if values == 3:
                break
            values += 1
            last = r
        small.append(j)
    return sorted(small)


def even_bound_check(
    logs: LogRows,
    k: int,
    degree: int,
    C: ExcludedIndices,
    known_divisors: dict[int, int],
) -> Certificate | None:
    """Jordan-totient lower bound for even k >= 2.

    logs is the log_rows of a polynomial f of the given degree with f(0) != 0.
    At +1, a Kronecker f satisfies M = (k/B_k^+) sum_j {k,j} (log f)^(j)(1)
    = sum e_d J_k(d).  known_divisors maps index d to the exact multiplicity
    of Phi_d in f as determined by trial division; a multiplicity of 0 still
    matters, since a proven-absent index joins the excluded set and raises
    the minimum ratio.  After subtracting the known contributions, the
    residue must be at least mu_C(k) times the remaining degree.  At -1 the
    baseline (3^k - 1)/2 per degree applies.  Points where f vanishes are
    skipped.
    """
    if k < 2 or k % 2 or k > LOG_ROW_ORDER:
        raise InputError(f"even_bound_check needs even 2 <= k <= {LOG_ROW_ORDER}")
    # with k/B_k^+ = a/b, b > 0, and a row (D, nums), M = a N / (b D) for the
    # integer Stirling sum N; both bounds are compared in integers over b D
    a, b = (Fraction(k) / bernoulli_plus(k)).as_integer_ratio()
    if logs[1] is not None:
        den, nums = logs[1]
        over = b * den
        n_plus = a * _stirling_numerator(nums, k, 1)
        known = sum(e * jordan_totient(k, d) for d, e in known_divisors.items())
        deg_rest = degree - sum(e * euler_phi(d) for d, e in known_divisors.items())
        c_known = C.with_extra(known_divisors)
        mu = mu_C(k, c_known)
        if n_plus - known * over < mu.numerator * deg_rest * over:
            residue = Fraction(n_plus - known * over, over)
            return Certificate(
                VERDICT_NON_KRONECKER,
                REASON_EVEN_BOUND,
                k=k,
                witnesses=(Fraction(n_plus, over), residue, mu, Fraction(deg_rest)),
                details={
                    "point": 1,
                    "excluded": c_known.describe(),
                    "known_divisors": dict(known_divisors),
                    "lhs": residue,
                    "rhs": mu * deg_rest,
                },
            )
    if logs[1] is not None and logs[-1] is not None:
        den, nums = logs[-1]
        n_minus = a * _stirling_numerator(nums, k, -1)
        if 2 * n_minus < (3 ** k - 1) * degree * b * den:
            m_minus = Fraction(n_minus, b * den)
            baseline = Fraction(3 ** k - 1, 2) * degree
            return Certificate(
                VERDICT_NON_KRONECKER,
                REASON_EVEN_BOUND,
                k=k,
                witnesses=(m_minus, baseline),
                details={"point": -1, "lhs": m_minus, "rhs": baseline},
            )
    return None


# ---------------------------------------------------------------------------
# full pipeline

def analytic_certificate(g: IntPoly, factorization: CycloFactorization) -> Certificate | None:
    """The first analytic non-Kronecker certificate for g, or None.

    g is the input f with its monomial part x^e0 stripped, and factorization
    is factor_kronecker(f); the stages read their multiplicities off it.  In
    order: sign tests (a certificate there records e0 as
    monomial_exponent_stripped when it is positive, since its witnesses refer
    to g), odd-order identity checks (odd 3 <= k <= LOG_ROW_ORDER), and
    root-of-unity exclusions feeding the refined even-order bound (even
    2 <= k <= LOG_ROW_ORDER), whose exact multiplicities for the low-ratio
    indices are those of the factorization.

    Every stage tests a necessary condition on a Kronecker polynomial, so the
    function is sound: it returns None on every Kronecker g.  It can certify a
    non-Kronecker g, but it never decides a Kronecker one.
    """
    cert = sign_tests(g)
    if cert is not None:
        if factorization.e0:
            cert.details["monomial_exponent_stripped"] = factorization.e0
        return cert
    if g.degree < 1:
        return None
    logs = log_rows(g)
    for k in range(3, LOG_ROW_ORDER + 1, 2):
        cert = odd_identity_check(logs, k)
        if cert is not None:
            return cert
    if logs[1] is None:
        return None
    # Phi_d is coprime to x, so its multiplicity in g is e_d of f
    C = excluded_set(g, factorization.factors)
    known = {d: factorization.factors.get(d, 0) for d in _small_low_ratio_indices(2, C)}
    for k in range(2, LOG_ROW_ORDER + 1, 2):
        cert = even_bound_check(logs, k, g.degree, C, known)
        if cert is not None:
            return cert
    return None


def certify(f: IntPoly) -> Certificate:
    """Decide whether f is Kronecker, preferring checkable certificates.

    The complete trial-division factorization comes first, checked
    coefficient by coefficient against f; a factorization that fails to
    reconstruct its input is an invariant violation.  The factorization
    decides and is attached to every certificate.  A trivial remainder gives
    the Kronecker verdict at once, from the factorization and that check
    alone.  Only when the remainder is nontrivial do the analytic stages run
    (analytic_certificate, on f with its monomial part stripped); the first
    certificate they find is returned, and a nontrivial_remainder one when
    none fires.
    """
    if not f.is_monic():
        raise InputError("certify requires a monic polynomial")
    factorization = factor_kronecker(f)
    if factorization.reconstruct() != f:
        raise InvariantError("factorization does not reconstruct the input")
    if factorization.is_kronecker:
        return Certificate(VERDICT_KRONECKER, factorization=factorization)
    cert = analytic_certificate(IntPoly(f.coeffs[factorization.e0:]), factorization)
    if cert is not None:
        cert.factorization = factorization
        return cert
    return Certificate(
        VERDICT_NON_KRONECKER,
        REASON_REMAINDER,
        witnesses=tuple(Fraction(c) for c in factorization.remainder.coeffs),
        details={"remainder_degree": factorization.remainder.degree},
        factorization=factorization,
    )
