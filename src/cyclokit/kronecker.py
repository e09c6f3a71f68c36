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
tests Phi_d(2) | f(2) and Phi_d(3) | f(3), repeated before each further
division by the same Phi_d; only survivors are divided, and only division
decides.  The factorization is the only test of Phi_d-divisibility: every
multiplicity the later stages need, and the gcd pattern of the semigroup
family f_k, is read off it.

certify factors first and checks the factorization against f by rebuilding
the product with polyring.cyclotomic_product, the Mobius series Phi_d =
prod_{t | d} (1 - x^t)^mu(d/t) (Arnold and Monagan) that builds every product
of cyclotomic polynomials, one O(deg) pass per factor (1 - x^t).  The analytic
non-Kronecker certificates follow: sign tests at a few small integers on the
real line, the vanishing odd-order Stirling-weighted logarithmic-derivative
sums, and the even-order Jordan-totient lower bounds refined through
root-of-unity exclusions and the multiplicities the factorization found.
The Stirling stages all read one row (log f)^(j)(+-1), j <= LOG_ROW_ORDER,
per point: the values of order k are its first k entries, summed in integers
over their common denominator.  The bounds need the least ratio J_k(j)/phi(j)
over the indices j outside the exclusions and the indices of the three least
ratios; both are read off one walk over the indices in ascending ratio order.
Every certificate carries the witness values needed to recheck it without
re-running the search.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .combinat import bernoulli_plus, over_common_denominator, stirling_second
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
    log_derivative_values,
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

    Filtered out of the cached table for the bound 2^k - 1 >= max_degree,
    k = max_degree.bit_length(), so the degrees of one binary order of
    magnitude share one search; the caller gets a fresh list.
    """
    if max_degree < 1:
        return []
    table = _candidate_table((1 << max_degree.bit_length()) - 1)
    return [c for c in table if c[1] <= max_degree]


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


# one entry per candidate d: factor_kronecker screens 10 665 at degree 5500,
# the CLI's CERTIFY_DEGREE_LIMIT, so a second call there finds them all cached
@lru_cache(maxsize=2 ** 14)
def _screen_values(d: int) -> tuple[int, int]:
    return cyclotomic_value(d, 2), cyclotomic_value(d, 3)


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
    for d, phid in cyclotomic_candidates(deg):
        while phid <= deg:
            # Phi_d | g over Z forces Phi_d(2) | g(2) and Phi_d(3) | g(3)
            v2, v3 = _screen_values(d)
            if g2 % v2 or g3 % v3:
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
    division still decides whatever it misses."""
    if not f.is_monic():
        raise InputError("sign_tests requires a monic polynomial")
    v1 = f(1)
    if v1 < 0:
        return _sign_certificate(REASON_NEGATIVE_AT_ONE, 1, v1)
    if f(0) == 0 or v1 == 0:
        return None
    vm1 = f(-1)
    if vm1 < 0:
        return _sign_certificate(REASON_NEGATIVE_AT_MINUS_ONE, -1, vm1)
    if vm1 == 0:
        return None
    bound = min(3, 1 + max(abs(c) for c in f.coeffs))
    for x in range(-bound, bound + 1):
        if x in (-1, 0, 1):
            continue
        vx = f(x)
        if vx <= 0:
            return _sign_certificate(REASON_NEGATIVE_AT_POINT, x, vx)
    return None


def _sign_certificate(reason: str, x: int, value: int) -> Certificate:
    return Certificate(VERDICT_NON_KRONECKER, reason, witnesses=(Fraction(x), Fraction(value)))


# ---------------------------------------------------------------------------
# Stirling-weighted logarithmic-derivative machinery

def _stirling_sum_from_values(vals: list[Fraction], k: int, point: int) -> Fraction:
    # sum_{j <= k} point^j {k, j} vals[j - 1], over the common denominator of
    # the first k values, so the sum itself runs in integers
    den, nums = over_common_denominator(vals[:k])
    num = sum(point ** j * stirling_second(k, j) * z for j, z in enumerate(nums, 1))
    return Fraction(num, den)


LOG_ROW_ORDER = 5
LogRows = dict[int, list[Fraction] | None]


def log_rows(f: IntPoly) -> LogRows:
    """{1: row, -1: row} with row = ((log f)'(x), ..., (log f)^(K)(x)) at that
    point for K = LOG_ROW_ORDER, or None where f vanishes.

    Every Stirling stage of certify (orders 2..K) reads these two rows: the
    values of order k are the first k entries of a row.
    """
    rows: LogRows = {}
    for point in (1, -1):
        try:
            rows[point] = log_derivative_values(f, LOG_ROW_ORDER, point)
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
        vals = logs[point][:k]
        total = _stirling_sum_from_values(vals, k, point)
        if total != 0:
            return Certificate(
                VERDICT_NON_KRONECKER,
                REASON_ODD_IDENTITY,
                k=k,
                witnesses=tuple(vals) + (total,),
                details={"point": point},
            )
    return None


# ---------------------------------------------------------------------------
# excluded index families from root-of-unity evaluations

@dataclass(frozen=True)
class ExcludedIndices:
    """Symbolic description of indices d whose Phi_d cannot divide f.

    allowed_primes pairs each handled m in {1, 2, 3, 4, 6} with the primes
    q <= deg f + 1 for which q^2 divides |f(zeta_m)|^2; the whole family
    {m q^j : j >= 1} is excluded for every other prime q.  The families are
    infinite, so membership is decided symbolically.  extra holds explicitly
    excluded single indices; 1 is always excluded.
    """

    allowed_primes: tuple[tuple[int, frozenset[int]], ...]
    skipped: tuple[int, ...] = ()
    extra: frozenset[int] = frozenset()

    def with_extra(self, indices) -> "ExcludedIndices":
        return replace(self, extra=self.extra | frozenset(indices))

    def excludes(self, d: int) -> bool:
        if d == 1 or d in self.extra:
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
_RATIO_WALK_START = 128  # limit of the first ratio table; doubled as a walk needs


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
        for i in range(bisect_left(table, (done + 1,)), bisect_left(table, (bound + 1,))):
            r, j = table[i]
            if not C.excludes(j):
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
    scale = Fraction(k) / bernoulli_plus(k)
    if logs[1] is not None:
        m_plus = scale * _stirling_sum_from_values(logs[1], k, 1)
        c_known = C.with_extra(known_divisors)
        residue = m_plus - sum(e * jordan_totient(k, d) for d, e in known_divisors.items())
        deg_rest = degree - sum(e * euler_phi(d) for d, e in known_divisors.items())
        mu = mu_C(k, c_known)
        if residue < mu * deg_rest:
            return Certificate(
                VERDICT_NON_KRONECKER,
                REASON_EVEN_BOUND,
                k=k,
                witnesses=(m_plus, residue, mu, Fraction(deg_rest)),
                details={
                    "point": 1,
                    "excluded": c_known.describe(),
                    "known_divisors": dict(known_divisors),
                    "lhs": residue,
                    "rhs": mu * deg_rest,
                },
            )
    if logs[1] is not None and logs[-1] is not None:
        m_minus = scale * _stirling_sum_from_values(logs[-1], k, -1)
        baseline = Fraction(3 ** k - 1, 2) * degree
        if m_minus < baseline:
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

def certify(f: IntPoly) -> Certificate:
    """Decide whether f is Kronecker, preferring checkable certificates.

    Pipeline: the complete trial-division factorization comes first, checked
    coefficient by coefficient against f; then, on f with its monomial part
    stripped, sign tests, odd-order identity checks (odd 3 <= k <= LOG_ROW_ORDER),
    and root-of-unity exclusions feeding the refined even-order bound (even
    2 <= k <= LOG_ROW_ORDER), whose exact multiplicities for the low-ratio
    indices are read off the factorization.  The factorization decides and is attached to every
    certificate; an analytic certificate firing on a polynomial whose
    remainder is trivial is an invariant violation (the checks are sound), as
    is a factorization that fails to reconstruct its input.
    """
    if not f.is_monic():
        raise InputError("certify requires a monic polynomial")
    factorization = factor_kronecker(f)
    if factorization.reconstruct() != f:
        raise InvariantError("factorization does not reconstruct the input")
    e0 = factorization.e0
    g = IntPoly(f.coeffs[e0:])
    cert = sign_tests(g)
    if cert is not None and e0:
        # the witnesses refer to f / x^e0
        cert.details["monomial_exponent_stripped"] = e0
    if cert is None and g.degree >= 1:
        logs = log_rows(g)
        for k in range(3, LOG_ROW_ORDER + 1, 2):
            cert = odd_identity_check(logs, k)
            if cert is not None:
                break
        if cert is None and logs[1] is not None:
            # Phi_d is coprime to x, so its multiplicity in g is e_d of f
            C = excluded_set(g, factorization.factors)
            known = {d: factorization.factors.get(d, 0) for d in _small_low_ratio_indices(2, C)}
            for k in range(2, LOG_ROW_ORDER + 1, 2):
                cert = even_bound_check(logs, k, g.degree, C, known)
                if cert is not None:
                    break
    if factorization.is_kronecker:
        if cert is not None:
            raise InvariantError(
                f"certificate {cert.reason} fired on a Kronecker polynomial"
            )
        return Certificate(VERDICT_KRONECKER, factorization=factorization)
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
