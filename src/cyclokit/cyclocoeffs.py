"""Four routes to the k-th coefficient of the n-th cyclotomic polynomial.

coeff_direct reads the constructed polynomial and is the oracle; the Moller
partition sum, the Grytczuk-Tropak prefix recurrence, the Bell form at 0 and
the Taylor re-expansion around 1 must all agree with it exactly.

The Moller sum only receives contributions from partitions whose parts j have
mu(n/j) != 0 and that use each part with mu(n/j) = +1 at most once (any other
factor is a generalized binomial that vanishes), so the enumeration runs over
those partitions alone; the sum over every partition of k lives in the tests
as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import bell_complete, check_table_index
from .cycloderiv import phi_derivs_at_one
from .errors import InputError, InvariantError, check_guardrail
from .numtheory import euler_phi, mobius, ramanujan_sum
from .polyring import cyclotomic

# largest k coeff_moller takes: its partition walk grows like the partition
# count of k, and at k = 64 the slowest n found in a random search over
# products of primes <= 61 took 0.33 s (Python 3.11, 2 vCPU), against about
# 2.5 s for n = 30030 at k = 120
MOLLER_K_CAP = 64


def coeff_direct(n: int, k: int) -> int:
    """a_n(k) read off the constructed polynomial; 0 beyond the degree."""
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    coeffs = cyclotomic(n).coeffs
    return coeffs[k] if k < len(coeffs) else 0


def coeff_moller(n: int, k: int) -> int:
    """Moller's partition sum: a_n(k) = sum over partitions of k of
    prod_j (-1)^(lambda_j) C(mu(n/j), lambda_j), negated at n = 1, where the
    product it expands, prod_{d | n} (1 - x^d)^mu(n/d), is 1 - x = -Phi_1.

    A part j contributes (-1)^lambda C(-1, lambda) = 1 when mu(n/j) = -1 and
    -1 when mu(n/j) = +1 and lambda = 1; every other factor vanishes.  So only
    the partitions into parts with mu(n/j) != 0 that use each mu(n/j) = +1
    part at most once are enumerated, each counted as (-1)^(its mu = +1 parts).
    Refuses k above MOLLER_K_CAP with ResourceError.
    """
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    check_guardrail("k =", k, "MOLLER_K_CAP", MOLLER_K_CAP)
    sign = -1 if n == 1 else 1
    if k == 0:
        return sign
    # the parts j <= k with mu(n/j) = +1 or -1, largest first, in k steps
    parts = [(j, mu) for j in range(k, 0, -1) if n % j == 0 and (mu := mobius(n // j))]
    last = len(parts) - 1

    def signed_count(rem: int, i: int) -> int:
        # sum of (-1)^(mu = +1 parts) over the partitions of rem into parts[i:]
        if rem == 0:
            return 1
        j, mu = parts[i]
        if i == last:
            if mu == 1:
                return -1 if rem == j else 0
            return 0 if rem % j else 1
        if mu == 1:
            out = signed_count(rem, i + 1)
            return out - signed_count(rem - j, i + 1) if j <= rem else out
        return sum(signed_count(r, i + 1) for r in range(rem, -1, -j))

    return sign * signed_count(k, 0) if parts else 0


def coeff_prefix_recurrence(n: int, K: int) -> list[int]:
    """(a_n(0), ..., a_n(K)) by a_n(k) = -(1/k) sum_{j<k} a_n(j) r_{k-j}(n);
    refuses K above TABLE_INDEX_LIMIT with ResourceError."""
    if n < 2 or K < 0:
        raise InputError("need n >= 2 and K >= 0")
    check_table_index(K)
    r = [ramanujan_sum(k, n) for k in range(K + 1)]
    out = [1]
    for k in range(1, K + 1):
        s = sum(out[j] * r[k - j] for j in range(k))
        if s % k:
            raise InvariantError(f"recurrence step not divisible: n={n}, k={k}")
        out.append(-s // k)
    return out


def coeff_bell(n: int, k: int) -> int:
    """a_n(k) = B_k(-0! r_1(n), ..., -(k-1)! r_k(n)) / k!; refuses k above
    TABLE_INDEX_LIMIT with ResourceError before the k arguments are built."""
    if n < 2 or k < 0:
        raise InputError("need n >= 2 and k >= 0")
    check_table_index(k)
    xs = [-factorial(j - 1) * ramanujan_sum(j, n) for j in range(1, k + 1)]
    val = bell_complete(k, xs)
    if val % factorial(k):
        raise InvariantError(f"Bell value not divisible by k!: n={n}, k={k}")
    return val // factorial(k)


def coeff_taylor_from_one(n: int, k: int) -> int:
    """a_n(k) by re-expanding the Taylor series of Phi_n around 1.

    a_n(k) = (1/k!) sum_{t=k}^{phi(n)} (-1)^(t-k) Phi_n^(t)(1) / (t-k)!,
    with the derivatives at 1 from the Bell-transform closed form, whose rows
    run to phi(n): refuses phi(n) above TABLE_INDEX_LIMIT before building any.
    """
    if n < 2 or k < 0:
        raise InputError("need n >= 2 and k >= 0")
    d = euler_phi(n)
    check_table_index(d)
    if k > d:
        raise InputError(f"k must be at most phi(n) = {d}")
    derivs = phi_derivs_at_one(n, d)
    total = sum(Fraction((-1) ** (t - k), factorial(t - k)) * derivs[t] for t in range(k, d + 1))
    val = total / factorial(k)
    if val.denominator != 1:
        raise InvariantError(f"Taylor re-expansion not integral: n={n}, k={k}")
    return val.numerator


def coeff_all_methods(n: int, k: int) -> int:
    """All implemented routes to a_n(k); raises InvariantError on disagreement."""
    # Moller first: its guardrail on k refuses before Phi_n is built
    got = {"moller": coeff_moller(n, k)}
    direct = coeff_direct(n, k)
    if n >= 2:
        # the recurrence and the Bell form hold for n >= 2 only
        got["recurrence"] = coeff_prefix_recurrence(n, k)[k]
        got["bell"] = coeff_bell(n, k)
    bad = {name: v for name, v in got.items() if v != direct}
    if bad:
        raise InvariantError(f"coefficient methods disagree at n={n}, k={k}: direct={direct}, {bad}")
    return direct
