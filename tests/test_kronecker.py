import copy
import pickle
import random
from fractions import Fraction
from itertools import product, takewhile
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclokit import kronecker as kr
from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from cyclokit import semigroup as sg
from cyclokit.combinat import over_common_denominator, stirling_second
from cyclokit.errors import InputError, InvariantError, PoleError
from cyclokit.polyring import IntPoly
from test_bench_hooks import _load_workloads


def fk(k):
    """1 - x + x^k - x^(2k-1) + x^(2k)."""
    coeffs = {0: 1, 1: -1, k: 1, 2 * k - 1: -1, 2 * k: 1}
    out = [0] * (2 * k + 1)
    for i, c in coeffs.items():
        out[i] += c
    # overlapping exponents for k <= 2 accumulate
    if k == 1:
        out = [1, -1, 1]
    elif k == 2:
        out = [1, -1, 1, -1, 1]
    return IntPoly(out)


def excluded(f):
    return kr.excluded_set(f, kr.factor_kronecker(f).factors)


def test_fk_construction():
    assert fk(1) == pr.cyclotomic(6)
    assert fk(2) == pr.cyclotomic(10)
    assert fk(3) == pr.cyclotomic(6) * pr.cyclotomic(12)


def test_factor_kronecker_basic():
    fac = kr.factor_kronecker(IntPoly((1, -1, 1)))
    assert fac.factors == {6: 1}
    assert fac.is_kronecker
    fac4 = kr.factor_kronecker(fk(4))
    assert fac4.factors == {10: 1, 12: 1}
    assert fac4.is_kronecker
    fac5 = kr.factor_kronecker(fk(5))
    assert fac5.factors == {}
    assert fac5.remainder == fk(5)
    assert not fac5.is_kronecker


def test_factor_kronecker_monomial_and_multiplicity():
    f = IntPoly.monomial(1, 3) * pr.cyclotomic(6) ** 2 * pr.cyclotomic(1)
    fac = kr.factor_kronecker(f)
    assert fac.e0 == 3
    assert fac.factors == {1: 1, 6: 2}
    assert fac.is_kronecker
    assert fac.reconstruct() == f


def test_factor_kronecker_rejects_non_monic():
    with pytest.raises(InputError):
        kr.factor_kronecker(IntPoly((1, 2)))


def test_factor_kronecker_reconstructs_mixed_input():
    f = pr.cyclotomic(7) * IntPoly((3, 1)) * pr.cyclotomic(4)
    fac = kr.factor_kronecker(f)
    assert fac.reconstruct() == f
    assert fac.factors == {4: 1, 7: 1}
    assert fac.remainder == IntPoly((3, 1))


def test_sign_tests():
    assert kr.sign_tests(pr.coxeter_poly(10)).reason == kr.REASON_NEGATIVE_AT_ONE
    assert kr.sign_tests(pr.coxeter_poly(8)) is None
    for k in (3, 5, 8):
        assert kr.sign_tests(fk(k)) is None
    # x^2 - 5x + 6 has roots 2 and 3: caught by the integer sample stage
    cert = kr.sign_tests(IntPoly((6, -5, 1)))
    assert cert.reason == kr.REASON_NEGATIVE_AT_POINT
    # negative at -1 only
    cert = kr.sign_tests(IntPoly((-3, 2, 1)))  # f(1) = 0 -> no verdict
    assert cert is None


def stirling_logderiv_sum(f, k, point):
    """sum_j {k,j} (log f)^(j)(1), or the sign-alternating sum at -1, added
    term by term in Fractions: the oracle for kronecker's integer sum.

    For Kronecker f this equals (B_k^+/k) sum e_d J_k(d) at +1 (J_k(d alpha_d)
    at -1), independently of the monomial exponent e0 once k >= 2.
    """
    vals = pr.log_derivative_values(f, k, point)
    return sum(point ** j * stirling_second(k, j) * vals[j - 1] for j in range(1, k + 1))


def test_stirling_logderiv_sum_on_cyclotomics():
    # (B_k^+/k) J_k(n) at +1 and (B_k^+/k) J_k(n alpha_n) at -1
    from cyclokit.combinat import bernoulli_plus

    for n in range(2, 31):
        f = pr.cyclotomic(n)
        den, nums = pr.log_derivative_row(f, 6, 1)
        for k in range(2, 7):
            want = bernoulli_plus(k) / k * nt.jordan_totient(k, n)
            assert stirling_logderiv_sum(f, k, 1) == want
            assert Fraction(kr._stirling_numerator(nums, k, 1), den) == want
        if n != 2:
            den, nums = pr.log_derivative_row(f, 6, -1)
            for k in range(2, 7):
                want = bernoulli_plus(k) / k * nt.jordan_totient(k, nt.n_alpha(n))
                assert stirling_logderiv_sum(f, k, -1) == want
                assert Fraction(kr._stirling_numerator(nums, k, -1), den) == want


_row_entries = st.one_of(st.just(0), st.integers(-(10 ** 6), 10 ** 6), st.fractions(max_denominator=10 ** 6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.sampled_from([1, -1]), st.lists(_row_entries, min_size=5, max_size=5))
def test_stirling_numerator_matches_fraction_sum(k, point, row):
    # the row may be longer than k, as certify's rows of order 5 are
    want = sum((point ** j * stirling_second(k, j) * Fraction(row[j - 1]) for j in range(1, k + 1)), Fraction(0))
    den, nums = over_common_denominator(row)
    got = kr._stirling_numerator(nums, k, point)
    assert type(got) is int
    assert Fraction(got, den) == want


def test_fk_jordan_sum_value():
    # F_k = (2/B_2^+)((log f_k)'(1) + (log f_k)''(1)) = 48k - 24
    for k in range(1, 13):
        f = fk(k)
        total = 12 * stirling_logderiv_sum(f, 2, 1)
        assert total == 48 * k - 24
        assert f.derivative(2)(1) == k * k + 3 * k - 2
        assert pr.log_derivative_values(f, 2, 1)[-1] == 3 * k - 2


def test_jordan_sum_recovery_product():
    f = pr.cyclotomic(6) * pr.cyclotomic(10) * pr.cyclotomic(12)
    total = 12 * stirling_logderiv_sum(f, 2, 1)
    assert total == nt.jordan_totient(2, 6) + nt.jordan_totient(2, 10) + nt.jordan_totient(2, 12)


def test_odd_identity_check():
    # Kronecker products pass
    logs = kr.log_rows(pr.cyclotomic(6) * pr.cyclotomic(12) ** 2)
    assert kr.odd_identity_check(logs, 3) is None
    assert kr.odd_identity_check(logs, 5) is None
    # a row holds orders 1..5 only
    for k in (1, 4, 7):
        with pytest.raises(InputError):
            kr.odd_identity_check(logs, k)
    # the f_k family satisfies the odd identities despite being non-Kronecker
    for k in (5, 7, 9):
        assert kr.odd_identity_check(kr.log_rows(fk(k)), 3) is None
        assert kr.odd_identity_check(kr.log_rows(fk(k)), 5) is None
    # a non-reciprocal polynomial with roots off the unit circle fails
    cert = kr.odd_identity_check(kr.log_rows(IntPoly((3, -3, 1))), 3)
    assert cert is not None
    assert cert.reason == kr.REASON_ODD_IDENTITY
    assert cert.witnesses[-1] != 0


def test_excluded_set_fk():
    for k in (5, 6, 8, 11):
        f = fk(k)
        ex = excluded(f)
        assert ex.excludes(1)
        # every prime power is excluded (f_k(1) = 1)
        for d in (2, 3, 4, 5, 7, 8, 9, 16, 25, 121):
            assert ex.excludes(d)
        # 2 p^j excluded for p not in {3, 5}
        for d in (14, 22, 26, 98):
            assert ex.excludes(d)
        # 3 p^j excluded for odd p
        for d in (15, 21, 33, 75):
            assert ex.excludes(d)
        # the three possible divisor indices stay allowed
        for d in (6, 10, 12):
            assert not ex.excludes(d) or kr.poly_div_exact(f, pr.cyclotomic(d)) is None


def test_excluded_set_hypothesis_skip():
    # f = Phi_2 * Phi_3: zeta_2 is a root, so every m >= 2 is skipped
    ex = excluded(pr.cyclotomic(2) * pr.cyclotomic(3))
    assert 2 in ex.skipped
    assert all(m != 2 for m, _ in ex.allowed_primes)


def test_excluded_set_allows_prime_factors():
    # f(1) = 6 keeps the 2^j and 3^j families alive at m = 1
    f = pr.cyclotomic(2) * pr.cyclotomic(9)  # f(1) = 2 * 3
    ex = excluded(f)
    assert not ex.excludes(2)
    assert not ex.excludes(9)
    assert ex.excludes(25)


def test_mu_c():
    only_one = kr.ExcludedIndices(allowed_primes=(), extra=frozenset())
    assert kr.mu_C(2, only_one) == 3  # attained at j = 2
    # the generic f_k exclusion set (prime powers plus 2p^j with p not 3, 5)
    # gives 12, and adding {6, 10} gives 24
    generic = kr.ExcludedIndices(
        allowed_primes=((1, frozenset()), (2, frozenset({3, 5}))),
    )
    assert kr.mu_C(2, generic) == 12
    assert kr.mu_C(2, generic.with_extra([6, 10])) == 24
    # per-instance sets are at least as sharp
    for k in (5, 6, 8):
        assert kr.mu_C(2, excluded(fk(k))) >= 12


def _mu_c_scan(k, C):
    # the ascending scan over every j: J_k(j)/phi(j) >= j^(k-1), so it stops
    # once j^(k-1) passes the best ratio found
    best = None
    j = 2
    while best is None or j ** (k - 1) <= best:
        if not C.excludes(j):
            r = Fraction(nt.jordan_totient(k, j), nt.euler_phi(j))
            if best is None or r < best:
                best = r
        j += 1
    return best


def _small_low_ratio_fixpoint(k, C):
    # indices below the current minimum ratio, grown fixpoint-style for at
    # most three rounds; an index above mu^(1/(k-1)) cannot have ratio <= mu,
    # which keeps the rounds short at k = 6, 8
    small = []
    for _ in range(3):
        mu = _mu_c_scan(k, C.with_extra(small))
        added = False
        for j in range(2, floor(mu) + 1):
            if j ** (k - 1) > mu:
                break
            if j in small or C.excludes(j):
                continue
            if Fraction(nt.jordan_totient(k, j), nt.euler_phi(j)) <= mu:
                small.append(j)
                added = True
        if not added:
            break
    return sorted(small)


def _random_excluded(rng):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    handled = tuple(
        (m, frozenset(q for q in primes if rng.random() < 0.3))
        for m in (1, 2, 3, 4, 6)
        if rng.random() < 0.7
    )
    extra = frozenset(rng.sample(range(2, 90), rng.randint(0, 15)))
    return kr.ExcludedIndices(handled, extra=extra)


def test_ratio_walk_matches_ascending_scan():
    rng = random.Random(1609)
    for _ in range(400):
        C = _random_excluded(rng)
        for k in (2, 4, 6, 8):
            assert kr.mu_C(k, C) == _mu_c_scan(k, C), (k, C)
            assert kr._small_low_ratio_indices(k, C) == _small_low_ratio_fixpoint(k, C), (k, C)


def test_ratio_walk_order_across_tables():
    # with top = 300 the walk reads the tables for 128 up to 512; every j with
    # ratio <= top^(k-1) is at most top
    rng = random.Random(5)
    top = 300
    for C in (kr.ExcludedIndices(()), _random_excluded(rng), _random_excluded(rng)):
        for k in (2, 4, 6, 8):
            bound = top ** (k - 1)
            want = sorted(
                (r, j)
                for j in range(2, top + 1)
                if not C.excludes(j) and (r := nt.jordan_totient(k, j) // nt.euler_phi(j)) <= bound
            )
            assert list(takewhile(lambda e: e[0] <= bound, kr._ratio_walk(k, C))) == want


def test_ratio_table_is_jordan_over_phi():
    # psi_k(j) = J_k(j)/phi(j) is an integer of at least j^(k-1)
    for k in range(1, 9):
        table = kr._ratio_table(k, 2000)
        assert list(table) == sorted(table)
        assert sorted(j for _, j in table) == list(range(2, 2001))
        for r, j in table:
            assert nt.jordan_totient(k, j) == r * nt.euler_phi(j)
            assert r >= j ** (k - 1)


def test_mu_c_exhausted_scan_raises(monkeypatch):
    # an excluded set that admits no index up to the scan limit
    monkeypatch.setattr(kr, "_MU_SCAN_LIMIT", 256)
    C = kr.ExcludedIndices((), extra=frozenset(range(2, 257)))
    with pytest.raises(InvariantError):
        kr.mu_C(2, C)
    # below the limit the walk still answers: 211 is the least index left
    assert kr.mu_C(2, kr.ExcludedIndices((), extra=frozenset(range(2, 200)))) == 212


def test_even_bound_check_fires_for_fk():
    # zero multiplicities matter: a proven-absent index still joins the
    # excluded set and raises the minimum ratio
    for k in (5, 6, 7, 12, 15, 16, 52):
        f = fk(k)
        C = excluded(f)
        small = kr._small_low_ratio_indices(2, C)
        known = {d: pr.multiplicity(f, pr.cyclotomic(d)) for d in small}
        cert = kr.even_bound_check(kr.log_rows(f), 2, f.degree, C, known)
        assert cert is not None and cert.reason == kr.REASON_EVEN_BOUND
    # and does not fire for the Kronecker members k <= 4
    for k in (1, 2, 3, 4):
        f = fk(k)
        C = excluded(f)
        small = kr._small_low_ratio_indices(2, C)
        known = {d: pr.multiplicity(f, pr.cyclotomic(d)) for d in small}
        assert kr.even_bound_check(kr.log_rows(f), 2, f.degree, C, known) is None


def test_even_bound_no_fire_on_kronecker_products():
    f = pr.cyclotomic(6) * pr.cyclotomic(12)
    C = excluded(f)
    logs = kr.log_rows(f)
    assert kr.even_bound_check(logs, 2, f.degree, C, {}) is None
    assert kr.even_bound_check(logs, 4, f.degree, C, {}) is None
    for k in (0, 3, 6):
        with pytest.raises(InputError):
            kr.even_bound_check(logs, k, f.degree, C, {})


def test_certify_f7():
    cert = kr.certify(fk(7))
    assert cert.verdict == kr.VERDICT_NON_KRONECKER
    assert cert.factorization.factors == {6: 1}
    assert cert.factorization.remainder == pr.poly_div_exact(fk(7), pr.cyclotomic(6))


def test_certify_kronecker_inputs():
    assert kr.certify(pr.cyclotomic(10) * pr.cyclotomic(12)).verdict == kr.VERDICT_KRONECKER
    assert kr.certify(pr.coxeter_poly(12)).reason == kr.REASON_NEGATIVE_AT_ONE
    assert kr.certify(IntPoly((1,))).verdict == kr.VERDICT_KRONECKER
    assert kr.certify(IntPoly((0, 0, 1))).verdict == kr.VERDICT_KRONECKER


def test_certify_soundness_random_products(subtests=None):
    rng = random.Random(12345)
    for _ in range(60):
        n_factors = rng.randint(1, 4)
        f = IntPoly.monomial(1, rng.choice([0, 0, 1, 2]))
        for _ in range(n_factors):
            d = rng.randint(1, 30)
            e = rng.randint(1, 2)
            f = f * pr.cyclotomic(d) ** e
        cert = kr.certify(f)
        assert cert.verdict == kr.VERDICT_KRONECKER, f"false negative on {f}"
        assert cert.factorization.reconstruct() == f


def test_certify_completeness_random_palindromes():
    rng = random.Random(98765)
    for _ in range(40):
        half = [rng.randint(-3, 3) for _ in range(rng.randint(1, 12))]
        coeffs = half + [rng.randint(-3, 3)] + half[::-1]
        coeffs[-1] = 1
        coeffs[0] = 1  # keep it monic and palindromic-ish
        f = IntPoly(coeffs)
        verdict = kr.certify(f).verdict
        remainder_trivial = kr.factor_kronecker(f).is_kronecker
        assert (verdict == kr.VERDICT_KRONECKER) == remainder_trivial


def test_small_equations_with_e0_substitution():
    # odd k in {3, 5}: moving the j = 1 term across, the Stirling sums force
    # 3 g2 + g3 = -(deg f + e0)/2 at +1, and the sign-alternating versions
    # at -1; the even k in {2, 4} corollary bounds follow with e0 kept.
    rng = random.Random(777)
    for _ in range(25):
        e0 = rng.choice([0, 1, 3])
        f = IntPoly.monomial(1, e0)
        for _ in range(rng.randint(1, 3)):
            f = f * pr.cyclotomic(rng.randint(3, 30))
        deg = f.degree
        g1 = pr.log_derivative_values(f, 5, 1)
        gm = pr.log_derivative_values(f, 5, -1)
        half = Fraction(deg + e0, 2)
        assert g1[0] == half
        assert gm[0] == -half
        assert 3 * g1[1] + g1[2] == -half
        assert 15 * g1[1] + 25 * g1[2] + 10 * g1[3] + g1[4] == -half
        assert 3 * gm[1] - gm[2] == -half
        assert 15 * gm[1] - 25 * gm[2] + 10 * gm[3] - gm[4] == -half
        # k in {2, 4} bound corollary, e0-aware
        assert g1[1] >= Fraction(deg - e0, 4) - half
        assert 7 * g1[1] + 6 * g1[2] + g1[3] <= -Fraction(deg - e0, 8) - half
        assert gm[1] >= Fraction(deg - e0, 3) - half
        assert 7 * gm[1] - 6 * gm[2] + gm[3] <= -half - Fraction(deg - e0, 3)


def test_certify_remainder_reason_reachable():
    # (x - 1) * (x^4 + x^3 + 3x^2 + x + 1): the root of Phi_1 silences the
    # sign tests and every +1 identity (poles), the quartic is self-reciprocal
    # and positive at -1 so the odd sums vanish there, and only trial division
    # exposes the non-cyclotomic quartic
    quartic = IntPoly((1, 1, 3, 1, 1))
    f = pr.cyclotomic(1) * quartic
    cert = kr.certify(f)
    assert cert.verdict == kr.VERDICT_NON_KRONECKER
    assert cert.reason == kr.REASON_REMAINDER
    assert cert.factorization.factors == {1: 1}
    assert cert.factorization.remainder == quartic


def test_certificate_serialization():
    cert = kr.certify(fk(7))
    obj = cert.to_json_obj()
    assert obj["verdict"] == "non_kronecker"
    assert obj["reason"] in (kr.REASON_EVEN_BOUND, kr.REASON_REMAINDER)
    assert all(isinstance(w, str) and "/" in w for w in obj["witnesses"])
    assert obj["factorization"]["factors"] == {"6": 1}
    # a remainder-only certificate serializes its witness coefficients
    plain = kr.Certificate(
        kr.VERDICT_NON_KRONECKER,
        kr.REASON_REMAINDER,
        witnesses=(Fraction(1), Fraction(-1)),
        details={"remainder_degree": 1},
    )
    assert plain.to_json_obj()["witnesses"] == ["1/1", "-1/1"]


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))], ids=["copy", "deepcopy", "pickle"]
)
def test_certificates_pickle_and_copy(clone):
    # an even bound, a sign certificate and a Kronecker verdict, each carrying
    # its factorization, whose remainder has had its height read
    for f in (fk(7), IntPoly((-3, 0, 1)), pr.cyclotomic(15) * pr.cyclotomic(4) * IntPoly((0, 1))):
        cert = kr.certify(f)
        assert cert.factorization is not None
        assert cert.factorization.remainder.height >= 1
        got = clone(cert)
        assert got == cert
        assert got.to_json_obj() == cert.to_json_obj()
        assert got.factorization.reconstruct() == f


def test_candidates_cover_bound():
    cands = kr.cyclotomic_candidates(10)
    ds = [d for d, _ in cands]
    phi = nt.totient_sieve(200)
    for d in range(1, 201):
        if phi[d] <= 10:
            assert d in ds


def test_candidates_match_totient_sieve_scan():
    # phi(d) >= sqrt(d/2), so d <= 2 D^2 covers every d with phi(d) <= D
    phi = nt.totient_sieve(2 * 300 * 300)
    for D in range(301):
        want = [(d, phi[d]) for d in range(1, 2 * D * D + 1) if phi[d] <= D]
        assert kr.cyclotomic_candidates(D) == want, D


def test_excluded_set_keeps_every_dividing_index():
    rng = random.Random(2024)
    for _ in range(120):
        f = IntPoly((1,))
        for _ in range(rng.randint(1, 4)):
            f = f * pr.cyclotomic(rng.randint(2, 120)) ** rng.randint(1, 2)
        cofactor = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 8))] + [1])
        if cofactor(1) == 0:
            continue
        f = f * cofactor
        fac = kr.factor_kronecker(f)
        assert fac.reconstruct() == f
        ex = kr.excluded_set(f, fac.factors)
        for d in fac.factors:
            assert not ex.excludes(d), (f, d, ex.describe())


def test_excluded_set_tests_only_primes_up_to_degree_plus_one():
    # |f(1)|^2 = 13^2 for x^2 + 12, but phi(13^j) >= 12 > deg f, so 13 is
    # never tested and its families stay excluded
    ex = excluded(IntPoly((12, 0, 1)))
    assert [m for m, _ in ex.allowed_primes] == [1, 2, 3, 4, 6]
    assert all(not qs for _, qs in ex.allowed_primes)
    assert ex.excludes(13) and ex.excludes(169)


def _degree_842_product():
    rng = random.Random(1)
    return [rng.randrange(1, 200) for _ in range(12)]


def test_certify_degree_842_product():
    ds = _degree_842_product()
    assert ds == [35, 146, 196, 17, 66, 31, 127, 195, 116, 121, 167, 98]
    f = IntPoly((1,))
    for d in ds:
        f = f * pr.cyclotomic(d)
    assert f.degree == 842
    cert = kr.certify(f)
    assert cert.verdict == kr.VERDICT_KRONECKER
    assert cert.factorization.factors == {d: 1 for d in ds}
    assert cert.factorization.e0 == 0


def test_factor_kronecker_high_degree_trinomial():
    f = IntPoly.monomial(1, 2000) + IntPoly((1, 1))
    fac = kr.factor_kronecker(f)
    assert fac.factors == {3: 1}
    assert fac.reconstruct() == f


def test_certify_large_constant_term():
    cert = kr.certify(IntPoly((10 ** 9, 0, 1)))
    assert cert.verdict == kr.VERDICT_NON_KRONECKER
    assert cert.factorization.remainder == IntPoly((10 ** 9, 0, 1))


def _reconstruct_dense(fac):
    # the dense O(deg^2) product of the cached Phi_d, kept as the oracle for
    # the Mobius-series reconstruction
    out = IntPoly.monomial(1, fac.e0)
    for d, e in sorted(fac.factors.items()):
        out = out * pr.cyclotomic(d) ** e
    return out * fac.remainder


def test_reconstruct_matches_dense_product():
    rng = random.Random(31337)
    remainders = [
        lambda: IntPoly(),
        lambda: IntPoly((rng.choice([1, -1, 2, -7, 10 ** 12]),)),
        lambda: IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [1]),
        lambda: IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice([-3, -1, 2, 5])]),
    ]
    index_draws = [
        lambda: 1,
        lambda: 2,
        lambda: rng.randint(1, 30),
        lambda: rng.randint(1, 250),
    ]
    seen_e1 = set()
    for case in range(2000):
        factors = {}
        for _ in range(rng.randint(0, 4)):
            d = rng.choice(index_draws)()
            factors[d] = factors.get(d, 0) + rng.randint(1, 3)
        seen_e1.add(factors.get(1, 0) % 2 if 1 in factors else None)
        fac = kr.CycloFactorization(rng.randint(0, 3), factors, rng.choice(remainders)())
        assert fac.reconstruct() == _reconstruct_dense(fac), (case, fac)
    assert seen_e1 == {None, 0, 1}
    # edge cases by name: no factors, the zero remainder, Phi_1 to odd and
    # even powers, an index above 250 with a repeated prime
    for fac in (
        kr.CycloFactorization(0, {}, IntPoly((1,))),
        kr.CycloFactorization(2, {}, IntPoly((5, 0, -3))),
        kr.CycloFactorization(1, {1: 1, 6: 2}, IntPoly()),
        kr.CycloFactorization(0, {1: 3}, IntPoly((1,))),
        kr.CycloFactorization(3, {1: 2, 2: 1}, IntPoly((-1,))),
        kr.CycloFactorization(0, {2: 2, 4: 1, 1260: 1}, IntPoly((1, 1, 1))),
    ):
        assert fac.reconstruct() == _reconstruct_dense(fac), fac
    assert kr.CycloFactorization(1, {1: 1, 6: 2}, IntPoly()).reconstruct().is_zero()


def test_reconstruct_rejects_what_the_product_rejects():
    with pytest.raises(InputError):
        kr.CycloFactorization(0, {0: 1}, IntPoly((1,))).reconstruct()
    with pytest.raises(InputError):
        kr.CycloFactorization(0, {3: -1}, IntPoly((1,))).reconstruct()


def test_candidates_match_totient_sieve_scan_at_table_boundaries():
    # the cached tables change at the powers of two
    phi = nt.totient_sieve(2 * 512 * 512)
    for D in (0, 127, 128, 129, 255, 256, 257, 511, 512):
        want = [(d, phi[d]) for d in range(1, 2 * D * D + 1) if phi[d] <= D]
        assert kr.cyclotomic_candidates(D) == want, D


def test_candidates_are_a_fresh_list():
    first = kr.cyclotomic_candidates(100)
    want = list(first)
    first.append((0, 0))
    first[0] = (-1, -1)
    del first[5:]
    assert kr.cyclotomic_candidates(100) == want
    assert kr.cyclotomic_candidates(90) == [c for c in want if c[1] <= 90]


def test_certify_divides_and_multiplies_once(monkeypatch):
    # certify reads the low-ratio multiplicities off its factorization and
    # reconstructs without polynomial products; both facts are counted here
    multiplicity = pr.multiplicity

    def no_multiplicity(*args):
        raise AssertionError("certify called multiplicity")

    monkeypatch.setattr(pr, "multiplicity", no_multiplicity)
    monkeypatch.setattr(kr, "multiplicity", no_multiplicity, raising=False)
    mul = IntPoly.__mul__
    reconstruct = kr.CycloFactorization.reconstruct
    depth = [0]
    products = [0]

    def counting_mul(self, other):
        products[0] += depth[0] > 0
        return mul(self, other)

    def tracked_reconstruct(self):
        depth[0] += 1
        try:
            return reconstruct(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
    monkeypatch.setattr(IntPoly, "__rmul__", counting_mul)
    monkeypatch.setattr(kr.CycloFactorization, "reconstruct", tracked_reconstruct)
    rng = random.Random(4711)
    checked = 0
    for _ in range(50):
        f = IntPoly.monomial(1, rng.choice([0, 0, 1, 3]))
        for _ in range(rng.randint(1, 4)):
            f = f * pr.cyclotomic(rng.randint(1, 90)) ** rng.randint(1, 2)
        f = f * IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))] + [1])
        cert = kr.certify(f)
        fac = cert.factorization
        assert cert.is_kronecker == fac.is_kronecker
        assert reconstruct(fac) == f
        e0 = fac.e0
        g = IntPoly(f.coeffs[e0:])
        for d in kr._small_low_ratio_indices(2, kr.excluded_set(g, fac.factors)):
            assert fac.factors.get(d, 0) == multiplicity(g, pr.cyclotomic(d)), (f, d)
            checked += 1
    assert products[0] == 0
    assert checked > 0


def _assert_analytic_stages_silent(f):
    # f is Kronecker, so no sound analytic stage may fire on f / x^e0
    fac = kr.factor_kronecker(f)
    assert fac.is_kronecker, f
    assert kr.analytic_certificate(IntPoly(f.coeffs[fac.e0 :]), fac) is None, f


@st.composite
def _kronecker_products(draw):
    # x^e0 Phi_1^a Phi_2^b times repeated Phi_d, d >= 3, of degree <= 300
    e0 = draw(st.integers(0, 3))
    factors = {1: draw(st.integers(0, 3)), 2: draw(st.integers(0, 3))}
    degree = factors[1] + factors[2]
    for d, e in draw(st.lists(st.tuples(st.integers(3, 600), st.integers(1, 3)), max_size=6)):
        if degree + e * nt.euler_phi(d) <= 300:
            factors[d] = factors.get(d, 0) + e
            degree += e * nt.euler_phi(d)
    f = IntPoly.monomial(1, e0)
    for d, e in factors.items():
        f = f * pr.cyclotomic(d) ** e
    return f


@settings(max_examples=100, deadline=None)
@given(_kronecker_products())
def test_analytic_certificate_is_silent_on_kronecker_products(f):
    _assert_analytic_stages_silent(f)


def test_analytic_certificate_is_silent_on_the_benchmark_and_fk_corpora():
    workloads = _load_workloads()
    stream = workloads.WORKLOADS["certify_stream"]
    seen = 0
    for seed in (1, 2, 3):
        for spec in stream.pool(seed) + stream.warmup(seed):
            if spec["remainder"] == [1]:
                _assert_analytic_stages_silent(IntPoly(spec["coeffs"]))
                seen += 1
    assert seen > 800
    for k in range(1, 5):
        _assert_analytic_stages_silent(fk(k))


def test_analytic_certificate_is_silent_on_glued_semigroups():
    # complete intersections <a p, a q, r> are cyclotomic: is_cyclotomic must
    # accept every one, and no analytic stage may fire on its polynomial
    workloads = _load_workloads()
    rng = random.Random(2203)
    for _ in range(100):
        S = sg.from_generators(workloads.glued_semigroup(rng, 10, 600))
        assert sg.is_cyclotomic(S).is_kronecker, S
        _assert_analytic_stages_silent(sg.semigroup_polynomial(S))


def test_certify_decides_kronecker_inputs_without_the_analytic_stages(monkeypatch):
    def unreachable(g, factorization):
        raise AssertionError("analytic stages ran")

    monkeypatch.setattr(kr, "analytic_certificate", unreachable)
    cert = kr.certify(pr.cyclotomic(10) * pr.cyclotomic(12))
    assert cert.verdict == kr.VERDICT_KRONECKER
    assert cert.factorization.factors == {10: 1, 12: 1}
    with pytest.raises(AssertionError, match="analytic stages ran"):
        kr.certify(fk(7))


def test_certify_still_checks_the_reconstruction(monkeypatch):
    factor = kr.factor_kronecker

    def off_by_one(f):
        fac = factor(f)
        return kr.CycloFactorization(fac.e0, {**fac.factors, 3: fac.factors.get(3, 0) + 1}, fac.remainder)

    monkeypatch.setattr(kr, "factor_kronecker", off_by_one)
    with pytest.raises(InvariantError):
        kr.certify(pr.cyclotomic(10) * pr.cyclotomic(12))


_huge = st.one_of(st.integers(-3, 3), st.integers(-(10 ** 30), 10 ** 30))


@st.composite
def _certify_inputs(draw):
    coeffs = draw(st.lists(_huge, max_size=31))
    if coeffs and draw(st.booleans()):
        coeffs[-1] = 1
        for d in draw(st.lists(st.integers(1, 40), max_size=3)):
            f = IntPoly(coeffs) * pr.cyclotomic(d)
            if f.degree > 30:
                break
            coeffs = list(f.coeffs)
    return IntPoly(coeffs)


@settings(max_examples=150, deadline=None)
@given(_certify_inputs())
def test_certify_refuses_or_decides(f):
    try:
        cert = kr.certify(f)
    except InputError:
        assert not f.is_monic()
        return
    assert f.degree <= 30
    assert cert.factorization.reconstruct() == f
    assert cert.is_kronecker == cert.factorization.is_kronecker


def test_factor_kronecker_small_multiplicities_match_repeated_division():
    rng = random.Random(606)
    for _ in range(300):
        f = IntPoly.monomial(1, rng.choice([0, 0, 1, 2]))
        for _ in range(rng.randint(0, 4)):
            f = f * pr.cyclotomic(rng.choice([1, 2, 3, 4, 5, 6, rng.randint(7, 40)])) ** rng.randint(1, 3)
        f = f * IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))] + [1])
        fac = kr.factor_kronecker(f)
        g = IntPoly(f.coeffs[fac.e0 :])
        # the multiplicities of Phi_1..Phi_6 by plain repeated trial division,
        # an oracle for the small factors that excluded_set reads off the factorization
        want = {d: pr.multiplicity(g, pr.cyclotomic(d)) for d in range(1, 7)}
        assert {d: fac.factors.get(d, 0) for d in range(1, 7)} == want, f


def test_certify_reads_two_log_rows_and_divides_only_to_factor(monkeypatch):
    read_row, divide, factor = kr.log_derivative_row, kr.poly_div_exact, kr.factor_kronecker
    rows = [0]
    stray_divisions = [0]
    factoring = [0]

    def counting_rows(*args):
        rows[0] += 1
        return read_row(*args)

    def counting_divide(*args):
        stray_divisions[0] += factoring[0] == 0
        return divide(*args)

    def tracked_factor(f):
        factoring[0] += 1
        try:
            return factor(f)
        finally:
            factoring[0] -= 1

    for module in (pr, kr):
        monkeypatch.setattr(module, "log_derivative_row", counting_rows)
        monkeypatch.setattr(module, "poly_div_exact", counting_divide)
    monkeypatch.setattr(kr, "factor_kronecker", tracked_factor)
    rng = random.Random(1357)
    inputs = [fk(k) for k in range(1, 40)]
    for _ in range(80):
        f = IntPoly.monomial(1, rng.choice([0, 0, 1, 3]))
        for _ in range(rng.randint(1, 4)):
            f = f * pr.cyclotomic(rng.randint(1, 60)) ** rng.randint(1, 2)
        if rng.random() < 0.5:
            f = f * IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))] + [1])
        inputs.append(f)
    reasons = set()
    counts = set()
    for f in inputs:
        rows[0] = 0
        cert = kr.certify(f)
        assert rows[0] <= (0 if cert.is_kronecker else 2), (f, rows[0])
        reasons.add(cert.reason)
        counts.add(rows[0])
    assert 2 in counts  # the counter sees the rows certify reads
    assert stray_divisions[0] == 0
    assert {kr.REASON_EVEN_BOUND, kr.REASON_ODD_IDENTITY, None} <= reasons


def test_screen_computes_phi_d_at_3_only_after_phi_d_at_2_passes(monkeypatch):
    # x^200 + x + 1 = Phi_3 * cofactor; the candidates whose Phi_d(2) divides
    # f(2) are counted here with values of their own, from a cold screen
    f = IntPoly.monomial(1, 200) + IntPoly((1, 1))
    f2 = f(2)
    candidates = kr.cyclotomic_candidates(f.degree)
    passing = {d for d, _ in candidates if f2 % pr.cyclotomic_value(d, 2) == 0}
    value = pr.cyclotomic_value
    calls_at_3 = []

    def counting_value(d, x):
        if x == 3:
            calls_at_3.append(d)
        return value(d, x)

    monkeypatch.setattr(kr, "cyclotomic_value", counting_value)
    kr._screen_value_2.cache_clear()
    kr._screen_value_3.cache_clear()
    try:
        fac = kr.factor_kronecker(f)
    finally:
        kr._screen_value_2.cache_clear()
        kr._screen_value_3.cache_clear()
    assert fac.factors == {3: 1}
    assert fac.reconstruct() == f
    assert 3 in calls_at_3
    assert len(calls_at_3) == len(set(calls_at_3))
    assert set(calls_at_3) <= passing
    assert len(passing) < len(candidates) // 10


def _horner_value(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_reference(f):
    # (reason, x, f(x)) of the first failed real-line test, or None: f(1) >= 0,
    # then f(-1) >= 0 when f(0) f(1) != 0, then f(x) > 0 at -3, -2, 2, 3 for
    # |x| <= 1 + max |coeff| when moreover f(-1) != 0; every value by Horner
    value = lambda x: _horner_value(f.coeffs, x)  # noqa: E731
    if value(1) < 0:
        return kr.REASON_NEGATIVE_AT_ONE, 1, value(1)
    if value(0) == 0 or value(1) == 0:
        return None
    if value(-1) < 0:
        return kr.REASON_NEGATIVE_AT_MINUS_ONE, -1, value(-1)
    if value(-1) == 0:
        return None
    bound = 1 + max(abs(c) for c in f.coeffs)
    for x in (-3, -2, 2, 3):
        if abs(x) <= bound and value(x) <= 0:
            return kr.REASON_NEGATIVE_AT_POINT, x, value(x)
    return None


def _check_sign_tests(f):
    cert = kr.sign_tests(f)
    want = _sign_reference(f)
    if want is None:
        assert cert is None, f
    else:
        reason, x, v = want
        assert (cert.reason, cert.witnesses) == (reason, (Fraction(x), Fraction(v))), f


def test_sign_tests_match_horner_on_every_small_coefficient_polynomial():
    # every monic polynomial of degree <= 7 with |c| <= 1 (root bound 2, so
    # only -2 and 2 are sampled), g(0) = 0, g(1) = 0 and g(-1) = 0 included
    count = 0
    for degree in range(8):
        for tail in product((-1, 0, 1), repeat=degree):
            _check_sign_tests(IntPoly(tail + (1,)))
            count += 1
    assert count == sum(3 ** n for n in range(8))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-6, 6), max_size=30),
    st.integers(0, 2),
    st.sampled_from([(), (-1, 1), (1, 1), (-1, 0, 1)]),
)
def test_sign_tests_match_horner(tail, e0, root_factor):
    # with x^e0 for g(0) = 0, and x - 1, x + 1 or both for g(1) = 0, g(-1) = 0
    f = IntPoly.monomial(1, e0) * IntPoly(tuple(tail) + (1,))
    if root_factor:
        f = f * IntPoly(root_factor)
    _check_sign_tests(f)


def _prime_power_base(n):
    # q when n = q^j for a prime q and j >= 1, else 0
    if n < 2:
        return 0
    q = next(p for p in range(2, n + 1) if n % p == 0)
    while n % q == 0:
        n //= q
    return q if n == 1 else 0


def _excluded_by_definition(allowed_primes, extra, d):
    # d = 1, or d in extra, or d = m q^j with the prime q not allowed for m
    if d == 1 or d in extra:
        return True
    return any(
        d % m == 0 and (q := _prime_power_base(d // m)) and q not in allowed for m, allowed in allowed_primes
    )


def test_excludes_matches_the_family_definition_on_both_sides_of_the_first_table():
    rng = random.Random(2718)
    primes = [p for p in range(2, 60) if _prime_power_base(p) == p]
    for _ in range(60):
        handled = tuple(
            (m, frozenset(q for q in primes if rng.random() < 0.25))
            for m in (1, 2, 3, 4, 6)
            if rng.random() < 0.8
        )
        extra = frozenset(rng.sample(range(2, 400), rng.randint(0, 20)))
        C = kr.ExcludedIndices(handled, extra=extra)
        more = rng.sample(range(2, 1025), rng.randint(1, 30))
        for C, extra in ((C, extra), (C.with_extra(more), extra | frozenset(more))):
            for d in range(1, 1025):
                assert C.excludes(d) == _excluded_by_definition(handled, extra, d), (handled, extra, d)


# k / B_k^+ for the even orders of certify
_EVEN_SCALE = {2: Fraction(12), 4: Fraction(-120)}


def _stirling_reference(f, k, point):
    # the Fraction sum sum_j point^j {k, j} (log f)^(j)(point), or None at a root
    try:
        vals = pr.log_derivative_values(f, k, point)
    except PoleError:
        return None, None
    return vals, sum((point ** j * stirling_second(k, j) * vals[j - 1] for j in range(1, k + 1)), Fraction(0))


def _odd_reference(f, k):
    for point in (1, -1):
        vals, total = _stirling_reference(f, k, point)
        if vals is not None and total != 0:
            return kr.REASON_ODD_IDENTITY, k, tuple(vals) + (total,), {"point": point}
    return None


def _mu_reference(k, allowed_primes, extra):
    # the least J_k(j)/phi(j) over j >= 2 outside the families, by an ascending
    # scan that stops once j^(k-1) passes the best ratio
    best = None
    j = 2
    while best is None or j ** (k - 1) <= best:
        if not _excluded_by_definition(allowed_primes, extra, j):
            r = Fraction(nt.jordan_totient(k, j), nt.euler_phi(j))
            best = r if best is None else min(best, r)
        j += 1
    return best


def _even_reference(f, k, degree, C, known):
    scale = _EVEN_SCALE[k]
    _, s_plus = _stirling_reference(f, k, 1)
    if s_plus is not None:
        m_plus = scale * s_plus
        residue = m_plus - sum(e * nt.jordan_totient(k, d) for d, e in known.items())
        deg_rest = degree - sum(e * nt.euler_phi(d) for d, e in known.items())
        extra = C.extra | frozenset(known)
        mu = _mu_reference(k, C.allowed_primes, extra)
        if residue < mu * deg_rest:
            details = {
                "point": 1,
                "excluded": {
                    "allowed_primes": {str(m): sorted(qs) for m, qs in C.allowed_primes},
                    "skipped": list(C.skipped),
                    "extra": sorted(extra),
                },
                "known_divisors": known,
                "lhs": residue,
                "rhs": mu * deg_rest,
            }
            return kr.REASON_EVEN_BOUND, k, (m_plus, residue, mu, Fraction(deg_rest)), details
    _, s_minus = _stirling_reference(f, k, -1)
    if s_plus is not None and s_minus is not None:
        m_minus = scale * s_minus
        baseline = Fraction(3 ** k - 1, 2) * degree
        if m_minus < baseline:
            return kr.REASON_EVEN_BOUND, k, (m_minus, baseline), {"point": -1, "lhs": m_minus, "rhs": baseline}
    return None


def _outcome(cert):
    return None if cert is None else (cert.reason, cert.k, cert.witnesses, cert.details)


@st.composite
def _stage_inputs(draw):
    # monic g of degree <= 40: a random part times x^e0, times Phi_1 or Phi_2
    # for a root at 1 or -1, times a few Phi_d; f(1) < 0 comes with the
    # random part
    g = IntPoly.monomial(1, draw(st.integers(0, 2)))
    g = g * IntPoly(tuple(draw(st.lists(st.integers(-4, 4), max_size=12))) + (1,))
    for d in draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15]), max_size=4)):
        g = g * pr.cyclotomic(d)
    assume(g.degree <= 40)
    return g


@settings(max_examples=200, deadline=None)
@given(_stage_inputs(), st.data())
def test_stages_match_a_fraction_reference(g, data):
    fac = kr.factor_kronecker(g)
    logs = kr.log_rows(g)
    for k in (3, 5):
        assert _outcome(kr.odd_identity_check(logs, k)) == _odd_reference(g, k), (g, k)
    C = kr.excluded_set(g, fac.factors)
    indices = sorted(set(kr._small_low_ratio_indices(2, C)) | {2, 3, 4, 6, 10, 12})
    chosen = data.draw(st.lists(st.sampled_from(indices), unique=True, max_size=6))
    known = {d: data.draw(st.integers(0, 2)) for d in chosen}
    for k in (2, 4):
        got = kr.even_bound_check(logs, k, g.degree, C, known)
        assert _outcome(got) == _even_reference(g, k, g.degree, C, known), (g, k, known)
