import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclokit import cycloderiv as cd
from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from cyclokit.errors import DomainError, InputError, PoleError, ResourceError
from cyclokit.polyring import IntPoly

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=8))
huge_polys = st.builds(IntPoly, st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=41))
root_orders = st.sampled_from([1, 2, 3, 4, 6])


def xn_minus_1(n):
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_intpoly_basics():
    p = IntPoly((1, -1, 1))
    assert p.degree == 2
    assert p(2) == 3
    assert IntPoly((0, 0)).is_zero()
    assert (p * IntPoly((1, 1))).coeffs == (1, 0, 0, 1)
    assert (p - p).is_zero()
    assert IntPoly((0, 1)) ** 3 == IntPoly.monomial(1, 3)


def test_cyclotomic_small():
    assert pr.cyclotomic(1) == IntPoly((-1, 1))
    assert pr.cyclotomic(2) == IntPoly((1, 1))
    assert pr.cyclotomic(6) == IntPoly((1, -1, 1))
    assert pr.cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    assert pr.cyclotomic(105).coeffs[7] == -2


def test_cyclotomic_product_identity():
    for n in range(1, 201):
        prod = IntPoly((1,))
        for d in nt.divisors(n):
            prod = prod * pr.cyclotomic(d)
        assert prod == xn_minus_1(n)


def test_cyclotomic_degree_and_flat_coefficients():
    for n in range(1, 105):
        f = pr.cyclotomic(n)
        assert f.degree == nt.euler_phi(n)
        assert all(c in (-1, 0, 1) for c in f.coeffs)


def _cyclotomic_mobius(n):
    """Reference build: Phi_n = prod_{d | n} (x^d - 1)^mu(n/d) by dense
    products and one exact division."""
    num = den = IntPoly((1,))
    for d in nt.divisors(n):
        mu = nt.mobius(n // d)
        if mu == 1:
            num = num * xn_minus_1(d)
        elif mu == -1:
            den = den * xn_minus_1(d)
    return pr.poly_div_exact(num, den)


def test_cyclotomic_mobius_path_agrees():
    for n in range(1, 151):
        assert _cyclotomic_mobius(n) == pr.cyclotomic(n)


def test_cyclotomic_four_and_five_primes():
    # the range above has at most three distinct primes per index
    for n in (210, 330, 1155, 2310, 4620):
        assert _cyclotomic_mobius(n) == pr.cyclotomic(n)
    # 15015 = 3.5.7.11.13, the least product of five odd primes
    f = pr.cyclotomic(15015)
    assert f.degree == 5760 and max(abs(c) for c in f.coeffs) == 23


def test_cyclotomic_value():
    for n in (1, 2, 6, 12, 105, 3 * 4, 9, 16):
        assert pr.cyclotomic_value(n, 2) == pr.cyclotomic(n)(2)
        assert pr.cyclotomic_value(n, 3) == pr.cyclotomic(n)(3)


def test_lemma_basic_transformations():
    # Phi_pn(x) = Phi_n(x^p) when p | n; Phi_pn(x) Phi_n(x) = Phi_n(x^p) when p
    # does not divide n; Phi_2n(x) = (-1)^phi(n) Phi_n(-x) for odd n;
    # Phi_n(-x) = Phi_n(x) when 4 | n.
    def substitute(f, p):
        out = [0] * (f.degree * p + 1)
        for i, c in enumerate(f.coeffs):
            out[i * p] = c
        return IntPoly(out)

    def negate_x(f):
        return IntPoly(tuple(-c if i % 2 else c for i, c in enumerate(f.coeffs)))

    for n in range(1, 101):
        for p in (2, 3, 5, 7):
            if p * n > 300:
                continue
            if n % p == 0:
                assert pr.cyclotomic(p * n) == substitute(pr.cyclotomic(n), p)
            else:
                assert pr.cyclotomic(p * n) * pr.cyclotomic(n) == substitute(pr.cyclotomic(n), p)
        if n % 2 == 1:
            sign = (-1) ** nt.euler_phi(n)
            assert pr.cyclotomic(2 * n) == sign * negate_x(pr.cyclotomic(n))
        if n % 4 == 0:
            assert negate_x(pr.cyclotomic(n)) == pr.cyclotomic(n)


def test_inverse_cyclotomic():
    assert pr.inverse_cyclotomic(1) == IntPoly((1,))
    assert pr.inverse_cyclotomic(6) == IntPoly((-1, -1, 0, 1, 1))
    for p in (2, 3, 5, 7, 11):
        assert pr.inverse_cyclotomic(p) == IntPoly((-1, 1))
    for n in range(2, 80):
        psi = pr.inverse_cyclotomic(n)
        assert psi(0) == -1
        assert psi * pr.cyclotomic(n) == xn_minus_1(n)
    # the division route the Mobius series replaced is the oracle
    for n in range(1, 2001):
        assert pr.inverse_cyclotomic(n) == pr.poly_div_exact(xn_minus_1(n), pr.cyclotomic(n)), n


def test_coxeter_poly():
    e6 = pr.coxeter_poly(6)
    assert e6 == pr.parse_poly("x^6 + x^5 - x^3 + x + 1")
    for n in range(6, 40):
        en = pr.coxeter_poly(n)
        assert en(1) == 9 - n
        assert pr.is_self_reciprocal(en)
    assert pr.coxeter_poly(10)(1) == -1
    assert pr.coxeter_poly(9)(1) == 0
    with pytest.raises(InputError):
        pr.coxeter_poly(5)


def test_eval_rational():
    f = pr.cyclotomic(6)
    assert Fraction(f(Fraction(1, 2))) == Fraction(3, 4)
    for n in range(2, 51):
        assert Fraction(pr.cyclotomic(n)(Fraction(1))) == nt.prime_power_value(n)
    assert Fraction(pr.cyclotomic(2)(Fraction(-1))) == 0
    assert Fraction(pr.cyclotomic(18)(Fraction(-1))) == 3


def test_phi_at_minus_one_classification():
    assert pr.cyclotomic(1)(-1) == -2
    assert pr.cyclotomic(2)(-1) == 0
    for n in range(3, 121):
        # n = 2 p^e (p prime, e >= 1) gives p, anything else gives 1
        if n % 2 == 0 and nt.prime_power_value(n // 2) > 1:
            expected = nt.prime_power_value(n // 2)
        else:
            expected = 1
        assert pr.cyclotomic(n)(-1) == expected


def test_derivative():
    assert IntPoly((0, 0, 1)).derivative(1) == IntPoly((0, 2))
    assert pr.cyclotomic(5).derivative(2)(1) == 20
    f = IntPoly((3, 1, 4, 1))
    assert f.derivative(0) == f


def _first_log_derivative(f, x):
    # (log f)'(x) through both views, which must agree
    (value,) = pr.log_derivative_values(f, 1, x)
    den, (num,) = pr.log_derivative_row(f, 1, x)
    assert Fraction(num, den) == value
    return value


def test_log_derivative_oracle():
    assert _first_log_derivative(IntPoly((-2, 1)), 1) == -1
    for n in range(3, 31):
        assert _first_log_derivative(pr.cyclotomic(n), 1) == Fraction(nt.euler_phi(n), 2)
    for n in range(2, 31):
        assert _first_log_derivative(pr.cyclotomic(n), 0) == -nt.mobius(n)
    for view in (pr.log_derivative_values, pr.log_derivative_row):
        with pytest.raises(PoleError):
            view(IntPoly((-1, 1)), 1, 1)


def test_log_derivative_values_refuses_costly_work_before_any_pass(monkeypatch):
    # a pass at 2 over 10^6 coefficients that grow to 10^6 bits, 10^5 orders at
    # 1 whose values grow to about 10^5 log2 10^5 bits, 400 orders at 0 of
    # values with denominators of up to 400 * 13288 bits, and 3 passes at 1
    # over a coefficient of 10^60000
    def no_pass(coeffs):
        raise AssertionError("the descending copy was made")

    monkeypatch.setattr(pr, "reversed", no_pass, raising=False)
    tall = IntPoly((1, 1)) + IntPoly.monomial(10 ** 60000, 50)
    for f, K, x in (
        (IntPoly.monomial(1, 999999) + 1, 10, 2),
        (IntPoly((2, 1)), 10 ** 5, 1),
        (IntPoly((10 ** 4000, 1)), 400, 0),
        (tall, 2, 1),
    ):
        for view in (pr.log_derivative_values, pr.log_derivative_row):
            with pytest.raises(ResourceError, match=rf"guardrail TAYLOR_WORK_LIMIT = {pr.TAYLOR_WORK_LIMIT}$"):
                view(f, K, x)
    # at 0 only f_0..f_K are read, with no descending copy: the values of 1 + x
    assert pr.log_derivative_values(tall, 2, 0) == [1, -1]
    monkeypatch.undo()  # the row view reverses its powers of c_0
    assert pr.log_derivative_row(tall, 2, 0) == pr.log_derivative_row(IntPoly((1, 1)), 2, 0)


@settings(max_examples=100, deadline=None)
@given(huge_polys)
def test_height_is_the_largest_absolute_coefficient(f):
    assert f.height == max(map(abs, f.coeffs), default=0)
    assert IntPoly().height == 0


def test_intpoly_height_cannot_be_assigned():
    f = IntPoly((3, -7, 1))
    for _ in range(2):  # before and after the first read
        for name in ("height", "_height"):
            with pytest.raises(AttributeError, match="IntPoly is immutable"):
                setattr(f, name, 5)
        assert f.height == 7


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))], ids=["copy", "deepcopy", "pickle"]
)
def test_intpoly_pickles_and_copies_without_its_height(clone):
    f = IntPoly((2,)) * pr.cyclotomic(15)
    assert f.height == 2
    g = clone(f)
    assert type(g) is IntPoly and g == f and g.coeffs == f.coeffs
    with pytest.raises(AttributeError):
        g._height  # recomputed on first read, never carried over
    assert g.height == 2
    assert clone(IntPoly()) == IntPoly()


def test_rows_at_one_and_minus_one_and_sign_tests_scan_once(monkeypatch):
    # one scan of the coefficients for the height, however many readers: the
    # row at 1, the row at -1 and the root bound of the sign tests
    from cyclokit import kronecker

    scans = []

    def counting_max(*args, **kwargs):
        if len(args) == 1:
            scans.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(pr, "max", counting_max, raising=False)
    f = IntPoly((3, 0, 1, 0, 1))  # monic, f(0), f(1) and f(-1) all positive
    for x in (1, -1):
        pr.log_derivative_row(f, 5, x)
        pr.log_derivative_values(f, 5, x)
    assert kronecker.sign_tests(f) is None
    assert kronecker.log_rows(f)[1] == pr.log_derivative_row(f, 5, 1)
    assert len(scans) == 1
    pr.log_derivative_row(f, 5, 0)  # at 0 the K + 1 coefficients read are scanned
    assert len(scans) == 2


def test_log_derivative_values_match_series_shift():
    # against an independent check: derivatives of f'/f computed by explicit
    # high-order quotient-rule values on shifted Taylor coefficients
    f = IntPoly((3, -2, 0, 1, 5))
    x = Fraction(1, 3)
    vals = pr.log_derivative_values(f, 5, x)
    # power series of f around x, then series of f'/f, term by term
    K = 6
    shifted = [Fraction(f.derivative(t)(Fraction(x))) /_fact(t) for t in range(K + 1)]
    dshift = [(t + 1) * shifted[t + 1] for t in range(K)]
    series = _series_div(dshift, shifted[:K], K)
    for k in range(1, 6):
        assert vals[k - 1] == series[k - 1] * _fact(k - 1)


def _quotient_rule_log_derivatives(f, K, x):
    # (log f)^(k) = N_k / f^k with N_1 = f' and N_{k+1} = N_k' f - k N_k f':
    # dense numerators of degree about k deg f, so only for small degrees
    fx = Fraction(f(Fraction(x)))
    if fx == 0:
        raise PoleError(f"f({x}) = 0")
    fprime = f.derivative()
    n_k = fprime
    vals = [Fraction(n_k(Fraction(x))) / fx]
    for k in range(1, K):
        n_k = n_k.derivative() * f - k * (n_k * fprime)
        vals.append(Fraction(n_k(Fraction(x))) / fx ** (k + 1))
    return vals


def _assert_row_matches(f, K, x, values):
    # log_derivative_row holds the same values over one denominator D > 0 of
    # plain ints, or raises PoleError where the values do (values None)
    if values is None:
        with pytest.raises(PoleError, match="logarithmic derivative has a pole"):
            pr.log_derivative_row(f, K, x)
        return
    den, nums = pr.log_derivative_row(f, K, x)
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == values


def _assert_matches_quotient_rule(f, K, x):
    # equal values, or PoleError from both views; returns the values, None at a pole
    try:
        expected = _quotient_rule_log_derivatives(f, K, x)
    except PoleError:
        with pytest.raises(PoleError, match="logarithmic derivative has a pole"):
            pr.log_derivative_values(f, K, x)
        _assert_row_matches(f, K, x, None)
        return None
    got = pr.log_derivative_values(f, K, x)
    assert all(type(v) is Fraction for v in got)
    assert got == expected
    _assert_row_matches(f, K, x, got)
    return got


def test_log_derivative_values_match_quotient_rule():
    points = (0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7))
    poles = set()
    for n in range(1, 60):
        f = pr.cyclotomic(n)
        for x in points:
            vals = _assert_matches_quotient_rule(f, 6, x)
            if vals is None:
                poles.add((n, x))
                continue
            for K in range(1, 6):
                assert pr.log_derivative_values(f, K, x) == vals[:K]
    assert poles == {(1, 1), (2, -1)}
    assert pr.log_derivative_values(pr.cyclotomic(6), 0, 1) == []
    assert pr.log_derivative_row(pr.cyclotomic(6), 0, 1) == (1, [])
    # f(2) = -3 < 0 at odd K: the sign of f(2)^K moves into the numerators
    f = IntPoly((1, -2))
    assert f(2) == -3
    vals = _assert_matches_quotient_rule(f, 3, 2)
    assert vals == [Fraction(2, 3), Fraction(-4, 9), Fraction(16, 27)]
    assert pr.log_derivative_row(f, 3, 2) == (27, [18, -12, 16])


nonzero = st.integers(-9, 9).filter(bool)
int_polys = st.one_of(
    st.just(IntPoly()),
    st.builds(
        lambda body, lead: IntPoly(body + [lead]),
        st.lists(st.integers(-9, 9), max_size=12),
        nonzero,
    ),
)
rational_points = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(int_polys, rational_points, st.integers(1, 6))
def test_log_derivative_values_match_quotient_rule_random(f, x, K):
    _assert_matches_quotient_rule(f, K, x)


def _log_derivative_values_by_synthetic_division(f, K, x):
    # the Taylor coefficients of f at x by K + 1 synthetic divisions by y - x
    # in rationals, one interpreted loop each, then the series
    # f'(x + t) / f(x + t) = sum_k (log f)^(k)(x) t^(k-1) / (k-1)! term by term
    if K < 1:
        return []
    x = Fraction(x)
    h = [Fraction(c) for c in reversed(f.coeffs)]
    taylor = []
    while h and len(taylor) <= K:
        for i in range(1, len(h)):
            h[i] += h[i - 1] * x
        taylor.append(h.pop())
    if not taylor or taylor[0] == 0:
        raise PoleError(f"f({x}) = 0")
    taylor += [Fraction(0)] * (K + 1 - len(taylor))
    dshift = [(t + 1) * taylor[t + 1] for t in range(K)]
    series = _series_div(dshift, taylor[:K], K)
    return [series[k - 1] * _fact(k - 1) for k in range(1, K + 1)]


shift_points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
)


_DEGREE_200 = [(-1) ** i * (10 ** 30 - 7 * i) for i in range(201)]


@settings(max_examples=150, deadline=None)
@example(_DEGREE_200, Fraction(-1), 12, False)
@example(_DEGREE_200[:200], Fraction(1), 12, True)
@example(_DEGREE_200, Fraction(5, 3), 12, False)
@given(
    st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=201),
    shift_points,
    st.integers(0, 12),
    st.booleans(),
)
def test_log_derivative_values_match_synthetic_division(coeffs, x, K, root):
    f = IntPoly(coeffs)
    if root:  # times q y - p for x = p/q, so that f vanishes at x
        f = f * IntPoly((-x.numerator, x.denominator))
    try:
        expected = _log_derivative_values_by_synthetic_division(f, K, x)
    except PoleError:
        with pytest.raises(PoleError, match="logarithmic derivative has a pole"):
            pr.log_derivative_values(f, K, x)
        _assert_row_matches(f, K, x, None)
        return
    assert pr.log_derivative_values(f, K, x) == expected
    _assert_row_matches(f, K, x, expected)


@settings(max_examples=150, deadline=None)
@given(int_polys, shift_points, st.integers(0, 8), st.integers(0, 8), st.booleans())
def test_log_derivative_values_prefix_property(f, x, K, k, root):
    # the first k values of order K are the values of order k, poles included
    k = min(k, K)
    if root:  # times q y - p for x = p/q, so that f vanishes at x
        f = f * IntPoly((-x.numerator, x.denominator))
    try:
        full = pr.log_derivative_values(f, K, x)
    except PoleError:
        if k:
            with pytest.raises(PoleError):
                pr.log_derivative_values(f, k, x)
        _assert_row_matches(f, K, x, None)
        return
    assert full[:k] == pr.log_derivative_values(f, k, x)
    _assert_row_matches(f, K, x, full)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _series_div(num, den, K):
    out = []
    acc = list(num)
    inv0 = Fraction(1) / den[0]
    for k in range(K):
        c = acc[k] * inv0
        out.append(c)
        for j in range(k, K):
            acc[j] -= c * den[j - k]
    return out


def test_is_self_reciprocal():
    for n in range(2, 51):
        assert pr.is_self_reciprocal(pr.cyclotomic(n))
    assert not pr.is_self_reciprocal(pr.cyclotomic(1))
    assert not pr.is_self_reciprocal(IntPoly((2, 1, 1)))


def self_reciprocal_first_derivative(f, point):
    # f'(point) for a self-reciprocal f of degree d at +1 or -1: f(1) d / 2 at
    # +1 and -f(-1) d / 2 at -1, where an odd-degree palindrome vanishes
    if not pr.is_self_reciprocal(f) or f.degree < 1:
        raise InputError("need a self-reciprocal polynomial of degree >= 1")
    if point == -1 and f.degree % 2:
        raise DomainError("odd-degree self-reciprocal polynomial: f(-1) = 0")
    return Fraction(point * f(point) * f.degree, 2)


def test_self_reciprocal_first_derivative():
    assert self_reciprocal_first_derivative(pr.cyclotomic(6), 1) == 1
    assert self_reciprocal_first_derivative(pr.cyclotomic(4), -1) == -2
    for n in (3, 4, 6, 8, 12, 30):
        f = pr.cyclotomic(n)
        assert self_reciprocal_first_derivative(f, 1) == f.derivative()(1)
        assert self_reciprocal_first_derivative(f, -1) == f.derivative()(-1)
    odd_pal = IntPoly((1, 2, 2, 1))
    assert odd_pal(-1) == 0
    with pytest.raises(DomainError):
        self_reciprocal_first_derivative(odd_pal, -1)
    # and an oracle for the closed-form first derivatives of Phi_n at +-1
    for n in range(3, 200):
        f = pr.cyclotomic(n)
        assert cd.phi_derivs_at_one(n, 1)[1] == self_reciprocal_first_derivative(f, 1), n
        assert cd.phi_derivs_at_minus_one(n, 1)[1] == self_reciprocal_first_derivative(f, -1), n


@settings(max_examples=150, deadline=None)
@given(huge_polys, huge_polys, root_orders)
def test_norm_at_root_of_unity_is_multiplicative(f, g, m):
    assert pr.norm_at_root_of_unity(f * g, m) == (
        pr.norm_at_root_of_unity(f, m) * pr.norm_at_root_of_unity(g, m)
    )


def test_eval_at_root_of_unity():
    assert pr.eval_at_root_of_unity(IntPoly((0, 1)), 4) == (0, 1)
    assert pr.norm_at_root_of_unity(IntPoly((0, 1)), 4) == 1
    # |Phi_n(zeta_m)| = p exactly when n/m is a prime power p^k, else 1
    for m in (1, 2, 3, 4, 6):
        for n in range(m + 1, 61):
            norm = pr.norm_at_root_of_unity(pr.cyclotomic(n), m)
            if n % m == 0 and nt.prime_power_value(n // m) > 1:
                p = nt.prime_power_value(n // m)
                assert norm == p * p
            else:
                assert norm == 1


def test_eval_at_root_of_unity_rejects_other_orders():
    for m in (0, 5, 8, -1):
        with pytest.raises(InputError):
            pr.eval_at_root_of_unity(IntPoly((1, 1)), m)
        with pytest.raises(InputError):
            pr.norm_at_root_of_unity(IntPoly((1, 1)), m)


def _eval_at_root_of_unity_by_division(f, m):
    # f mod Phi_m by long division: phi(m) <= 2, so the remainder r0 + r1 x
    # read at x = zeta_m is the pair (r0, r1)
    rem = list(f.coeffs)
    phi_m = pr.cyclotomic(m).coeffs
    d = len(phi_m) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i]
        for j, c in enumerate(phi_m):
            rem[i - d + j] -= q * c
    rem = rem[:d] + [0, 0]
    return rem[0], rem[1]


def test_eval_at_root_of_unity_matches_division_on_cyclotomics():
    for n in range(1, 300):
        f = pr.cyclotomic(n)
        for m in (1, 2, 3, 4, 6):
            assert pr.eval_at_root_of_unity(f, m) == _eval_at_root_of_unity_by_division(f, m)


@settings(max_examples=150, deadline=None)
@given(huge_polys, root_orders)
def test_eval_at_root_of_unity_matches_division(f, m):
    assert pr.eval_at_root_of_unity(f, m) == _eval_at_root_of_unity_by_division(f, m)


def test_cyclotomic_value_matches_polynomial():
    for n in range(1, 2001):
        f = pr.cyclotomic(n)
        for a in (2, -2, 3, -3, 5, -7, 0, 1, -1):
            assert pr.cyclotomic_value(n, a) == f(a), (n, a)


def test_cyclotomic_value_near_zero_on_huge_non_squarefree_n():
    # Phi_n(x) = Phi_r(x^(n/r)), r = rad(n), worked by hand: Phi_(2^40) = x^(2^39) + 1,
    # Phi_(3^30)(+-1) = Phi_3(+-1), and n / r is odd for the other two, so
    # Phi_n(-1) = Phi_6(-1) = 3 and Phi_30(-1) = Phi_15(1) = 1.  No Phi_n of
    # degree phi(n) > DEGREE_GUARDRAIL may be built on the way.
    expected = {
        2 ** 40: (2, 1, 2),
        3 ** 30: (1, 1, 3),
        2 * 3 ** 25: (3, 1, 1),
        2 * 3 ** 25 * 5 ** 3: (1, 1, 1),
    }
    for n, values in expected.items():
        assert tuple(pr.cyclotomic_value(n, x) for x in (-1, 0, 1)) == values, n


def test_cyclotomic_value_at_zero_and_one_builds_no_polynomial(monkeypatch):
    # Phi_n(1) = p for n = p^k, Phi_n(0) = 1 and Phi_n(-1) = Phi_(n alpha(n))(1)
    # for n >= 3, though phi(n) or phi(rad(n)) lies above DEGREE_GUARDRAIL:
    # 1000003 is prime, 2000006 twice it, and 111546435 = 3 * 5 * ... * 23
    def no_build(n):
        raise AssertionError(f"built Phi_{n}")

    monkeypatch.setattr(pr, "cyclotomic", no_build)
    assert [pr.cyclotomic_value(n, 1) for n in (1000003, 2000006, 111546435)] == [1000003, 1, 1]
    assert [pr.cyclotomic_value(n, 0) for n in (1000003, 2000006, 111546435)] == [1, 1, 1]
    assert [pr.cyclotomic_value(n, -1) for n in (1000003, 2000006, 111546435, 4 * 1000003)] == [1, 1000003, 1, 1]


def test_poly_div_exact():
    assert pr.poly_div_exact(xn_minus_1(6), pr.cyclotomic(6)) == pr.inverse_cyclotomic(6)
    assert pr.poly_div_exact(IntPoly((1, 0, 1)), IntPoly((1, 1))) is None
    # a dividend of lower degree than the divisor divides only when it is zero
    assert pr.poly_div_exact(IntPoly(), pr.cyclotomic(6)) == IntPoly()
    assert pr.poly_div_exact(IntPoly((1, 1)), pr.cyclotomic(6)) is None
    with pytest.raises(InputError):
        pr.poly_div_exact(IntPoly((1, 1)), IntPoly())
    with pytest.raises(InputError):
        pr.poly_div_exact(IntPoly((1, 0, 1)), IntPoly((1, 2)))
    f3 = IntPoly((1, -1, 0, 1, 0, -1, 1))  # 1 - x + x^3 - x^5 + x^6
    assert pr.poly_div_exact(f3, pr.cyclotomic(6) * pr.cyclotomic(12)) == IntPoly((1,))


def _poly_div_schoolbook(f, g):
    # long division over every coefficient of the monic g, with the quotient
    # collected in its own list
    dg = g.degree
    if f.degree < dg:
        return IntPoly() if f.is_zero() else None
    rem = list(f.coeffs)
    quot = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        quot[i] = q = rem[i + dg]
        for j, c in enumerate(g.coeffs[:-1]):
            rem[i + j] -= q * c
    return None if any(rem[:dg]) else IntPoly(quot)


# monic divisors whose lower coefficients are mostly zero, like the Phi_d
sparse_monic = st.lists(
    st.one_of(st.just(0), st.just(0), st.integers(-3, 3)), max_size=12
).map(lambda body: IntPoly(body + [1]))


@settings(max_examples=300, deadline=None)
@given(sparse_monic, st.lists(st.integers(-5, 5), max_size=10), small_polys, st.booleans())
def test_poly_div_exact_matches_schoolbook(g, quotient, extra, divisible):
    # divisible inputs are g times a quotient; the others add a perturbation
    # that usually leaves a remainder
    f = g * IntPoly(quotient)
    if not divisible:
        f = f + extra
    want = _poly_div_schoolbook(f, g)
    assert pr.poly_div_exact(f, g) == want
    if divisible:
        assert want == IntPoly(quotient)


def test_multiplicity():
    f = pr.cyclotomic(6) ** 3 * pr.cyclotomic(4)
    assert pr.multiplicity(f, pr.cyclotomic(6)) == 3
    assert pr.multiplicity(f, pr.cyclotomic(4)) == 1
    assert pr.multiplicity(f, pr.cyclotomic(5)) == 0


def test_nicol_polynomial_identity():
    # sum_{k=1}^{n} r_k(n) x^(k-1) = Psi_n(x) * Phi_n'(x)
    for n in range(1, 61):
        lhs = IntPoly([nt.ramanujan_sum(k, n) for k in range(1, n + 1)])
        rhs = pr.inverse_cyclotomic(n) * pr.cyclotomic(n).derivative()
        assert lhs == rhs


def test_format_parse_roundtrip_fixed():
    cases = [
        IntPoly(()),
        IntPoly((1,)),
        IntPoly((-2,)),
        IntPoly((0, 1)),
        IntPoly((1, -1, 1)),
        IntPoly((5, 0, 0, -7)),
        pr.cyclotomic(105),
    ]
    for f in cases:
        assert pr.parse_poly(pr.format_poly(f)) == f
        assert pr.parse_poly(pr.format_poly_csv(f)) == f
    assert pr.parse_poly("1,-1,1") == IntPoly((1, -1, 1))
    assert pr.parse_poly("x^2 - x + 1") == IntPoly((1, -1, 1))
    assert pr.parse_poly("-x^3+2*x") == IntPoly((0, 2, 0, -1))
    assert pr.parse_poly("2x") == IntPoly((0, 2))


@settings(max_examples=300, deadline=None)
@example(IntPoly())
@given(
    st.one_of(
        small_polys,
        st.builds(IntPoly, st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=13)),
    )
)
def test_format_parse_roundtrip_random(f):
    assert pr.parse_poly(pr.format_poly(f)) == f
    assert pr.parse_poly(pr.format_poly_csv(f)) == f


def test_parse_errors_have_positions():
    with pytest.raises(InputError):
        pr.parse_poly("1,two,3")
    with pytest.raises(InputError):
        pr.parse_poly("x^2 + y")
    with pytest.raises(InputError):
        pr.parse_poly("")


def test_parse_degree_guardrail():
    # refused from the exponent, before the dense list is allocated
    assert pr.parse_poly("x^1000000 + 1").degree == pr.DEGREE_GUARDRAIL == 10 ** 6
    with pytest.raises(ResourceError, match=r"^degree 1000001 exceeds the guardrail DEGREE_GUARDRAIL = 1000000$"):
        pr.parse_poly("x^1000001")


def test_parse_digit_limit():
    # a number past Python's int string limit (4300 digits by default) is a
    # refused size in both forms, not a ValueError
    limit = 4300
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        under, over = "9" * limit, "9" * (limit + 1)
        assert pr.parse_poly(f"{under}x + 1") == IntPoly((1, int(under)))
        assert pr.parse_poly(f"x - {under}") == IntPoly((-int(under), 1))
        refused = f"digit count {limit + 1} exceeds the guardrail sys.get_int_max_str_digits\\(\\) = {limit}$"
        for text in (f"{over}x + 1", f"x - {over}", f"x^{over}", f"2*x^{over} + x", f"1,{over}", f"1,-{over}"):
            with pytest.raises(ResourceError, match=refused):
                pr.parse_poly(text)
        with pytest.raises(ResourceError, match="DEGREE_GUARDRAIL"):
            pr.parse_poly(f"x^{under}")
        with pytest.raises(InputError, match="bad coefficient"):
            pr.parse_poly(f"1,{under}a")
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_rejects_stray_signs():
    for text in ("x--1", "x-+1", "x-", "x+", "++x", "x^2 - - x"):
        with pytest.raises(InputError, match="stray sign"):
            pr.parse_poly(text)
