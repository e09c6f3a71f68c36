from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from cyclokit.errors import DomainError, InputError, PoleError
from cyclokit.polyring import IntPoly

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=8))
huge_polys = st.builds(IntPoly, st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=41))
root_orders = st.sampled_from([1, 2, 3, 4, 6])


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
        assert prod == pr.xn_minus_1(n)


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
            num = num * pr.xn_minus_1(d)
        elif mu == -1:
            den = den * pr.xn_minus_1(d)
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
        assert psi * pr.cyclotomic(n) == pr.xn_minus_1(n)


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
        if n % 2 == 0 and nt.is_prime_power(n // 2):
            expected = nt.prime_power_value(n // 2)
        else:
            expected = 1
        assert pr.cyclotomic(n)(-1) == expected


def test_derivative():
    assert IntPoly((0, 0, 1)).derivative(1) == IntPoly((0, 2))
    assert pr.cyclotomic(5).derivative(2)(1) == 20
    f = IntPoly((3, 1, 4, 1))
    assert f.derivative(0) == f


def test_log_derivative_oracle():
    assert pr.log_derivative_oracle(IntPoly((-2, 1)), 1, 1) == -1
    for n in range(3, 31):
        assert pr.log_derivative_oracle(pr.cyclotomic(n), 1, 1) == Fraction(nt.euler_phi(n), 2)
    for n in range(2, 31):
        assert pr.log_derivative_oracle(pr.cyclotomic(n), 1, 0) == -nt.mobius(n)
    with pytest.raises(PoleError):
        pr.log_derivative_oracle(IntPoly((-1, 1)), 1, 1)


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


def _assert_matches_quotient_rule(f, K, x):
    # equal values, or PoleError from both; returns the values, None at a pole
    try:
        expected = _quotient_rule_log_derivatives(f, K, x)
    except PoleError:
        with pytest.raises(PoleError, match="logarithmic derivative has a pole"):
            pr.log_derivative_values(f, K, x)
        return None
    got = pr.log_derivative_values(f, K, x)
    assert all(type(v) is Fraction for v in got)
    assert got == expected
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


def test_self_reciprocal_first_derivative():
    assert pr.self_reciprocal_first_derivative(pr.cyclotomic(6), 1) == 1
    assert pr.self_reciprocal_first_derivative(pr.cyclotomic(4), -1) == -2
    for n in (3, 4, 6, 8, 12, 30):
        f = pr.cyclotomic(n)
        assert pr.self_reciprocal_first_derivative(f, 1) == f.derivative()(1)
        assert pr.self_reciprocal_first_derivative(f, -1) == f.derivative()(-1)
    odd_pal = IntPoly((1, 2, 2, 1))
    assert odd_pal(-1) == 0
    with pytest.raises(DomainError):
        pr.self_reciprocal_first_derivative(odd_pal, -1)


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
            if n % m == 0 and nt.is_prime_power(n // m):
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
    for n in range(1, 2000):
        f = pr.cyclotomic(n)
        for a in (2, -2, 3, -3, 5, -7):
            assert pr.cyclotomic_value(n, a) == f(a), (n, a)


def test_poly_div_exact():
    assert pr.poly_div_exact(pr.xn_minus_1(6), pr.cyclotomic(6)) == pr.inverse_cyclotomic(6)
    assert pr.poly_div_exact(IntPoly((1, 0, 1)), IntPoly((1, 1))) is None
    with pytest.raises(InputError):
        pr.poly_div_exact(IntPoly((1, 0, 1)), IntPoly((1, 2)))
    f3 = IntPoly((1, -1, 0, 1, 0, -1, 1))  # 1 - x + x^3 - x^5 + x^6
    assert pr.poly_div_exact(f3, pr.cyclotomic(6) * pr.cyclotomic(12)) == IntPoly((1,))


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
    with pytest.raises(InputError, match="guardrail"):
        pr.parse_poly("x^1000001")


def test_parse_rejects_stray_signs():
    for text in ("x--1", "x-+1", "x-", "x+", "++x", "x^2 - - x"):
        with pytest.raises(InputError, match="stray sign"):
            pr.parse_poly(text)
