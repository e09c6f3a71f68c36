import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclokit import combinat as cb
from cyclokit import numtheory as nt
from cyclokit.errors import DomainError, InputError, ResourceError

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)


def test_bernoulli_small_values():
    assert cb.bernoulli_plus(0) == 1
    assert cb.bernoulli_plus(1) == Fraction(1, 2)
    assert cb.bernoulli_plus(3) == 0
    assert cb.bernoulli_plus(4) == Fraction(-1, 30)
    assert cb.bernoulli_minus(0) == 1
    assert cb.bernoulli_minus(1) == Fraction(-1, 2)
    assert cb.bernoulli_minus(2) == Fraction(1, 6)


def test_tables_answer_at_the_index_limit_and_refuse_above_it():
    n = cb.TABLE_INDEX_LIMIT
    assert cb.stirling_first(n, n) == cb.stirling_second(n, n) == cb.stirling_second(n, 1) == 1
    assert cb.stirling_first(n, 1) == (-1) ** (n - 1) * factorial(n - 1)
    assert cb.stirling_second(n, n - 1) == comb(n, 2)
    # von Staudt-Clausen: the denominator of B_n (n even) is the product of
    # the primes p with (p - 1) | n, and the sign of B_n is (-1)^(n/2 + 1)
    assert n % 2 == 0
    b = cb.bernoulli_plus(n)
    assert b.denominator == prod(p for p in nt.primes_up_to(n + 1) if n % (p - 1) == 0)
    assert (b > 0) == (n % 4 == 2)
    for call in (
        lambda: cb.bernoulli_plus(n + 1),
        lambda: cb.bernoulli_minus(n + 1),
        lambda: cb.stirling_first(n + 1, 1),
        lambda: cb.stirling_second(n + 1, 1),
    ):
        with pytest.raises(ResourceError, match="TABLE_INDEX_LIMIT"):
            call()
    # past the row there is nothing to build, so no refusal
    assert cb.stirling_first(n + 1, n + 2) == cb.stirling_second(n + 1, n + 2) == 0


def test_bernoulli_plus_minus_agree_off_one():
    for n in range(2, 31):
        assert cb.bernoulli_plus(n) == cb.bernoulli_minus(n)
        if n % 2 == 1:
            assert cb.bernoulli_plus(n) == 0


def _bernoulli_minus_recurrence(n):
    # B_m^- = -sum_{k<m} C(m, k) B_k^- / (m - k + 1), the B^- side of the
    # recurrence, kept apart from the B^+ route the library derives B^- from
    table = [Fraction(1)]
    for m in range(1, n + 1):
        table.append(-sum(comb(m, k) * table[k] / (m - k + 1) for k in range(m)))
    return table


def test_bernoulli_minus_matches_its_own_recurrence():
    table = _bernoulli_minus_recurrence(40)
    for n in range(41):
        assert cb.bernoulli_minus(n) == table[n], n
    with pytest.raises(InputError):
        cb.bernoulli_minus(-1)


def test_bernoulli_even_sign():
    for n in range(2, 31, 2):
        sign = (-1) ** (n // 2 + 1)
        assert cb.bernoulli_plus(n) * sign > 0


def test_stirling_first_values():
    assert cb.stirling_first(4, 4) == 1
    assert cb.stirling_first(4, 1) == -6
    assert cb.stirling_first(4, 2) == 11
    for k in range(8):
        assert cb.stirling_first(k, k) == 1
    for k in range(1, 8):
        assert cb.stirling_first(k, 0) == 0
        assert cb.stirling_first(k, 1) == (-1) ** (k - 1) * factorial(k - 1)
    assert cb.stirling_first(3, 5) == 0


def test_stirling_first_generating_polynomial():
    # coefficients of x(x-1)...(x-k+1)
    for k in range(11):
        coeffs = [1]
        for i in range(k):
            coeffs = [0] + coeffs
            coeffs = [coeffs[j] - i * (coeffs[j + 1] if j + 1 < len(coeffs) else 0)
                      for j in range(len(coeffs))]
        # after the loop, coeffs[j] is the x^j coefficient of the falling factorial
        for j in range(k + 1):
            assert coeffs[j] == cb.stirling_first(k, j)


def test_stirling_second_values():
    assert cb.stirling_second(5, 2) == 15
    assert cb.stirling_second(4, 2) == 7
    for k in range(8):
        assert cb.stirling_second(k, k) == 1
    for k in range(1, 20):
        assert cb.stirling_second(k, 1) == 1
        assert cb.stirling_second(k, 2) == 2 ** (k - 1) - 1


def test_stirling_second_counts_set_partitions():
    # brute-force count of set partitions of {0..k-1} into j blocks
    def count(k, j):
        if k == 0:
            return 1 if j == 0 else 0
        # last element either alone in a new block or joins one of j blocks
        return count(k - 1, j - 1) + j * count(k - 1, j)

    for k in range(8):
        for j in range(k + 2):
            assert cb.stirling_second(k, j) == count(k, j)


def test_stirling_inversion():
    for k in range(1, 13):
        for j in range(1, 13):
            lhs = sum(cb.stirling_first(k, t) * cb.stirling_second(t, j) for t in range(1, 13))
            rhs = sum(cb.stirling_second(k, t) * cb.stirling_first(t, j) for t in range(1, 13))
            want = 1 if j == k else 0
            assert lhs == want
            assert rhs == want


def test_worpitzky():
    for k in range(1, 21):
        s = sum(
            (-1) ** (j - 1) * Fraction(1, 2 ** j) * factorial(j - 1) * cb.stirling_second(k, j)
            for j in range(1, k + 1)
        )
        assert cb.bernoulli_plus(k) == Fraction(k, 2 ** k - 1) * s


def partitions(k):
    """All partitions of k as multiplicity vectors (l_1, ..., l_k), so that
    sum(j * l_j) = k, in ascending lexicographic order; the oracle of the
    partition sums in the coefficient tests."""
    out = []
    for mults in cb.partitions_into_parts(k, range(1, k + 1)):
        vec = [0] * k
        for part, m in mults.items():
            vec[part - 1] = m
        out.append(tuple(vec))
    return tuple(sorted(out))


def test_partitions():
    assert partitions(1) == ((1,),)
    assert partitions(2) == ((0, 1), (2, 0))
    assert len(partitions(4)) == 5
    counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for k, want in zip(range(1, 11), counts):
        ps = partitions(k)
        assert len(ps) == want
        assert len(set(ps)) == want
        assert list(ps) == sorted(ps)
        for vec in ps:
            assert sum((j + 1) * m for j, m in enumerate(vec)) == k


def test_partitions_into_parts():
    # partitions of 6 into parts {1, 2, 3}: matches unrestricted count with max part 3
    got = sorted(tuple(sorted(d.items())) for d in cb.partitions_into_parts(6, [1, 2, 3]))
    assert len(got) == 7
    assert len(set(got)) == 7
    for d in cb.partitions_into_parts(10, [2, 5]):
        assert sum(p * m for p, m in d.items()) == 10


def _bell_partial_by_partitions(k, j, xs):
    # the partition walk bell_partial ran before the recurrence: the sum over
    # the partitions of k into j parts of k! prod x_p^m / (m! p!^m)
    total = Fraction(0)
    for mults in cb.partitions_into_parts(k, range(1, k - j + 2)):
        if sum(mults.values()) != j:
            continue
        coeff = factorial(k)
        term = Fraction(1)
        for part, m in mults.items():
            coeff //= factorial(m) * factorial(part) ** m
            term *= Fraction(xs[part - 1]) ** m
        total += coeff * term
    return total


def test_bell_partial_matches_the_partition_walk():
    rng = random.Random(20261019)
    for k in range(1, 15):
        for j in range(1, k + 1):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k - j + 1)]
            if rng.random() < 0.3:
                xs[0] = 0
            assert cb.bell_partial(k, j, xs) == _bell_partial_by_partitions(k, j, xs), (k, j, xs)


def test_bell_polynomials_refuse_above_the_index_limit():
    n = cb.TABLE_INDEX_LIMIT
    # B_{n,n} = x_1^n, B_{n,1} = x_n, and B_n = x_n when only x_n is nonzero
    assert cb.bell_partial(n, n, [Fraction(1, 2)]) == Fraction(1, 2 ** n)
    assert cb.bell_partial(n, 1, [0] * (n - 1) + [7]) == 7
    assert cb.bell_complete(n, [0] * (n - 1) + [7]) == 7
    for call in (
        lambda: cb.bell_partial(n + 1, n + 1, [1]),
        lambda: cb.bell_partial(n + 1, 1, [1] * (n + 1)),
        lambda: cb.bell_complete(n + 1, [1] * (n + 1)),
    ):
        with pytest.raises(ResourceError, match="TABLE_INDEX_LIMIT"):
            call()


def test_bell_partial_values():
    assert cb.bell_partial(4, 2, [1, 1, 1]) == 7
    for k in range(1, 7):
        x1 = Fraction(3, 2)
        assert cb.bell_partial(k, k, [x1]) == x1 ** k
    assert cb.bell_partial(3, 1, [0, 0, Fraction(5)]) == 5
    # B_{4,2}(x1, x2, x3) = 4 x1 x3 + 3 x2^2
    assert cb.bell_partial(4, 2, [2, 3, 5]) == 4 * 2 * 5 + 3 * 9


def test_bell_partial_errors():
    with pytest.raises(InputError):
        cb.bell_partial(3, 4, [1, 1, 1])
    with pytest.raises(InputError):
        cb.bell_partial(4, 2, [1, 1])


def test_bell_complete_values():
    x1, x2, x3 = Fraction(2), Fraction(-3), Fraction(7)
    assert cb.bell_complete(0, []) == 1
    assert cb.bell_complete(2, [x1, x2]) == x1 ** 2 + x2
    assert cb.bell_complete(3, [x1, x2, x3]) == x1 ** 3 + 3 * x1 * x2 + x3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.lists(rationals, min_size=10, max_size=10))
def test_bell_complete_equals_sum_of_partials(k, xs):
    total = sum(cb.bell_partial(k, j, xs) for j in range(1, k + 1))
    assert cb.bell_complete(k, xs) == total


def test_bell_partials_sum_to_complete_seeded():
    rng = random.Random(20261018)
    for k in range(1, 11):
        xs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(k)]
        assert sum(cb.bell_partial(k, j, xs) for j in range(1, k + 1)) == cb.bell_complete(k, xs)


@settings(max_examples=80, deadline=None)
@example([0, Fraction(-1, 3), 0, 2], Fraction(-2, 7))
@example([], 3)
@given(
    st.lists(st.one_of(rationals, st.integers(-6, 6)), max_size=8),
    st.one_of(rationals, st.integers(-9, 9)).filter(lambda b: b != 0),
)
def test_exp_transform_equals_partial_bell_sums(xs, base):
    # the partition walk shares no code with the recurrence exp_transform runs
    out = cb.exp_transform(xs, base)
    assert len(out) == len(xs)
    for k, value in enumerate(out, 1):
        assert isinstance(value, Fraction)
        assert value == base * sum(_bell_partial_by_partitions(k, j, xs) for j in range(1, k + 1))


def test_exp_transform():
    assert cb.exp_transform([Fraction(7)], 1) == [7]
    # derivatives of Phi_5 at 1 from its logarithmic derivatives
    logs = [Fraction(2), Fraction(0)]  # phi(5)/2 = 2, second log-derivative is 0
    derivs = cb.exp_transform(logs, 5)
    assert derivs[0] == 10
    assert derivs[1] == 20
    assert cb.exp_transform([0, 0, 0], 4) == [0, 0, 0]
    with pytest.raises(DomainError):
        cb.exp_transform([Fraction(1)], 0)
