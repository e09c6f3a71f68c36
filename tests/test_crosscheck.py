"""Cross-checks against an unrelated computer algebra system.

sympy implements cyclotomic polynomials, Bernoulli numbers, Stirling numbers
and the basic multiplicative functions independently of anything in this
package, so agreement here is a strong external oracle.  Skipped when sympy
is not installed; it is not a runtime dependency.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from cyclokit import combinat as cb
from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from test_combinat import partitions


def test_cyclotomic_against_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 201):
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(pr.cyclotomic(n).coeffs) == [int(c) for c in theirs]


def test_bernoulli_against_sympy():
    for n in range(0, 41):
        theirs = Fraction(str(sympy.bernoulli(n)))
        if n == 1:
            assert abs(theirs) == Fraction(1, 2)
            assert cb.bernoulli_plus(1) == Fraction(1, 2)
            assert cb.bernoulli_minus(1) == Fraction(-1, 2)
        else:
            assert cb.bernoulli_plus(n) == theirs
            assert cb.bernoulli_minus(n) == theirs


def test_stirling_against_sympy():
    from sympy.functions.combinatorial.numbers import stirling

    for k in range(0, 15):
        for j in range(0, 15):
            assert cb.stirling_first(k, j) == int(stirling(k, j, kind=1, signed=True))
            assert cb.stirling_second(k, j) == int(stirling(k, j, kind=2))


def test_multiplicative_functions_against_sympy():
    from sympy.functions.combinatorial.numbers import mobius, totient

    for n in range(1, 501):
        assert nt.mobius(n) == int(mobius(n))
        assert nt.euler_phi(n) == int(totient(n))


def test_partition_counts_against_sympy():
    from sympy.functions.combinatorial.numbers import partition

    for k in range(1, 26):
        assert len(partitions(k)) == int(partition(k))


def test_bell_complete_at_ones_is_bell_number():
    from sympy.functions.combinatorial.numbers import bell

    for k in range(0, 15):
        assert cb.bell_complete(k, [1] * k) == int(bell(k))
