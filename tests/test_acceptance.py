"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact rational or integer equality; no tolerances appear
anywhere except the explicitly floating-point Ramanujan cross-check in the
numtheory unit tests.  Run with -s to see the lines as they complete.
"""

import random
from fractions import Fraction
from math import factorial

from cyclokit import combinat as cb
from cyclokit import cyclocoeffs as cc
from cyclokit import cycloderiv as cd
from cyclokit import kronecker as kr
from cyclokit import numtheory as nt
from cyclokit import polyring as pr
from cyclokit import semigroup as sg
from cyclokit.polyring import IntPoly


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


TABLE_1 = {
    1: ["-1/2", "1/2"],
    2: ["5/12", "-1/2", "1/12"],
    3: ["-3/4", "1", "-1/4", "0"],
    4: ["251/120", "-3", "11/12", "0", "-1/120"],
    5: ["-95/12", "12", "-25/6", "0", "1/12", "0"],
    6: ["19087/504", "-60", "137/6", "0", "-17/24", "0", "1/252"],
    7: ["-5257/24", "360", "-147", "0", "49/8", "0", "-1/12", "0"],
    8: ["1070017/720", "-2520", "1089", "0", "-6769/120", "0", "23/18", "0", "-1/240"],
}


def test_criterion_01_table1():
    bad = []
    count = 0
    for k, row in TABLE_1.items():
        want = tuple(Fraction(s) for s in row)
        got = cd.c_table(k).entries
        count += len(row)
        if got != want:
            bad.append(k)
    ok = not bad and count == 44
    ok = ok and cd.c_table(4).entries[0] == Fraction(251, 120)
    ok = ok and cd.c_table(8).entries[8] == Fraction(-1, 240)
    report("1 (Table 1, 44 entries)", ok, f"rows checked: {sorted(TABLE_1)}")


def test_criterion_02_a105_and_flat_coefficients():
    methods = {
        "direct": cc.coeff_direct(105, 7),
        "moller": cc.coeff_moller(105, 7),
        "recurrence": cc.coeff_prefix_recurrence(105, 7)[7],
        "bell": cc.coeff_bell(105, 7),
    }
    ok = all(v == -2 for v in methods.values())
    flat = all(
        all(c in (-1, 0, 1) for c in pr.cyclotomic(n).coeffs) for n in range(1, 105)
    )
    report("2 (a_105(7) = -2; flat coefficients below 105)", ok and flat, str(methods))


def test_criterion_03_four_way_agreement():
    mismatches = []
    for n in range(2, 301):
        top = min(nt.euler_phi(n), 30)
        rec = cc.coeff_prefix_recurrence(n, top)
        direct = pr.cyclotomic(n).coeffs
        for k in range(top + 1):
            want = direct[k] if k < len(direct) else 0
            if not (rec[k] == want == cc.coeff_moller(n, k) == cc.coeff_bell(n, k)):
                mismatches.append((n, k))
    for n in range(2, 41):
        for k in range(min(nt.euler_phi(n), 30) + 1):
            if cc.coeff_taylor_from_one(n, k) != cc.coeff_direct(n, k):
                mismatches.append(("taylor", n, k))
    report("3 (four-way coefficient agreement, n <= 300)", not mismatches, str(mismatches[:4]))


def test_criterion_04_logderiv_formulas_vs_oracle():
    bad = []
    for n in range(2, 61):
        phi_n = pr.cyclotomic(n)
        at0 = pr.log_derivative_values(phi_n, 6, 0)
        at1 = pr.log_derivative_values(phi_n, 6, 1)
        for k in range(1, 7):
            if cd.log_deriv_phi_at_zero(n, k) != at0[k - 1]:
                bad.append(("phi@0", n, k))
            if cd.log_deriv_phi_at_one(n, k) != at1[k - 1]:
                bad.append(("phi@1", n, k))
        if n != 2:
            atm = pr.log_derivative_values(phi_n, 6, -1)
            for k in range(1, 7):
                if cd.log_deriv_phi_at_minus_one(n, k) != atm[k - 1]:
                    bad.append(("phi@-1", n, k))
        psi_n = pr.inverse_cyclotomic(n)
        if psi_n.degree >= 1:
            ps0 = pr.log_derivative_values(psi_n, 6, 0)
            for k in range(1, 7):
                if cd.log_deriv_inverse_cyclo_at_zero(n, k) != ps0[k - 1]:
                    bad.append(("psi@0", n, k))
        if n % 2 == 1 and n >= 3:
            psm = pr.log_derivative_values(psi_n, 6, -1)
            for k in range(1, 7):
                if cd.log_deriv_inverse_cyclo_at_minus_one(n, k) != psm[k - 1]:
                    bad.append(("psi@-1", n, k))
    report("4 (closed forms match the oracle, n <= 60, k <= 6)", not bad, str(bad[:4]))


def test_criterion_05_nicol_polynomial_identity():
    bad = [
        n
        for n in range(1, 61)
        if IntPoly([nt.ramanujan_sum(k, n) for k in range(1, n + 1)])
        != pr.inverse_cyclotomic(n) * pr.cyclotomic(n).derivative()
    ]
    report("5 (Nicol polynomial identity, n <= 60)", not bad, str(bad))


def test_criterion_06_schwarzian():
    bad = []
    for n in range(2, 61):
        d = cd.phi_derivs_at_one(n, 3)
        direct = d[3] / d[1] - Fraction(3, 2) * (d[2] / d[1]) ** 2
        if cd.schwarzian_phi_at_one(n) != direct:
            bad.append(n)
    spots = cd.schwarzian_phi_at_one(3) == Fraction(-2, 3) and cd.schwarzian_phi_at_one(5) == -3
    report("6 (Schwarzian closed form, 2 <= n <= 60)", not bad and spots, str(bad))


def _random_kronecker_products(count, seed=12345):
    rng = random.Random(seed)
    for _ in range(count):
        e0 = rng.choice([0, 0, 0, 1, 2])
        factors = {}
        for _ in range(rng.randint(1, 5)):
            d = rng.randint(3, 30)
            factors[d] = min(2, factors.get(d, 0) + 1)
        f = IntPoly.monomial(1, e0)
        for d, e in factors.items():
            f = f * pr.cyclotomic(d) ** e
        yield f, e0, factors


def _stirling_sum(vals, k, point):
    # sum_j point^j {k, j} vals[j - 1], added term by term in Fractions
    return sum((point ** j * cb.stirling_second(k, j) * vals[j - 1] for j in range(1, k + 1)), Fraction(0))


def test_criterion_07_kronecker_identity_suite():
    bad = []
    for f, e0, factors in _random_kronecker_products(200):
        deg = f.degree
        g1 = pr.log_derivative_values(f, 6, 1)
        gm = pr.log_derivative_values(f, 6, -1)
        for k in (2, 4, 6):
            lhs = Fraction(k) / cb.bernoulli_plus(k) * _stirling_sum(g1, k, 1)
            if lhs != sum(e * nt.jordan_totient(k, d) for d, e in factors.items()):
                bad.append(("even@1", k, factors))
            lhs_m = Fraction(k) / cb.bernoulli_plus(k) * _stirling_sum(gm, k, -1)
            want_m = sum(e * nt.jordan_totient(k, nt.n_alpha(d)) for d, e in factors.items())
            if lhs_m != want_m:
                bad.append(("even@-1", k, factors))
        for k in (3, 5):
            if _stirling_sum(g1, k, 1) != 0:
                bad.append(("odd@1", k, factors))
            if _stirling_sum(gm, k, -1) != 0:
                bad.append(("odd@-1", k, factors))
        # the four displayed odd-k equations with (log f)'(1) = (deg f + e0)/2
        half = Fraction(deg + e0, 2)
        if 3 * g1[1] + g1[2] != -half:
            bad.append(("smalleq@1 k=3", factors))
        if 15 * g1[1] + 25 * g1[2] + 10 * g1[3] + g1[4] != -half:
            bad.append(("smalleq@1 k=5", factors))
        if 3 * gm[1] - gm[2] != -half:
            bad.append(("smalleq@-1 k=3", factors))
        if 15 * gm[1] - 25 * gm[2] + 10 * gm[3] - gm[4] != -half:
            bad.append(("smalleq@-1 k=5", factors))
        # the even-k bound inequalities, e0 kept explicit
        free = Fraction(deg - e0)
        if not g1[1] >= free / 4 - half:
            bad.append(("bound@1 k=2", factors))
        if not 7 * g1[1] + 6 * g1[2] + g1[3] <= -free / 8 - half:
            bad.append(("bound@1 k=4", factors))
        if not gm[1] >= free / 3 - half:
            bad.append(("bound@-1 k=2", factors))
        if not 7 * gm[1] - 6 * gm[2] + gm[3] <= -half - free / 3:
            bad.append(("bound@-1 k=4", factors))
    worpitzky = all(
        cb.bernoulli_plus(k)
        == Fraction(k, 2 ** k - 1)
        * sum(
            (-1) ** (j - 1) * Fraction(factorial(j - 1), 2 ** j) * cb.stirling_second(k, j)
            for j in range(1, k + 1)
        )
        for k in range(1, 21)
    )
    report(
        "7 (identities on 200 random Kronecker products; Worpitzky)",
        not bad and worpitzky,
        str(bad[:3]),
    )


TABLE_3 = {
    1: ((6,), False), 2: ((10,), False), 3: ((6, 12), False), 4: ((10, 12), False),
    5: ((), True), 6: ((), True), 7: ((6,), True), 8: ((), True), 9: ((6,), True),
    10: ((), True), 11: ((), True), 12: ((10,), True), 13: ((6,), True),
    14: ((10,), True), 15: ((6, 12), True), 16: ((12,), True), 17: ((), True),
    18: ((), True),
}


def test_criterion_08_table3():
    bad = []
    for k, (indices, has_remainder) in TABLE_3.items():
        fac = kr.factor_kronecker(sg.fk_poly(k))
        if fac.factors != {d: 1 for d in indices}:
            bad.append((k, fac.factors))
        if (not fac.is_kronecker) != has_remainder:
            bad.append((k, "remainder"))
        cert = sg.is_cyclotomic(sg.s_k(k))
        if cert.is_kronecker != (k <= 4):
            bad.append((k, cert.verdict))
    report("8 (Table 3 factorizations, k <= 18; S_k cyclotomic iff k <= 4)", not bad, str(bad))


def test_criterion_09_gap_family_at_scale():
    bad = []
    for k in range(5, 101):
        f = sg.fk_poly(k)
        cert = kr.certify(f)
        if cert.is_kronecker:
            bad.append((k, "verdict"))
        logs = pr.log_derivative_values(f, 2, 1)
        if 12 * (logs[0] + logs[1]) != 48 * k - 24:
            bad.append((k, "F_k"))
    # the 60-case pattern is the single-root lemma: Phi_6 | f_k iff
    # k = 1,3 (mod 6), Phi_10 iff k = 2,4 (mod 10), Phi_12 iff k = 3,4 (mod 12);
    # fk_gcd_pattern asserts square-freeness inside
    for k in range(1, 121):
        lemma = tuple(d for d, residues in ((6, (1, 3)), (10, (2, 4)), (12, (3, 4))) if k % d in residues)
        try:
            pattern = sg.fk_gcd_pattern(k)
        except Exception as exc:
            bad.append((k, str(exc)))
            continue
        if pattern != lemma:
            bad.append((k, pattern))
    report("9 (certify f_k 5..100; F_k = 48k-24; 60-case pattern to 120)", not bad, str(bad[:3]))


def test_criterion_10_appendix():
    bad = []
    base = sg.from_generators([5, 6, 7, 8])
    if base.frobenius != 9 or not sg.is_symmetric(base):
        bad.append("base")
    if sg.is_cyclotomic(base).is_kronecker:
        bad.append("base cyclotomic")
    for F in range(9, 100, 2):
        S = sg.noncyclotomic_symmetric_with_frobenius(F)  # verifies internally
        if S.frobenius != F or not sg.is_symmetric(S):
            bad.append(F)
        if F > 15 and F % 4 == 3:
            if sg.semigroup_polynomial(S)(-1) != -3:
                bad.append((F, "P(-1) != -3"))
        if F > 9 and F % 4 == 1:
            if sg.semigroup_polynomial(S)(-1) != -1:
                bad.append((F, "P(-1) != -1"))
    report("10 (appendix constructions, odd F in 9..99)", not bad, str(bad[:4]))


def test_criterion_11_no_cyclotomic_factors_deg_12():
    violations = []
    for k in range(5, 201):
        if not sg.fk_no_other_cyclotomic_factors(k):
            violations.append((k, "cyclotomic factor"))
        deg = sg.fk_remainder(k).degree
        if deg < 12:
            violations.append((k, f"degree {deg}"))
    report(
        "11 (f_k/gcd has no cyclotomic factors and degree >= 12, k = 5..200)",
        not violations,
        str(violations[:4]),
    )


def test_criterion_12_coxeter_family():
    bad = []
    for n in range(6, 10):
        if not kr.certify(pr.coxeter_poly(n)).is_kronecker:
            bad.append(n)
    for n in range(10, 41):
        cert = kr.certify(pr.coxeter_poly(n))
        if cert.is_kronecker or cert.reason != kr.REASON_NEGATIVE_AT_ONE:
            bad.append(n)
    report("12 (Coxeter E_n: Kronecker 6..9, sign-certified 10..40)", not bad, str(bad))
