import heapq
import random
import re
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest

from cyclokit import polyring as pr
from cyclokit import semigroup as sg
from cyclokit.errors import ConstructionError, InputError, ResourceError
from cyclokit.polyring import IntPoly


def test_from_generators_basic():
    S = sg.from_generators([5, 6, 7, 8])
    assert S.frobenius == 9
    assert S.gaps == (1, 2, 3, 4, 9)
    assert S.genus == 5
    assert S.minimal_generators == (5, 6, 7, 8)
    assert S.multiplicity == 5

    S23 = sg.from_generators([2, 3])
    assert S23.gaps == (1,)
    assert S23.genus == 1
    assert S23.frobenius == 1

    with pytest.raises(InputError):
        sg.from_generators([4, 6])
    with pytest.raises(InputError):
        sg.from_generators([0, 3])


def test_from_generators_non_coprime_pair():
    # no coprime pair among the two smallest generators; the Apery route
    # still gets the conductor right
    S = sg.from_generators([6, 10, 101])
    assert S.frobenius == 115
    assert S.contains(116) and S.contains(117)
    S2 = sg.from_generators([6, 10, 15])
    assert S2.frobenius == 29


def test_minimal_generators_recomputed():
    S = sg.from_generators([4, 6, 9, 13, 17])
    assert S.minimal_generators == (4, 6, 9)  # 13 = 4+9, 17 = 4+13
    S2 = sg.from_generators([1, 5])
    assert S2.minimal_generators == (1,)
    assert S2.frobenius == -1


def test_s_k_family():
    for k in range(3, 12):
        S = sg.s_k(k)
        assert S.frobenius == 2 * k - 1
        assert S.genus == k
        assert S.minimal_generators == tuple(range(k, 2 * k - 1))
        assert S.embedding_dimension == k - 1
        assert sg.is_symmetric(S)
        assert sg.semigroup_polynomial(S) == sg.fk_poly(k)
    assert sg.s_k(1).gaps == (1,)


def test_is_symmetric():
    assert sg.is_symmetric(sg.from_generators([2, 3]))
    assert not sg.is_symmetric(sg.from_generators([3, 4, 5]))
    assert sg.is_symmetric(sg.from_generators([5, 6, 7, 8]))
    assert not sg.is_symmetric(sg.from_generators([1]))


@lru_cache(maxsize=None)
def _random_gap_sets():
    rng = random.Random(1101)
    out = []
    for _ in range(20000):
        F = rng.randint(1, 25)
        out.append(frozenset(x for x in range(1, F) if rng.random() < rng.random()) | {F})
    return tuple(out)


@lru_cache(maxsize=None)
def _random_generator_sets():
    rng = random.Random(1102)
    out = []
    while len(out) < 5000:
        m = rng.randint(1, 30)
        gens = tuple(rng.randint(m, 3 * m + 5) for _ in range(rng.randint(1, 5)))
        if gcd(*gens) == 1:
            out.append(gens)
    return tuple(out)


@lru_cache(maxsize=None)
def _glued_sets():
    # <a p, a q, u p + v q>, the gluing of a <p, q> with N: complete
    # intersections, all three generators minimal
    rng = random.Random(1105)
    out = []
    while len(out) < 300:
        p, q = sorted(rng.sample(range(2, 14), 2))
        a, u, v = rng.randint(2, 7), rng.randint(0, 3), rng.randint(0, 3)
        r = u * p + v * q
        if gcd(p, q) == 1 and u + v >= 2 and gcd(a, r) == 1 and r not in (a * p, a * q):
            gens = sorted((a * p, a * q, r))
            if _minimal_by_subset_sums(gens) == tuple(gens):
                out.append(tuple(gens))
    return tuple(out)


def test_contains_matches_gap_set_membership():
    for gens in _random_generator_sets():
        S = sg.from_generators(gens)
        gap_set = set(S.gaps)
        assert [S.contains(x) for x in range(-1, S.frobenius + 3)] == [
            x >= 0 and x not in gap_set for x in range(-1, S.frobenius + 3)
        ], gens


@lru_cache(maxsize=None)
def _pairwise_closure_witness(gap_set):
    # the O(F^2) test: the first non-gaps x <= y whose sum is a gap, or None
    F = max(gap_set)
    member = lambda x: x >= 0 and x not in gap_set
    for x in range(1, F + 1):
        if member(x):
            for y in range(x, F - x + 1):
                if member(y) and not member(x + y):
                    return x, y
    return None


def _assert_closure_witness(message, gap_set):
    found = re.fullmatch(r"complement not closed: (\d+) \+ (\d+) hits gap (\d+)", message)
    x, y, z = map(int, found.groups())
    assert x not in gap_set and y not in gap_set
    assert z == x + y and z in gap_set


def _minimal_by_subset_sums(gens):
    # g is a minimal generator iff it is not a sum of the other generators
    return _minimal_of_distinct(tuple(sorted(set(gens))))


@lru_cache(maxsize=None)
def _minimal_of_distinct(gens):
    out = []
    for g in gens:
        others = [h for h in gens if h != g]
        reach = [True] + [False] * g
        for h in others:
            for x in range(h, g + 1):
                reach[x] = reach[x] or reach[x - h]
        if not reach[g]:
            out.append(g)
    return tuple(out)


def _apery_by_dijkstra(gens):
    # least element of the semigroup in each residue class mod the smallest
    # generator, by Dijkstra over the residues (every edge weight is a
    # generator, hence positive); the route from_generators took before the
    # round robin
    m = min(gens)
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for g in gens:
            nd, nr = d + g, (r + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def test_from_gaps_rejections():
    with pytest.raises(InputError, match=r"^complement not closed: 1 \+ 1 hits gap 2$"):
        sg.from_gaps([2, 4, 5, 7])  # upward closure: 1 is in S, 2 is not
    with pytest.raises(InputError, match=r"^complement not closed: 4 \+ 4 hits gap 8$"):
        sg.from_gaps([1, 2, 5, 8])  # closed upwards, but w_1 + w_1 < w_2
    with pytest.raises(InputError):
        sg.from_gaps([0, 1])


@pytest.mark.parametrize(
    "build, values, bad",
    [
        (sg.from_gaps, [1, 2.7], "2.7"),
        (sg.from_generators, [3, 5.9], "5.9"),
        (sg.from_generators, [3, float("nan")], "nan"),
        (sg.from_gaps, ["1", "2"], "'1'"),
        (sg.from_generators, ["3", "5"], "'3'"),
    ],
)
def test_constructors_refuse_values_that_are_not_integers(build, values, bad):
    what = "gaps" if build is sg.from_gaps else "generators"
    with pytest.raises(InputError, match=rf"^{what} must be integers, got {re.escape(bad)}$"):
        build(values)
    with pytest.raises(InputError, match=rf"^{what} must be integers, got {re.escape(bad)}$"):
        build(v for v in values)


def test_from_gaps_matches_pairwise_closure():
    rejected = 0
    for gap_set in _random_gap_sets():
        witness = _pairwise_closure_witness(gap_set)
        if witness is None:
            S = sg.from_gaps(gap_set)
            assert S.gaps == tuple(sorted(gap_set))
            assert S.frobenius == max(gap_set) and S.genus == len(gap_set)
            assert S.multiplicity == min(x for x in range(1, S.frobenius + 2) if x not in gap_set)
        else:
            rejected += 1
            with pytest.raises(InputError) as exc:
                sg.from_gaps(gap_set)
            _assert_closure_witness(str(exc.value), gap_set)
    assert 0 < rejected < len(_random_gap_sets())


def test_from_gaps_refusal_names_the_least_gap_above_m_off_its_chain():
    refused = 0
    for gap_set in _random_gap_sets():
        m = min(x for x in range(1, max(gap_set) + 2) if x not in gap_set)
        off_chain = [z for z in sorted(gap_set) if z > m and z - m not in gap_set]
        if off_chain:
            refused += 1
            z = off_chain[0]
            with pytest.raises(InputError, match=rf"^complement not closed: {m} \+ {z - m} hits gap {z}$"):
                sg.from_gaps(gap_set)
    assert refused > 1000, refused


def test_from_gaps_reads_unsorted_duplicated_and_generator_inputs():
    rng = random.Random(1106)
    for gap_set in _random_gap_sets()[:2000]:
        want = _outcome(sg.from_gaps, tuple(sorted(gap_set)))
        shuffled = list(gap_set) + rng.sample(sorted(gap_set), rng.randint(1, len(gap_set)))
        rng.shuffle(shuffled)
        assert _outcome(sg.from_gaps, shuffled) == want, gap_set
        assert _outcome(sg.from_gaps, (z for z in shuffled)) == want, gap_set


def test_minimal_generators_match_subset_sums():
    for gens in _random_generator_sets():
        S = sg.from_generators(gens)
        assert S.minimal_generators == _minimal_by_subset_sums(gens)
        assert sg.from_gaps(S.gaps) == S


def _kunz_minimal_by_two_loops(apery):
    # the Kunz reading before the one sweep: the closure loop from_gaps ran
    # over the residue pairs r <= s, then a separate minimal-generator test,
    # w_r minimal iff w_r < w_s + w_(r-s) for every s other than 0 and r
    m = len(apery)
    for r in range(1, m):
        for s in range(r, m):
            if apery[r] + apery[s] < apery[(r + s) % m]:
                x, y = apery[r], apery[s]
                raise InputError(f"complement not closed: {x} + {y} hits gap {x + y}")
    return [m] + [
        w
        for r, w in enumerate(apery)
        if r and all(w < apery[s] + apery[r - s] for s in range(1, m) if s != r)
    ]


def _dijkstra_and_two_loops(m, gens, most=None):
    # the round robin's contract: None past `most` minimal generators
    apery = _apery_by_dijkstra(gens)
    minimal = _kunz_minimal_by_two_loops(apery)
    if most is not None and len(minimal) > most:
        return None
    return apery, minimal


def _outcome(build, arg):
    try:
        return build(arg)
    except InputError as exc:
        return str(exc)


def _oracles_and_kernels(monkeypatch, build, args):
    """build(arg) for each arg with Dijkstra and the two Kunz loops, then with
    the round robin and the sweep; a semigroup or the InputError message."""
    with monkeypatch.context() as patched:
        patched.setattr(sg, "_round_robin", _dijkstra_and_two_loops)
        patched.setattr(sg, "_kunz_sweep", _kunz_minimal_by_two_loops)
        old = [_outcome(build, arg) for arg in args]
    return old, [_outcome(build, arg) for arg in args]


@lru_cache(maxsize=None)
def _kunz_gap_sets():
    # gap sets closed under adding m with random Kunz coordinates: the gaps
    # = r (mod m) are r, r + m, ..., r + (c_r - 1) m; many of them break
    # some w_r + w_s >= w_(r+s), so the sweep decides them
    rng = random.Random(1103)
    out = []
    for _ in range(4000):
        m = rng.randint(1, 16)
        top = rng.randint(1, 4)
        out.append(frozenset(r + i * m for r in range(1, m) for i in range(rng.randint(1, top))))
    return tuple(out)


@lru_cache(maxsize=None)
def _sparse_gap_sets():
    # gap sets of semigroups with 2 to 5 generators and m >= 20, each as it
    # is, with the largest gap of one residue class dropped, and with that
    # class's Apery element made a gap: all pass the closure under adding m
    # when m stays, and many of the changed ones break a Kunz inequality
    rng = random.Random(1104)
    out = []
    while len(out) < 1800:
        m = rng.randint(20, 60)
        gens = [m] + [rng.randint(m + 1, 3 * m) for _ in range(rng.randint(1, 4))]
        if gcd(*gens) != 1:
            continue
        gaps = set(sg.from_generators(gens).gaps)
        r = rng.randrange(1, m)
        top = max(g for g in gaps if g % m == r)
        out += [frozenset(gaps), frozenset(gaps - {top}), frozenset(gaps | {top + m})]
    return tuple(out)


def _kernel_runs(monkeypatch, args):
    """The kernels from_gaps(arg) ran, in order, for each arg: 'round robin'
    when it ran to the end, 'budget' when it gave up, and 'sweep'."""
    round_robin, sweep = sg._round_robin, sg._kunz_sweep
    ran = []

    def spy_round_robin(m, gens, most=None):
        found = round_robin(m, gens, most)
        ran.append("budget" if found is None else "round robin")
        return found

    def spy_sweep(apery):
        ran.append("sweep")
        return sweep(apery)

    out = []
    with monkeypatch.context() as patched:
        patched.setattr(sg, "_round_robin", spy_round_robin)
        patched.setattr(sg, "_kunz_sweep", spy_sweep)
        for arg in args:
            ran.clear()
            _outcome(sg.from_gaps, arg)
            out.append(tuple(ran))
    return out


def test_one_sweep_matches_the_two_kunz_loops_on_gap_sets(monkeypatch):
    gap_sets = _random_gap_sets()[:4000] + _kunz_gap_sets() + _sparse_gap_sets()
    old, new = _oracles_and_kernels(monkeypatch, sg.from_gaps, gap_sets)
    assert new == old
    accepted = sum(isinstance(S, sg.NumericalSemigroup) for S in new[4000:8000])
    swept_out = sum(isinstance(S, str) for S in new[4000:8000])
    assert accepted > 200 and swept_out > 1000, (accepted, swept_out)
    # each kernel accepts and refuses its share, the refusals worded as the
    # two loops word them; a round robin that ran to the end decided the set,
    # though on a refusal the sweep names the failing sum
    seen = Counter()
    for runs, S in zip(_kernel_runs(monkeypatch, gap_sets), new):
        if runs:
            kernel = "round robin" if runs[0] == "round robin" else "sweep"
            seen[kernel, isinstance(S, sg.NumericalSemigroup)] += 1
    assert min(seen[kernel, ok] for kernel in ("round robin", "sweep") for ok in (True, False)) >= 200, seen


def test_from_gaps_kernel_per_family(monkeypatch):
    # census-style sets, at most 5 generators: the round robin alone
    census = [sg.from_generators(gens) for gens in _random_generator_sets() + _glued_sets()]
    census.append(sg.from_generators([187, 200, 290, 301]))
    assert set(_kernel_runs(monkeypatch, [S.gaps for S in census])) == {("round robin",)}
    assert [sg.from_gaps(S.gaps) for S in census] == census

    # S_k, the family built from it and <m, m + 1, ..., 2m - 1>: each w_r
    # below 2 min w is minimal, too many for the round robin
    def no_round_robin(m, gens, most=None):
        if most is not None:  # from_gaps gives the budget, from_generators none
            raise AssertionError(f"round robin over {m} residues")
        return round_robin(m, gens)

    round_robin = sg._round_robin
    monkeypatch.setattr(sg, "_round_robin", no_round_robin)
    for k in range(7, 300):
        assert sg.s_k(k).embedding_dimension == k - 1
    for F in range(17, 402, 2):
        assert sg.noncyclotomic_symmetric_with_frobenius(F).frobenius == F
    for m in (6, 50, 400):
        assert sg.from_gaps(range(1, m)).minimal_generators == tuple(range(m, 2 * m))


def _one_small_then_all_minimal(m):
    # w_1 = m + 1, w_2 = 2m + 2 = 2 w_1 and w_r = 2m + r: only w_1 lies below
    # 2 min w, yet every w_r but w_2 is a minimal generator
    return list(range(1, m)) + list(range(m + 2, 2 * m))


def test_from_gaps_round_robin_budget_hands_over_to_the_sweep(monkeypatch):
    ms = (41, 97, 500, 2000)
    runs = _kernel_runs(monkeypatch, [_one_small_then_all_minimal(m) for m in ms])
    assert runs == [("budget", "sweep")] * len(ms)
    for m in ms:
        S = sg.from_generators([m, m + 1] + list(range(2 * m + 3, 3 * m)))
        assert sg.from_gaps(_one_small_then_all_minimal(m)) == S and S.embedding_dimension == m - 1


def test_round_robin_matches_dijkstra_and_the_two_kunz_loops_on_generators(monkeypatch):
    old, new = _oracles_and_kernels(monkeypatch, sg.from_generators, _round_robin_cases())
    assert new == old
    assert all(isinstance(S, sg.NumericalSemigroup) for S in new)


@lru_cache(maxsize=None)
def _round_robin_cases():
    # the seeded sets, with duplicates, 1 among the generators and generators
    # up to 3m + 5, plus the all-minimal {m, ..., 2m - 1} and sets whose
    # minimal generators share a factor with m
    cases = list(_random_generator_sets())
    cases += [tuple(range(m, 2 * m)) for m in range(1, 41)]
    cases += [(12, 18, 20, 27, 30, 43), (6, 9, 9, 10, 13, 40), (30, 42, 70, 105, 111), (8, 8, 12, 14, 1)]
    return tuple(cases)


def test_round_robin_matches_dijkstra_and_subset_sums():
    seen = {"gcd(a, m) > 1": 0, "duplicates": 0, "1 in gens": 0, "a >= 2m": 0, "all minimal": 0}
    for gens in _round_robin_cases():
        ascending = sorted(gens)
        m = ascending[0]
        apery, minimal = sg._round_robin(m, ascending)
        assert apery == _apery_by_dijkstra(gens), gens
        assert tuple(minimal) == _minimal_by_subset_sums(gens), gens
        seen["gcd(a, m) > 1"] += any(gcd(a, m) > 1 for a in minimal[1:])
        seen["duplicates"] += len(set(gens)) < len(gens)
        seen["1 in gens"] += m == 1
        seen["a >= 2m"] += any(a >= 2 * m for a in minimal)
        seen["all minimal"] += len(minimal) == m > 2
    assert min(seen.values()) >= 10, seen


def test_from_generators_never_reaches_the_kunz_sweep(monkeypatch):
    def no_sweep(apery):
        raise AssertionError(f"Kunz sweep over {len(apery)} residues")

    expected = [sg.from_generators(gens) for gens in _round_robin_cases()[:500]]
    monkeypatch.setattr(sg, "_kunz_sweep", no_sweep)
    assert [sg.from_generators(gens) for gens in _round_robin_cases()[:500]] == expected
    for F in (9, 11, 15):  # the three fixed generator lists of the family
        assert sg.noncyclotomic_symmetric_with_frobenius(F).frobenius == F
    with pytest.raises(AssertionError, match="Kunz sweep"):
        sg.from_gaps(range(1, 10))


def test_one_sweep_matches_the_two_kunz_loops_on_the_constructions(monkeypatch):
    frobenius = range(9, 402, 2)
    old, new = _oracles_and_kernels(monkeypatch, sg.noncyclotomic_symmetric_with_frobenius, frobenius)
    assert new == old
    old, new = _oracles_and_kernels(monkeypatch, sg.s_k, range(1, 300))
    assert new == old


def test_from_gaps_degree_guardrail_speaks_before_the_sweep(monkeypatch):
    # from_generators at and above the guardrail is tested through the CLI
    monkeypatch.setattr(pr, "DEGREE_GUARDRAIL", 9)
    S = sg.from_generators([3, 7, 11])
    assert S.frobenius == 8 and sg.from_gaps(S.gaps) == S
    # F + 1 = 9 is refused before the sweep finds 4 + 4 hitting the gap 8
    with pytest.raises(InputError, match=r"^complement not closed: 4 \+ 4 hits gap 8$"):
        sg.from_gaps([1, 2, 5, 8])
    monkeypatch.setattr(pr, "DEGREE_GUARDRAIL", 8)
    with pytest.raises(ResourceError, match=r"^degree F \+ 1 = 9 exceeds the guardrail DEGREE_GUARDRAIL = 8$"):
        sg.from_gaps([1, 2, 5, 8])


def test_from_gaps_refuses_the_residue_pairs_before_the_sweep(monkeypatch):
    def no_sweep(apery):
        raise AssertionError(f"Kunz sweep over {len(apery)} residues")

    monkeypatch.setattr(sg, "_kunz_sweep", no_sweep)
    # the gaps 1..m-1 have multiplicity m, and 5793 * 5792 / 2 <= 2^24 < 5794 * 5793 / 2
    refusal = r"^residue pairs m\(m - 1\)/2 = {} exceeds the guardrail ROUND_ROBIN_LIMIT = {}$"
    with pytest.raises(ResourceError, match=refusal.format(16782321, 16777216)):
        sg.from_gaps(range(1, 5794))
    with pytest.raises(AssertionError, match="Kunz sweep over 5793 residues"):
        sg.from_gaps(range(1, 5793))
    # closure under m, then the degree, speak before the pairs
    monkeypatch.setattr(sg, "ROUND_ROBIN_LIMIT", 0)
    with pytest.raises(InputError, match=r"^complement not closed: 2 \+ 2 hits gap 4$"):
        sg.from_gaps([1, 3, 4])
    monkeypatch.setattr(pr, "DEGREE_GUARDRAIL", 8)
    with pytest.raises(ResourceError, match=r"^degree F \+ 1 = 9 exceeds the guardrail DEGREE_GUARDRAIL = 8$"):
        sg.from_gaps([1, 2, 5, 8])
    monkeypatch.setattr(pr, "DEGREE_GUARDRAIL", 9)
    with pytest.raises(ResourceError, match=refusal.format(3, 0)):
        sg.from_gaps([1, 2, 5, 8])


def test_symmetry_characterizations_agree():
    # x in S iff F - x is a gap, and P_S self-reciprocal, against the genus test
    accepted = [gs for gs in _random_gap_sets() if _pairwise_closure_witness(gs) is None]
    semigroups = [sg.from_gaps(gs) for gs in accepted]
    semigroups += [sg.from_generators(gens) for gens in _random_generator_sets()]
    seen = set()
    for S in semigroups:
        F, gap_set = S.frobenius, set(S.gaps)
        pairing = F >= 0 and all((x in gap_set) != (F - x in gap_set) for x in range(F + 1))
        reciprocal = F >= 0 and pr.is_self_reciprocal(sg.semigroup_polynomial(S))
        assert sg.is_symmetric(S) == pairing == reciprocal
        seen.add(pairing)
    assert seen == {True, False}


def test_large_frobenius_round_trip():
    S = sg.from_generators([187, 200, 290, 301])
    assert S.frobenius == 3058
    assert sg.from_gaps(S.gaps) == S


def test_semigroup_polynomial():
    assert sg.semigroup_polynomial(sg.from_generators([2, 3])) == IntPoly((1, -1, 1))
    for gens in ([2, 3], [3, 4, 5], [5, 6, 7, 8], [6, 10, 15]):
        S = sg.from_generators(gens)
        P = sg.semigroup_polynomial(S)
        assert P.degree == S.frobenius + 1
        assert P.is_monic()
        assert P(1) == 1
        assert sg.is_symmetric(S) == pr.is_self_reciprocal(P)
    # 1 + (x - 1) sum over the gaps of x^g, read coefficient by coefficient;
    # S = N has P_S = 1
    semigroups = [sg.from_generators(gens) for gens in _random_generator_sets()[:200]]
    for S in semigroups + [sg.from_generators([1])]:
        gap_set = set(S.gaps)
        want = [(i == 0) + (i - 1 in gap_set) - (i in gap_set) for i in range(S.frobenius + 2)]
        assert sg.semigroup_polynomial(S).coeffs == tuple(want)


def test_is_cyclotomic():
    cert = sg.is_cyclotomic(sg.from_generators([5, 6, 7, 8]))
    assert not cert.is_kronecker
    assert sg.is_cyclotomic(sg.s_k(3)).is_kronecker
    assert sg.is_cyclotomic(sg.s_k(4)).is_kronecker
    assert not sg.is_cyclotomic(sg.s_k(7)).is_kronecker
    # a complete intersection example: <4, 6, 9>
    assert sg.is_cyclotomic(sg.from_generators([4, 6, 9])).is_kronecker


def _fk_pattern_by_lemma(k):
    # the single-root lemma, which test_fk_single_root_lemma checks against
    # division: Phi_6 | f_k iff k = 1,3 (mod 6); Phi_10 iff k = 2,4 (mod 10);
    # Phi_12 iff k = 3,4 (mod 12)
    return tuple(d for d, residues in ((6, (1, 3)), (10, (2, 4)), (12, (3, 4))) if k % d in residues)


def test_fk_gcd_pattern():
    assert sg.fk_gcd_pattern(3) == (6, 12)
    assert sg.fk_gcd_pattern(4) == (10, 12)
    assert sg.fk_gcd_pattern(60) == ()
    assert sg.fk_gcd_pattern(52) == (10, 12)
    assert sg.fk_gcd_pattern(16) == (12,)
    # the fold of f_k mod x^d - 1 depends on k mod d only, so one period of
    # lcm(6, 10, 12) = 60 settles the pattern for every k
    for k in range(1, 61):
        assert sg.fk_gcd_pattern(k) == _fk_pattern_by_lemma(k), k


def test_fk_gcd_pattern_builds_no_polynomial(monkeypatch):
    def no_poly(k):
        raise AssertionError(f"f_{k} built")

    monkeypatch.setattr(sg, "fk_poly", no_poly)
    for r in range(60):
        k = 10 ** 18 + r
        assert sg.fk_gcd_pattern(k) == _fk_pattern_by_lemma(k), r
    with pytest.raises(InputError):
        sg.fk_gcd_pattern(0)


def _fk_multiplicities_by_trial_division(k):
    # the oracle for fk_gcd_pattern and fk_remainder: repeated division of
    # f_k itself by Phi_6, Phi_10 and Phi_12
    f = sg.fk_poly(k)
    return {d: pr.multiplicity(f, pr.cyclotomic(d)) for d in (6, 10, 12)}


def test_fk_gcd_pattern_and_remainder_match_trial_division():
    for k in range(1, 201):
        mult = _fk_multiplicities_by_trial_division(k)
        assert sg.fk_gcd_pattern(k) == tuple(d for d, e in mult.items() if e), k
        rem = sg.fk_poly(k)
        for d, e in mult.items():
            for _ in range(e):
                rem = pr.poly_div_exact(rem, pr.cyclotomic(d))
        assert sg.fk_remainder(k) == rem, k


def test_fk_single_root_lemma():
    for k in range(1, 121):
        f = sg.fk_poly(k)
        divides = tuple(d for d in (6, 10, 12) if pr.poly_div_exact(f, pr.cyclotomic(d)) is not None)
        assert divides == _fk_pattern_by_lemma(k), k


def test_fk_at_third_root_of_unity():
    # f_k(zeta_3) is 4, -2 zeta_3 or zeta_3^(-1) = -1 - zeta_3 according to
    # k mod 3; the norms 16, 4, 1 drive the exclusion of 3 p^j divisors
    for k in range(1, 31):
        f = sg.fk_poly(k)
        v, norm = pr.eval_at_root_of_unity(f, 3), pr.norm_at_root_of_unity(f, 3)
        if k % 3 == 0:
            assert v == (4, 0) and norm == 16
        elif k % 3 == 1:
            assert v == (0, -2) and norm == 4
        else:
            assert v == (-1, -1) and norm == 1


def test_fk_no_other_cyclotomic_factors():
    assert sg.fk_no_other_cyclotomic_factors(5)
    assert sg.fk_no_other_cyclotomic_factors(7)
    assert sg.fk_remainder(5) == sg.fk_poly(5)
    assert sg.fk_remainder(7).degree == 12


def test_child_symmetric():
    k = 10
    S = sg.s_k(k)
    S1 = sg.child_symmetric(S, k)
    assert S1.frobenius == 2 * k - 1
    assert sg.is_symmetric(S1)
    # P_{S'} = 1 - x + x^(k-1) - x^k + x^(k+1) - x^(2k-1) + x^(2k)
    expect = {0: 1, 1: -1, k - 1: 1, k: -1, k + 1: 1, 2 * k - 1: -1, 2 * k: 1}
    out = [0] * (2 * k + 1)
    for i, c in expect.items():
        out[i] += c
    assert sg.semigroup_polynomial(S1) == IntPoly(out)

    S2 = sg.child_symmetric(S1, k + 2)
    P2 = sg.semigroup_polynomial(S2)
    assert P2(-1) == -3  # k even branch
    assert S2.frobenius == 2 * k - 1
    # the eleven-term polynomial of the second child
    expect2 = {0: 1, 1: -1, k - 3: 1, k - 2: -1, k - 1: 1, k: -1,
               k + 1: 1, k + 2: -1, k + 3: 1, 2 * k - 1: -1, 2 * k: 1}
    out2 = [0] * (2 * k + 1)
    for i, c in expect2.items():
        out2[i] += c
    assert P2 == IntPoly(out2)

    kb = 7  # odd k branch
    Sb = sg.child_symmetric(sg.s_k(kb), kb + 1)
    assert sg.semigroup_polynomial(Sb)(-1) == -1


def test_child_symmetric_precondition_errors():
    S = sg.s_k(5)
    with pytest.raises(ConstructionError) as exc:
        sg.child_symmetric(S, 9)  # 2x - F = 7 is in S' ... actually gap check
    assert exc.value.condition
    with pytest.raises(ConstructionError):
        sg.child_symmetric(S, 4)  # not a generator
    with pytest.raises(ConstructionError):
        sg.child_symmetric(sg.from_generators([3, 4, 5]), 4)  # not symmetric


def test_noncyclotomic_symmetric_with_frobenius():
    S9 = sg.noncyclotomic_symmetric_with_frobenius(9)
    assert S9.minimal_generators == (5, 6, 7, 8)
    S11 = sg.noncyclotomic_symmetric_with_frobenius(11)
    assert S11.minimal_generators == (5, 7, 8, 9)
    S15 = sg.noncyclotomic_symmetric_with_frobenius(15)
    assert S15.minimal_generators == (6, 7, 10, 11)
    S19 = sg.noncyclotomic_symmetric_with_frobenius(19)
    assert sg.semigroup_polynomial(S19)(-1) == -3
    S13 = sg.noncyclotomic_symmetric_with_frobenius(13)
    assert sg.semigroup_polynomial(S13)(-1) == -1
    with pytest.raises(InputError):
        sg.noncyclotomic_symmetric_with_frobenius(8)
    with pytest.raises(InputError):
        sg.noncyclotomic_symmetric_with_frobenius(7)


def test_fk_theorem_sweep_table():
    rows = sg.fk_theorem_sweep(18)
    expected = {
        1: ({6: 1}, False),
        2: ({10: 1}, False),
        3: ({6: 1, 12: 1}, False),
        4: ({10: 1, 12: 1}, False),
        5: ({}, True),
        6: ({}, True),
        7: ({6: 1}, True),
        8: ({}, True),
        9: ({6: 1}, True),
        10: ({}, True),
        11: ({}, True),
        12: ({10: 1}, True),
        13: ({6: 1}, True),
        14: ({10: 1}, True),
        15: ({6: 1, 12: 1}, True),
        16: ({12: 1}, True),
        17: ({}, True),
        18: ({}, True),
    }
    for row in rows:
        k = row["k"]
        want_factors, want_remainder = expected[k]
        assert row["F_k"] == 48 * k - 24
        fac = row["factorization"]
        assert fac["factors"] == {str(d): e for d, e in want_factors.items()}
        rem_deg = len(fac["remainder"]) - 1
        assert (rem_deg > 0) == want_remainder
        assert row["verdict"] == ("kronecker" if k <= 4 else "non_kronecker")


def test_fk_theorem_sweep_factors_each_fk_once(monkeypatch):
    from cyclokit import kronecker as kr

    factor = kr.factor_kronecker
    factored = []

    def counting_factor(f):
        factored.append(f)
        return factor(f)

    def no_multiplicity(*args):
        raise AssertionError("fk_theorem_sweep called multiplicity")

    monkeypatch.setattr(kr, "factor_kronecker", counting_factor)
    monkeypatch.setattr(sg, "factor_kronecker", counting_factor)
    monkeypatch.setattr(pr, "multiplicity", no_multiplicity)
    rows = sg.fk_theorem_sweep(40)
    assert factored == [sg.fk_poly(k) for k in range(1, 41)]
    assert [row["gcd_pattern"] for row in rows] == [list(_fk_pattern_by_lemma(k)) for k in range(1, 41)]
