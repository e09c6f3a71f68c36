"""The four seeded workloads: input generation, the timed operation, and the
correctness check against ground truth.

Each workload builds a pool of JSON-serializable op specs from the seed, plus
fixed warm-up specs disjoint from the pool.  Sizes are stratified: every
cycle of the pool draws one op from each size stratum in shuffled order, so
the mix a run consumes is the same from seed to seed while the inputs
themselves differ.  The caps on sizes keep every op clear of the library's
known blow-ups (dense quotient-rule derivatives, the 2*D^2 totient sieve,
the O(F^2) semigroup loops and the sign-test scan over [-B, B]), so each run
completes well over 100 ops.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import reference as ref

PHI_BELOW_200 = [0] + [ref.euler_phi(d) for d in range(1, 200)]

# monic, irreducible, not cyclotomic, nonzero at 0; ascending coefficients
COFACTORS = (
    (3, -3, 1),  # x^2 - 3x + 3
    (-1, -1, 0, 1),  # x^3 - x - 1
    (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),  # Lehmer's polynomial
    (2, 0, 1),  # x^2 + 2
    (-2, 0, 0, 1),  # x^3 - 2
    (-1, -1, 1),  # x^2 - x - 1
)


def log_strata(rng: random.Random, lo: float, hi: float, strata: int) -> list[float]:
    """One value from each of `strata` equal slices of [lo, hi] on a log
    scale, in shuffled order."""
    order = list(range(strata))
    rng.shuffle(order)
    return [lo * (hi / lo) ** ((s + rng.random()) / strata) for s in order]


def cyclotomic_input(rng: random.Random, degree: int, cofactor: tuple[int, ...], height_cap: int) -> dict:
    """x^e0 * prod Phi_d^e_d (3 <= d < 200, repeats allowed) * cofactor, of
    degree about `degree` beyond x^e0, with every |coefficient| <= height_cap.

    Leaving out Phi_1 and Phi_2 keeps f(1) and f(-1) nonzero, so the cost of
    certify depends on the degree and the cofactor rather than on whether a
    degree-1 filler happened to be drawn."""
    while True:
        left = degree - (len(cofactor) - 1)
        factors: dict[int, int] = {}
        misses = 0
        while left >= 2 and misses < 60:
            d = rng.randrange(3, 200)
            e = rng.choice((1, 1, 1, 2, 3))
            if PHI_BELOW_200[d] * e > left:
                misses += 1
                continue
            factors[d] = factors.get(d, 0) + e
            left -= PHI_BELOW_200[d] * e
        body = ref.poly_mul(ref.cyclotomic_product(factors), list(cofactor))
        if max(abs(c) for c in body) <= height_cap:
            break
    e0 = rng.randint(1, 3) if rng.random() < 0.25 else 0
    return {
        "coeffs": [0] * e0 + body,
        "e0": e0,
        "factors": sorted(factors.items()),
        "remainder": list(cofactor),
    }


def factorization_matches(fac, spec: dict) -> bool:
    return (
        fac.e0 == spec["e0"]
        and sorted(fac.factors.items()) == [tuple(p) for p in spec["factors"]]
        and list(fac.remainder.coeffs) == spec["remainder"]
    )


def random_semigroup(rng: random.Random, m_lo: int, m_hi: int, f_lo: int, f_hi: int) -> list[int]:
    """3 or 4 coprime generators in [m, 2m) with m in [m_lo, m_hi], whose
    Frobenius number lies in [f_lo, f_hi]."""
    while True:
        m = rng.randint(m_lo, m_hi)
        gens = sorted([m] + rng.sample(range(m + 1, 2 * m), rng.choice((3, 4)) - 1))
        if ref.coprime(*gens) and f_lo <= ref.frobenius_number(gens) <= f_hi:
            return gens


def glued_semigroup(rng: random.Random, f_lo: int, f_hi: int) -> list[int]:
    """<a p, a q, r>, the gluing of a*<p, q> with r*N: a complete intersection,
    hence symmetric and cyclotomic, with Frobenius number in [f_lo, f_hi]."""
    while True:
        p, q = sorted(rng.sample(range(2, 14), 2))
        a = rng.randint(2, 7)
        u, v = rng.randint(0, 3), rng.randint(0, 3)
        r = u * p + v * q
        if not ref.coprime(p, q) or u + v < 2 or not ref.coprime(a, r):
            continue
        gens = sorted({a * p, a * q, r})
        if len(gens) < 3 or ref.minimal_generators(gens) != gens:
            continue
        if f_lo <= ref.frobenius_number(gens) <= f_hi:
            return gens


def asymmetric_semigroup(rng: random.Random, f_hi: int) -> list[int]:
    """Generators of a semigroup that is not symmetric, hence not cyclotomic,
    with Frobenius number in [10, f_hi]."""
    while True:
        gens = random_semigroup(rng, 5, 20, 10, f_hi)
        if not ref.is_symmetric(ref.semigroup_gaps(gens)):
            return gens


def fk_reference(k: int) -> list[int]:
    out = [0] * (2 * k + 1)
    for i, c in ((0, 1), (1, -1), (k, 1), (2 * k - 1, -1), (2 * k, 1)):
        out[i] += c
    return out


class Workload:
    """Interface of a workload; ctx carries the library modules and run state."""

    name = ""
    in_process = True

    def pool(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def warmup(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self, ctx, pool: list[dict]) -> None:
        """Extra set-up after input generation (nothing by default)."""

    def run(self, ctx, spec: dict):
        raise NotImplementedError

    def check(self, spec: dict, out) -> bool:
        raise NotImplementedError

    def corrupt(self, out):
        """A copy of a correct output with one value changed."""
        raise NotImplementedError

    def size(self, spec: dict) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CertifyStream(Workload):
    """certify(f) on monic products of random Phi_d, 9 in 21 of them times one
    irreducible non-cyclotomic cofactor."""

    name = "certify_stream"
    DEG_LO, DEG_HI = 24, 160
    STRATA = 12
    COFACTOR_STRATA = 9
    CYCLES = 24
    HEIGHT_CAP = 128

    def pool(self, seed):
        # every cycle has one plain input per degree stratum and one cofactor
        # input per cofactor stratum (9 of 21, about half); the cofactors
        # rotate over their strata with the cycle rather than with the seed,
        # since the cofactor decides which certificate fires and so the cost
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for cycle in range(self.CYCLES):
            cells = [(deg, (1,)) for deg in log_strata(rng, self.DEG_LO, self.DEG_HI, self.STRATA)]
            degrees = sorted(log_strata(rng, self.DEG_LO, self.DEG_HI, self.COFACTOR_STRATA))
            cells += [(deg, COFACTORS[(cycle + i) % len(COFACTORS)]) for i, deg in enumerate(degrees)]
            rng.shuffle(cells)
            out += [cyclotomic_input(rng, int(deg), cof, self.HEIGHT_CAP) for deg, cof in cells]
        return out

    def warmup(self, seed):
        # reaches the top degree so that the totient sieve and the screen
        # values are complete before timing starts; pool degrees stay below it
        rng = random.Random(f"{self.name}:warmup")
        out = []
        for cof in ((1,), COFACTORS[0]):
            while True:
                spec = cyclotomic_input(rng, self.DEG_HI, cof, self.HEIGHT_CAP)
                if len(spec["coeffs"]) - 1 - spec["e0"] == self.DEG_HI:
                    break
            out.append(spec)
        return out

    def run(self, ctx, spec):
        return ctx.lib.kronecker.certify(ctx.lib.polyring.IntPoly(spec["coeffs"]))

    def check(self, spec, cert):
        return (
            cert.is_kronecker == (spec["remainder"] == [1])
            and cert.factorization is not None
            and factorization_matches(cert.factorization, spec)
        )

    def corrupt(self, cert):
        factors = dict(cert.factorization.factors)
        factors[min(factors)] += 1
        return dataclasses.replace(
            cert, factorization=dataclasses.replace(cert.factorization, factors=factors)
        )

    def size(self, spec):
        return {"degree": len(spec["coeffs"]) - 1}


# ---------------------------------------------------------------------------


class CoeffSweep(Workload):
    """Each n once: build Phi_n, its height, coefficients by every route,
    derivatives at 1 two ways, closed forms at 0, 1, -1 against the oracle."""

    name = "coeff_sweep"
    PHI_LO, PHI_HI = 64, 512
    STRATA = 6
    K_COEFF = 32
    K_DERIV = 8
    ORACLE_ORDER = 2
    WARMUP = 2

    def _eligible(self) -> list[int]:
        out = []
        for n in range(2, 8 * self.PHI_HI):
            fac = ref.factorize(n)
            if 3 <= len(fac) <= 5 and self.PHI_LO <= ref.euler_phi(n) <= self.PHI_HI:
                out.append(n)
        return out

    def _split(self, seed):
        eligible = self._eligible()
        warm = random.Random(f"{self.name}:warmup").sample(eligible, self.WARMUP)
        rng = random.Random(f"{self.name}:{seed}")
        rest = [n for n in eligible if n not in warm]
        rng.shuffle(rest)
        return rng, warm, rest

    def _spec(self, rng, n):
        top = min(self.K_COEFF, ref.euler_phi(n))
        return {"n": n, "ks": sorted(rng.sample(range(1, top + 1), 2))}

    def pool(self, seed):
        # every eligible n but the warm-up ones, once each: a run consumes
        # most of them, so its mix hardly depends on the seed.  The strata
        # are equal-count slices by phi(n).
        rng, _, rest = self._split(seed)
        rest.sort(key=ref.euler_phi)
        size = len(rest) // self.STRATA
        strata = [rest[i * size : (i + 1) * size] for i in range(self.STRATA)]
        for stratum in strata:
            rng.shuffle(stratum)
        out = []
        for cycle in range(size):
            order = list(range(self.STRATA))
            rng.shuffle(order)
            out += [self._spec(rng, strata[s][cycle]) for s in order]
        return out

    def warmup(self, seed):
        rng, warm, _ = self._split(seed)
        return [self._spec(rng, n) for n in warm]

    def run(self, ctx, spec):
        lib = ctx.lib
        n, K, order = spec["n"], self.K_DERIV, self.ORACLE_ORDER
        f = lib.polyring.cyclotomic(n)
        closed = {
            0: lib.cycloderiv.log_deriv_phi_at_zero,
            1: lib.cycloderiv.log_deriv_phi_at_one,
            -1: lib.cycloderiv.log_deriv_phi_at_minus_one,
        }
        return {
            "coeffs": list(f.coeffs),
            "height": max(abs(c) for c in f.coeffs),
            "coeff": [lib.cyclocoeffs.coeff_all_methods(n, k) for k in spec["ks"]],
            "derivs": lib.cycloderiv.phi_derivs_at_one(n, K),
            "derivs_recurrence": lib.cycloderiv.phi_derivs_at_one_recurrence(n, K),
            "closed": {x: [fn(n, j) for j in range(1, order + 1)] for x, fn in closed.items()},
            "oracle": {x: lib.polyring.log_derivative_values(f, order, x) for x in closed},
        }

    def check(self, spec, out):
        phi = ref.cyclotomic(spec["n"])
        # Phi_n^(j)(1) = sum_i c_i i (i-1) ... (i-j+1)
        derivs = [
            sum(c * math.perm(i, j) for i, c in enumerate(phi)) for j in range(self.K_DERIV + 1)
        ]
        return (
            out["coeffs"] == phi
            and out["height"] == max(abs(c) for c in phi)
            and out["coeff"] == [phi[k] if k < len(phi) else 0 for k in spec["ks"]]
            and out["derivs"] == derivs
            and out["derivs_recurrence"] == derivs
            and out["closed"] == out["oracle"]
        )

    def corrupt(self, out):
        bad = copy.deepcopy(out)
        bad["closed"][1][-1] += Fraction(1, 7)
        return bad

    def size(self, spec):
        return {"n": spec["n"], "degree": ref.euler_phi(spec["n"])}


# ---------------------------------------------------------------------------


class SemigroupCensus(Workload):
    """Construction round trips, symmetry, cyclotomicity, the symmetric
    non-cyclotomic family and the f_k certification, mixed.  Census sizes
    are stratified by the Frobenius number F, which sets their O(F^2) cost."""

    name = "semigroup_census"
    CENSUS_F = (150, 2400)
    CENSUS_STRATA = 8
    GLUED_F = (150, 600)
    CYC_F_CAP = 150
    FROB_HI = 161
    FK_HI = 150
    CYCLES = 32

    def _cycle(self, rng):
        ops = []
        for f in log_strata(rng, *self.CENSUS_F, self.CENSUS_STRATA):
            # F grows about as 2.2 m^1.45 for these generators
            m = (f / 2.2) ** (1 / 1.45)
            gens = random_semigroup(rng, int(0.6 * m), int(1.5 * m), int(f / 1.05), int(f * 1.05))
            ops.append({"op": "census", "gens": gens})
        ops.append({"op": "census", "gens": glued_semigroup(rng, *self.GLUED_F)})
        ops.append({"op": "cyclotomic", "gens": glued_semigroup(rng, 10, self.CYC_F_CAP), "ci": True})
        ops.append({"op": "cyclotomic", "gens": asymmetric_semigroup(rng, self.CYC_F_CAP), "ci": False})
        # sizes stay below the warm-up's, which are the largest
        for F in log_strata(rng, 9, self.FROB_HI - 1, 2):
            ops.append({"op": "frobenius", "F": int(F) | 1})
        ops.append({"op": "fk", "k": rng.randint(1, 8)})
        for k in log_strata(rng, 9, self.FK_HI, 3):
            ops.append({"op": "fk", "k": int(k)})
        rng.shuffle(ops)
        return ops

    def pool(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(self.CYCLES):
            out += self._cycle(rng)
        return out

    def warmup(self, seed):
        # the largest f_k sizes the totient sieve for the whole run; the
        # other two lie outside what the pool's generators produce (a
        # generator >= 2m, a gluing factor of 8)
        return [
            {"op": "fk", "k": self.FK_HI},
            {"op": "frobenius", "F": self.FROB_HI},
            {"op": "census", "gens": [25, 37, 61]},
            {"op": "cyclotomic", "gens": [9, 16, 24], "ci": True},
        ]

    def run(self, ctx, spec):
        sg = ctx.lib.semigroup
        op = spec["op"]
        if op == "census":
            S = sg.from_generators(spec["gens"])
            return {
                "S": S,
                "symmetric": sg.is_symmetric(S),
                "poly": list(sg.semigroup_polynomial(S).coeffs),
                "round_trip": sg.from_gaps(S.gaps),
            }
        if op == "cyclotomic":
            return {"cert": sg.is_cyclotomic(sg.from_generators(spec["gens"]))}
        if op == "frobenius":
            return {"S": sg.noncyclotomic_symmetric_with_frobenius(spec["F"])}
        return {
            "cert": ctx.lib.kronecker.certify(sg.fk_poly(spec["k"])),
            "pattern": sg.fk_gcd_pattern(spec["k"]),
        }

    def check(self, spec, out):
        op = spec["op"]
        if op == "census":
            S = out["S"]
            gaps = ref.semigroup_gaps(spec["gens"])
            symmetric = ref.is_symmetric(gaps)
            return (
                list(S.gaps) == gaps
                and S.frobenius == max(gaps, default=-1)
                and S.genus == len(gaps)
                and list(S.minimal_generators) == ref.minimal_generators(spec["gens"])
                and out["symmetric"] == symmetric
                and symmetric == (2 * S.genus == S.frobenius + 1)
                and out["poly"] == ref.semigroup_polynomial(gaps)
                and out["round_trip"] == S
            )
        if op == "cyclotomic":
            cert = out["cert"]
            fac = cert.factorization
            gaps = ref.semigroup_gaps(spec["gens"])
            rebuilt = ref.poly_mul(
                [0] * fac.e0 + ref.cyclotomic_product(dict(fac.factors)), list(fac.remainder.coeffs)
            )
            return cert.is_kronecker == spec["ci"] and rebuilt == ref.semigroup_polynomial(gaps)
        if op == "frobenius":
            S, F = out["S"], spec["F"]
            gaps = ref.semigroup_gaps(list(S.minimal_generators))
            return (
                list(S.gaps) == gaps
                and max(gaps) == F
                and ref.is_symmetric(gaps)
                and 2 * S.genus == F + 1
            )
        k = spec["k"]
        f = fk_reference(k)
        pattern = tuple(d for d in (6, 10, 12) if not ref.poly_rem_monic(f, ref.cyclotomic(d)))
        cert = out["cert"]
        found = {d for d in (6, 10, 12) if cert.factorization.factors.get(d)}
        return (
            cert.is_kronecker == (k <= 4)
            and out["pattern"] == pattern
            and found == set(pattern)
        )

    def corrupt(self, out):
        bad = copy.copy(out)
        if "pattern" in bad:
            bad["pattern"] = bad["pattern"] + (7,)
        elif "cert" in bad:
            flipped = "non_kronecker" if bad["cert"].is_kronecker else "kronecker"
            bad["cert"] = dataclasses.replace(bad["cert"], verdict=flipped)
        else:
            bad["S"] = dataclasses.replace(bad["S"], genus=bad["S"].genus + 1)
        return bad

    def size(self, spec):
        op = spec["op"]
        if op in ("census", "cyclotomic"):
            gaps = ref.semigroup_gaps(spec["gens"])
            return {"op": op, "F": max(gaps, default=-1), "m": min(spec["gens"])}
        if op == "frobenius":
            return {"op": op, "F": spec["F"]}
        return {"op": op, "k": spec["k"]}


# ---------------------------------------------------------------------------


class CliCold(Workload):
    """One fresh `python -m cyclokit.cli` per op over a seeded argv mix."""

    name = "cli_cold"
    in_process = False
    CYCLES = 8
    TIMEOUT_S = 30.0
    KINDS = (
        "phi",
        "coeff",
        "logderiv",
        "kronecker_certify",
        "kronecker_factor",
        "semigroup_info",
        "semigroup_cyclotomic",
        "fk_certify",
        "frobenius_family",
    )

    def _argv(self, rng, kind, use_json):
        if kind == "phi":
            n = self._n_with_phi(rng, 64, 256)
            spec = {"argv": ["phi", str(n)], "n": n}
        elif kind == "coeff":
            n = self._n_with_phi(rng, 32, 160)
            k = rng.randint(1, min(24, ref.euler_phi(n)))
            spec = {"argv": ["coeff", str(n), str(k), "--method", "all"], "n": n, "k": k}
        elif kind == "logderiv":
            n = self._n_with_phi(rng, 32, 128)
            at, order = rng.choice(("0", "1", "-1")), rng.randint(1, 3)
            argv = ["logderiv", "phi", str(n), f"--at={at}", "--order", str(order), "--check-oracle"]
            spec = {"argv": argv, "n": n}
        elif kind in ("kronecker_certify", "kronecker_factor"):
            cofactor = rng.choice(COFACTORS) if rng.random() < 0.5 else (1,)
            poly = cyclotomic_input(rng, rng.randint(24, 48), cofactor, 64)
            action = kind.split("_")[1]
            csv = ",".join(str(c) for c in poly["coeffs"])
            spec = {"argv": ["kronecker", action, f"--poly={csv}"], "truth": poly}
        elif kind == "semigroup_info":
            gens = random_semigroup(rng, 8, 30, 100, 400)
            spec = {"argv": ["semigroup", "info", "--gens", ",".join(map(str, gens))], "gens": gens}
        elif kind == "semigroup_cyclotomic":
            if rng.random() < 0.5:
                gens, ci = glued_semigroup(rng, 10, 150), True
            else:
                gens, ci = asymmetric_semigroup(rng, 150), False
            spec = {"argv": ["semigroup", "cyclotomic", "--gens", ",".join(map(str, gens))], "ci": ci}
        elif kind == "fk_certify":
            k = rng.randint(1, 60)
            spec = {"argv": ["fk", "certify", str(k)], "k": k}
        else:
            F = rng.randrange(9, 102, 2)
            spec = {"argv": ["frobenius-family", str(F)], "F": F}
        spec["kind"] = kind
        if use_json:
            spec["argv"] = ["--json"] + spec["argv"]
        return spec

    @staticmethod
    def _n_with_phi(rng, lo, hi):
        while True:
            n = rng.randint(3, 4 * hi)
            if lo <= ref.euler_phi(n) <= hi:
                return n

    def pool(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for cycle in range(self.CYCLES):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            out += [self._argv(rng, kind, (cycle + i) % 2 == 1) for i, kind in enumerate(kinds)]
        return out

    def warmup(self, seed):
        # n = 1 never occurs in the pool
        return [{"argv": ["phi", "1"], "n": 1, "kind": "phi"}]

    def prepare(self, ctx, pool):
        """Record the in-process result of every argv as the expected output,
        after checking it against the generator's ground truth; an argv whose
        in-process result is wrong gets no expectation, so its ops fail."""
        ctx.expected = {}
        for spec in pool:
            key = json.dumps(spec["argv"])
            if key in ctx.expected:
                continue
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = ctx.lib.cli.main(list(spec["argv"]))
            result = (code, buf.getvalue())
            ctx.expected[key] = result if self._truth(spec, *result) else None

    def _truth(self, spec, code, stdout) -> bool:
        kind = spec["kind"]
        payload = json.loads(stdout)["result"] if spec["argv"][0] == "--json" else None
        lines = stdout.splitlines()
        if kind == "phi":
            phi = ref.cyclotomic(spec["n"])
            return code == 0 and (payload["coeffs"] == phi if payload else len(lines) == 1)
        if kind == "coeff":
            phi = ref.cyclotomic(spec["n"])
            value = phi[spec["k"]] if spec["k"] < len(phi) else 0
            return code == 0 and (payload["value"] if payload else int(lines[0])) == value
        if kind == "logderiv":
            return code == 0 and (payload["closed_form"] if payload else len(lines) == 1)
        if kind in ("kronecker_certify", "kronecker_factor"):
            truth = spec["truth"]
            kronecker = truth["remainder"] == [1]
            expect_code = 0 if kind == "kronecker_factor" or kronecker else 1
            if code != expect_code:
                return False
            if payload is None:
                return True
            fac = payload["factorization"] if kind == "kronecker_certify" else payload
            return (
                fac["e0"] == truth["e0"]
                and sorted((int(d), e) for d, e in fac["factors"].items()) == [tuple(p) for p in truth["factors"]]
                and fac["remainder"] == truth["remainder"]
            )
        if kind == "semigroup_info":
            gaps = ref.semigroup_gaps(spec["gens"])
            return code == 0 and (payload["gaps"] == gaps if payload else f"gaps: {gaps}" in lines)
        if kind == "semigroup_cyclotomic":
            return code == (0 if spec["ci"] else 1)
        if kind == "fk_certify":
            return code == (0 if spec["k"] <= 4 else 1)
        gens = payload["minimal_generators"] if payload else [int(g) for g in lines[0].split(",")]
        gaps = ref.semigroup_gaps(gens)
        return code == 0 and max(gaps) == spec["F"] and ref.is_symmetric(gaps)

    def command(self, ctx, spec):
        if ctx.tracer_dir is None:
            return [sys.executable, "-m", "cyclokit.cli", *spec["argv"]]
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        out = os.path.join(ctx.tracer_dir, f"op{ctx.op_id}.json")
        return [sys.executable, shim, out, str(ctx.op_id), *spec["argv"]]

    def run(self, ctx, spec):
        proc = subprocess.run(
            self.command(ctx, spec),
            cwd=ctx.root,
            env=ctx.child_env,
            capture_output=True,
            text=True,
            timeout=self.TIMEOUT_S,
        )
        return {"argv": spec["argv"], "code": proc.returncode, "stdout": proc.stdout, "expected": ctx.expected.get(json.dumps(spec["argv"]))}

    def check(self, spec, out):
        return out["expected"] is not None and (out["code"], out["stdout"]) == out["expected"]

    def corrupt(self, out):
        bad = dict(out)
        bad["stdout"] = out["stdout"].replace("1", "2", 1) + "\n"
        return bad

    def size(self, spec):
        out = {"kind": spec["kind"]}
        for key in ("n", "k", "F"):
            if key in spec:
                out[key] = spec[key]
        if "truth" in spec:
            out["degree"] = len(spec["truth"]["coeffs"]) - 1
        return out


WORKLOADS = {wl.name: wl for wl in (CertifyStream(), CoeffSweep(), SemigroupCensus(), CliCold())}
