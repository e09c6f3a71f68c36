"""A doubling ladder over every size argument of every subcommand.

Each ladder doubles one size argument, with the other arguments at their
smallest valid values, from a small start up to the first rung past the
guardrail that bounds it; a size that nothing bounds is doubled up to 2^64.
Where the rung below the guardrail is costly, the start is chosen so that
this rung lies just above half the limit.

Every rung but the last must exit 0, and the last must exit 0 or 2 as its
ladder says, the 2 with a message that names the guardrail ("guardrail NAME =
limit").  No rung may exit 1, print a traceback or be killed: the rungs are
chosen so that no certifying command reaches a negative verdict, whose exit
code is 1.

The rungs run in a few fresh interpreters, as tests/test_imports.py runs its
children; each sets its own address-space and CPU-time limits and calls
cli.main once per argv.
"""

import ast
import os
import re
import subprocess
import sys
from math import prod

import cyclokit
from cyclokit.cli import build_parser
from cyclokit.numtheory import primes_up_to

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyclokit.__file__)))

CHILDREN = 3
ADDRESS_SPACE = 1 << 30
CPU_SECONDS = 60
UNBOUNDED = 2 ** 64
DIGITS = "sys.get_int_max_str_digits()"
PRIMORIAL = prod(primes_up_to(113))


def _doubling(start: int, stop: int) -> list[int]:
    sizes = [start]
    while sizes[-1] < stop:
        sizes.append(2 * sizes[-1])
    return sizes


def _ones(k: int) -> str:
    return ",".join(["1"] * k)


# (size argument, argv at size v, sizes, guardrail the last rung names or None)
LADDERS = [
    ("N", lambda v: ["phi", str(v)], _doubling(1, 2 ** 21), "DEGREE_GUARDRAIL"),
    ("N", lambda v: ["coeff", str(v), "0"], _doubling(1, 2 ** 21), "DEGREE_GUARDRAIL"),
    ("N", lambda v: ["coeff", str(v), "0", "--method", "all"], _doubling(2, 2 ** 21), "DEGREE_GUARDRAIL"),
    # taylor1 reads c-table and Bell rows up to phi(N)
    ("N", lambda v: ["coeff", str(v), "0", "--method", "taylor1"], _doubling(2, 2 ** 10), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["coeff", "1", str(v)], _doubling(1, UNBOUNDED), None),
    ("K", lambda v: ["coeff", "1", str(v), "--method", "moller"], _doubling(1, 2 ** 7), "MOLLER_K_CAP"),
    ("K", lambda v: ["coeff", "2", str(v), "--method", "recurrence"], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["coeff", "2", str(v), "--method", "bell"], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["coeff", "2", str(v), "--method", "all"], _doubling(1, 2 ** 7), "MOLLER_K_CAP"),
    ("K", lambda v: ["ramanujan", str(v), "1"], _doubling(1, UNBOUNDED), None),
    ("N", lambda v: ["ramanujan", "1", str(v)], _doubling(1, UNBOUNDED), None),
    # 113# has 30 prime factors, so 2^30 pairs (t, mu(N/t)); r_k(N) and the
    # Moller parts j <= k must not list them
    ("N", lambda v: ["ramanujan", "1", str(v)], [PRIMORIAL], None),
    ("N", lambda v: ["ramanujan", "0", str(v)], [PRIMORIAL], None),
    ("N", lambda v: ["coeff", str(v), "3", "--method", "moller"], [PRIMORIAL], None),
    ("N", lambda v: ["coeff", str(v), "3", "--method", "recurrence"], [PRIMORIAL], None),
    ("N", lambda v: ["coeff", str(v), "3", "--method", "all"], [PRIMORIAL], "DEGREE_GUARDRAIL"),
    ("N", lambda v: ["logderiv", "phi", str(v), "--at", "0", "--order", "2"], [PRIMORIAL], None),
    ("K", lambda v: ["jordan", str(v), "1"], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("N", lambda v: ["jordan", "1", str(v)], _doubling(1, UNBOUNDED), None),
    ("K", lambda v: ["bernoulli", str(v)], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["stirling", "1", str(v), "0"], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["stirling", "2", str(v), "0"], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("J", lambda v: ["stirling", "2", "0", str(v)], _doubling(1, UNBOUNDED), None),
    ("K", lambda v: ["bellpoly", "partial", str(v), "1", "--xs", _ones(v)], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("K", lambda v: ["bellpoly", "complete", str(v), "--xs", _ones(v)], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("coefficient size", lambda v: ["bellpoly", "complete", "1", "--xs", "9" * v], _doubling(1, 2 ** 13), DIGITS),
    ("order", lambda v: ["logderiv", "poly", "--poly", "x", "--at", "1", "--order", str(v)],
     _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    ("order", lambda v: ["logderiv", "phi", "2", "--at", "0", "--order", str(v)], _doubling(1, 2 ** 9), "TABLE_INDEX_LIMIT"),
    # at 2 the value of Phi_N or Psi_N has about deg bits, refused when printed
    ("N", lambda v: ["logderiv", "phi", str(v), "--at", "2", "--order", "1"], _doubling(1, 2 ** 15), DIGITS),
    ("N", lambda v: ["logderiv", "invphi", str(v), "--at", "2", "--order", "1"], _doubling(1, 2 ** 15), DIGITS),
    ("degree", lambda v: ["logderiv", "poly", "--poly", f"x^{v}", "--at", "1", "--order", "1"],
     _doubling(1, 2 ** 20), "DEGREE_GUARDRAIL"),
    ("coefficient size", lambda v: ["logderiv", "poly", "--poly", "x+" + "9" * v, "--at", "1", "--order", "1"],
     _doubling(1, 2 ** 13), DIGITS),
    # (order + 1) Taylor passes over 10^6 coefficients that grow by about 20
    # bits a pass, and two passes over 10^6 coefficients of 14k bits
    ("order", lambda v: ["logderiv", "poly", "--poly", "x^999999+1", "--at", "1", "--order", str(v)],
     _doubling(8, 16), "TAYLOR_WORK_LIMIT"),
    ("coefficient size", lambda v: ["logderiv", "poly", "--poly", "9" * v + "*x^999999+1", "--at", "1", "--order", "1"],
     [4299], "TAYLOR_WORK_LIMIT"),
    ("N", lambda v: ["schwarzian", str(v)], _doubling(2, UNBOUNDED), None),
    ("degree", lambda v: ["kronecker", "factor", "--poly", f"x^{v}"], _doubling(1, 2 ** 13), "CERTIFY_DEGREE_LIMIT"),
    ("degree", lambda v: ["kronecker", "certify", "--poly", f"x^{v}"], _doubling(1, 2 ** 13), "CERTIFY_DEGREE_LIMIT"),
    ("coefficient size", lambda v: ["kronecker", "factor", "--poly", "x+" + "9" * v], _doubling(1, 2 ** 13), DIGITS),
    # <2, v + 1> has F + 1 = v, and P_S of two generators is cyclotomic; every
    # action builds the semigroup as info does
    ("generator magnitude", lambda v: ["semigroup", "info", "--gens", f"2,{v + 1}"],
     _doubling(2, 2 ** 20), "DEGREE_GUARDRAIL"),
    ("generator magnitude", lambda v: ["semigroup", "cyclotomic", "--gens", f"2,{v + 1}"],
     _doubling(86, 5504), "CERTIFY_DEGREE_LIMIT"),
    # v, ..., 2v - 1 are all minimal: v steps each in the round robin
    ("generator count", lambda v: ["semigroup", "info", "--gens", ",".join(map(str, range(v, 2 * v)))],
     _doubling(129, 4128), "ROUND_ROBIN_LIMIT"),
    ("K", lambda v: ["fk", "gcd", str(v)], _doubling(43, 2752), "CERTIFY_DEGREE_LIMIT"),
    ("--max", lambda v: ["fk", "sweep", "--max", str(v)], _doubling(63, 504), "FK_SWEEP_LIMIT"),
    ("F", lambda v: ["frobenius-family", str(v + 1)], _doubling(86, 5504), "CERTIFY_DEGREE_LIMIT"),
    # tables factorization runs the same sweep as fk sweep, so only tables c is laddered
    ("--max", lambda v: ["tables", "c", "--max", str(v)], _doubling(13, 416), "TABLE_INDEX_LIMIT"),
]

_CHILD = f"""
import ast, contextlib, io, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
resource.setrlimit(resource.RLIMIT_CPU, ({CPU_SECONDS}, {CPU_SECONDS}))
from cyclokit.cli import main
for index, argv in ast.literal_eval(sys.stdin.readline()):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException:
        code, err = 1, io.StringIO(err.getvalue() + traceback.format_exc())
    print(repr((index, code, err.getvalue()[-400:])), flush=True)
"""


def _run_rungs(rungs: list[tuple[int, list[str]]]) -> dict[int, tuple[int, str]]:
    """(exit code, stderr tail) of each indexed argv, from CHILDREN interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        subprocess.Popen([sys.executable, "-c", _CHILD], env=env, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(CHILDREN)
    ]
    batches = [rungs[i::CHILDREN] for i in range(CHILDREN)]
    # each child reads its batch as one line, so all of them start at once
    for proc, batch in zip(procs, batches):
        proc.stdin.write(repr(batch) + "\n")
        proc.stdin.flush()
    results = {}
    for proc, batch in zip(procs, batches):
        out, err = proc.communicate(timeout=300)
        done = [ast.literal_eval(line) for line in out.splitlines()]
        results.update((index, (code, tail)) for index, code, tail in done)
        killed = next((argv for index, argv in batch if index not in results), None)
        assert proc.returncode == 0, (proc.returncode, killed and killed[:4], err[-400:])
    return results


def test_ladders_cover_every_subcommand_and_size_argument():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {make(1)[0] for _, make, _, _ in LADDERS} == set(sub.choices)
    sizes = {"K", "N", "order", "--max", "degree", "coefficient size", "generator magnitude", "generator count"}
    assert sizes <= {size for size, *_ in LADDERS}


def test_every_rung_finishes_or_refuses_naming_its_guardrail():
    rungs, refusals = [], {}
    for _, make, values, guardrail in LADDERS:
        for v in values:
            rungs.append((len(rungs), make(v)))
        refusals[len(rungs) - 1] = guardrail
    results = _run_rungs(rungs)
    for index, argv in rungs:
        code, err = results[index]
        shown = [a if len(a) < 40 else a[:20] + "..." for a in argv]
        guardrail = refusals.get(index)
        if guardrail is None:
            assert (code, err) == (0, ""), (shown, code, err)
        else:
            assert code == 2 and "Traceback" not in err, (shown, code, err)
            assert re.search(rf"guardrail {re.escape(guardrail)} = \d+", err), (shown, err)
