import contextlib
import io
import json
import os
import re
import shlex
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclokit import cli
from cyclokit import numtheory as nt
from cyclokit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_phi(capsys):
    code, out, _ = run(capsys, "phi", "6")
    assert code == 0
    assert out == "x^2 - x + 1"
    code, out, _ = run(capsys, "phi", "6", "--coeffs")
    assert out == "1,-1,1"


def test_phi_dump_coeffs(tmp_path, capsys):
    target = tmp_path / "c.csv"
    code, _, _ = run(capsys, "phi", "105", "--dump-coeffs", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "index,coefficient"
    assert lines[1] == "0,1"
    assert lines[8] == "7,-2"
    assert len(lines) == 50  # header + 49 coefficients


def test_phi_dump_coeffs_unwritable_exits_2(tmp_path, capsys):
    # a directory, a file in a missing directory, and a full device
    targets = [tmp_path, tmp_path / "missing" / "c.csv"]
    if os.path.exists("/dev/full"):
        targets.append("/dev/full")
    for target in targets:
        code, out, err = run(capsys, "phi", "105", "--dump-coeffs", str(target))
        assert (code, out) == (2, ""), target
        assert err.startswith(f"error: cannot write {str(target)!r}: ") and "Traceback" not in err


def _readme_cli_lines():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cyclokit ")]


def test_readme_cli_examples_run_and_print_their_values(tmp_path, monkeypatch, capsys):
    # every example runs cleanly, and a trailing comment that starts with a
    # value names the first line the command prints
    monkeypatch.chdir(tmp_path)  # `--dump-coeffs c.csv` writes here
    lines = _readme_cli_lines()
    assert len(lines) == 17
    valued = 0
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr()
        assert code in (0, 1) and out.err == "", (line, code, out.err)
        value = re.match(r"-?\d+(?:[/,]\d+)*", line.partition("#")[2].strip())
        if value:
            assert out.out.splitlines()[0] == value.group(), line
            valued += 1
    assert valued == 8
    assert (tmp_path / "c.csv").read_text().splitlines()[8] == "7,-2"


def test_phi_guardrail(capsys):
    # phi(510510) = 92160 is fine; fake a huge one via the guardrail check
    code, _, err = run(capsys, "phi", "2000000011")  # prime, phi = n - 1 > 1e6
    assert code == 2
    assert "guardrail" in err


def test_poly_degree_guardrail(capsys):
    code, _, err = run(capsys, "kronecker", "certify", "--poly", "x^1000001")
    assert code == 2
    assert "guardrail" in err


def test_coeff_of_phi_1_by_every_method(capsys):
    for k, want in ((0, "-1"), (1, "1"), (2, "0")):
        for method in ("direct", "moller"):
            assert run(capsys, "coeff", "1", str(k), "--method", method) == (0, want, "")
        code, out, _ = run(capsys, "coeff", "1", str(k), "--method", "all")
        assert (code, out.splitlines()) == (0, [want, "all methods agree"])


def test_coeff_all(capsys):
    code, out, _ = run(capsys, "coeff", "105", "7", "--method", "all")
    assert code == 0
    assert out.splitlines() == ["-2", "all methods agree"]
    code, out, _ = run(capsys, "coeff", "12", "2", "--method", "taylor1")
    assert out == "-1"


def test_coeff_all_at_n_1(capsys):
    for k in range(4):
        code, out, _ = run(capsys, "coeff", "1", str(k))
        assert code == 0
        assert run(capsys, "coeff", "1", str(k), "--method", "all") == (
            0,
            f"{out}\nall methods agree",
            "",
        )


def test_negative_rational_option_values(capsys):
    # "--at -1/3" reads as "--at=-1/3", byte for byte
    for argv, value in (
        (["logderiv", "phi", "5", "--order", "2", "--at"], "-1/3"),
        (["logderiv", "poly", "--poly", "x^3 - 2", "--order", "1", "--at"], "-.5"),
        (["bellpoly", "partial", "2", "1", "--xs"], "-3/5,-4/2"),
        (["bellpoly", "complete", "3", "--xs"], "-1,2,-1/7"),
    ):
        split = main(argv + [value]), capsys.readouterr()
        joined = main(argv[:-1] + [f"{argv[-1]}={value}"]), capsys.readouterr()
        assert split[0] == joined[0] == 0
        assert split[1].out == joined[1].out and split[1].out


def test_scalar_commands(capsys):
    assert run(capsys, "ramanujan", "2", "4")[1] == "-2"
    assert run(capsys, "jordan", "2", "6")[1] == "24"
    assert run(capsys, "bernoulli", "4")[1] == "-1/30"
    assert run(capsys, "bernoulli", "1", "--minus")[1] == "-1/2"
    assert run(capsys, "stirling", "1", "4", "2")[1] == "11"
    assert run(capsys, "stirling", "2", "5", "2")[1] == "15"
    assert run(capsys, "schwarzian", "5")[1] == "-3/1"


def test_bernoulli_minus_output(capsys):
    want = ["1/1", "-1/2", "1/6", "0/1", "-1/30", "0/1", "1/42", "0/1", "-1/30", "0/1", "5/66"]
    for k, value in enumerate(want):
        assert run(capsys, "bernoulli", str(k), "--minus") == (0, value, "")
    code, out, _ = run(capsys, "--json", "bernoulli", "1", "--minus")
    assert code == 0
    assert json.loads(out)["result"] == {"k": 1, "minus": True, "value": "-1/2"}


def test_bellpoly(capsys):
    code, out, _ = run(capsys, "bellpoly", "partial", "4", "2", "--xs", "1,1,1")
    assert out == "7/1"
    code, out, _ = run(capsys, "bellpoly", "complete", "3", "--xs", "1/2,0,-2")
    # x1^3 + 3 x1 x2 + x3 = 1/8 + 0 - 2
    assert out == "-15/8"


def test_logderiv(capsys):
    code, out, _ = run(capsys, "logderiv", "phi", "6", "--at", "1", "--order", "2", "--check-oracle")
    assert code == 0
    assert out == "1/1"
    code, out, _ = run(capsys, "logderiv", "invphi", "9", "--at", "-1", "--order", "1", "--check-oracle")
    assert code == 0
    # Psi_p = Phi_1 for a prime p, so the oracle builds a polynomial of degree 1
    assert run(capsys, "logderiv", "invphi", "2000003", "--at", "1/2", "--order", "2") == (0, "-4/1", "")
    code, out, _ = run(capsys, "logderiv", "poly", "--poly", "x^2 - x + 1", "--at", "1/2", "--order", "1")
    assert out == "0/1"
    # pole is an input-domain error
    code, _, err = run(capsys, "logderiv", "phi", "2", "--at", "-1", "--order", "1")
    assert code == 2


def test_kronecker_commands(capsys):
    code, out, _ = run(capsys, "kronecker", "factor", "--poly", "x^2 - x + 1")
    assert code == 0
    assert out == "Phi_6"
    code, out, _ = run(capsys, "kronecker", "certify", "--poly", "1,-1,0,0,0,1,0,0,0,-1,1")
    assert code == 1  # f_5 is not Kronecker
    assert "non_kronecker" in out
    code, _, err = run(capsys, "kronecker", "certify", "--poly", "x^2 + y")
    assert code == 2


def test_stray_signs_exit_2(capsys):
    for text in ("x--1", "x-+1", "x-", "x+", "++x"):
        code, out, err = run(capsys, "kronecker", "certify", "--poly", text)
        assert code == 2 and out == ""
        assert "stray sign" in err and "Traceback" not in err


def test_kronecker_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("x^4 + x^3 - x - 1\n")  # Psi_6, a Kronecker polynomial
    code, out, _ = run(capsys, "kronecker", "certify", "--file", str(path))
    assert code == 0
    assert "verdict: kronecker" in out


def test_semigroup_commands(capsys):
    code, out, _ = run(capsys, "semigroup", "info", "--gens", "5,6,7,8")
    assert code == 0
    assert "frobenius: 9" in out
    code, out, _ = run(capsys, "semigroup", "symmetric", "--gens", "5,6,7,8")
    assert code == 0
    code, out, _ = run(capsys, "semigroup", "symmetric", "--gens", "3,4,5")
    assert code == 1
    code, out, _ = run(capsys, "semigroup", "cyclotomic", "--gens", "5,6,7,8")
    assert code == 1
    assert "not cyclotomic" in out
    code, out, _ = run(capsys, "semigroup", "polynomial", "--gens", "2,3")
    assert out == "x^2 - x + 1"
    code, _, _ = run(capsys, "semigroup", "info", "--gens", "4,6")
    assert code == 2


def test_fk_commands(capsys):
    code, out, _ = run(capsys, "fk", "gcd", "3")
    assert code == 0
    assert out == "Phi_6 * Phi_12"
    code, out, _ = run(capsys, "fk", "certify", "4")
    assert code == 0
    code, out, _ = run(capsys, "fk", "certify", "7")
    assert code == 1
    code, _, _ = run(capsys, "fk", "gcd")
    assert code == 2


def test_frobenius_family(capsys):
    code, out, _ = run(capsys, "frobenius-family", "9")
    assert code == 0
    assert out == "5,6,7,8"
    code, _, _ = run(capsys, "frobenius-family", "8")
    assert code == 2


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "c", "--max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=1: -1/2, 1/2"
    assert lines[3] == "k=4: 251/120, -3/1, 11/12, 0/1, -1/120"
    code, out, _ = run(capsys, "tables", "factorization", "--max", "6")
    assert "k=3: Phi_6 Phi_12" in out
    assert "k=5: f_5" in out


def test_fk_sweep_refuses_before_building_a_row(capsys, monkeypatch):
    from cyclokit import semigroup

    fk_poly = semigroup.fk_poly

    def no_row(k):
        raise AssertionError(f"f_{k} built before the guardrail refused")

    monkeypatch.setattr(semigroup, "FK_SWEEP_LIMIT", 6)
    monkeypatch.setattr(semigroup, "fk_poly", no_row)
    for argv in (["fk", "sweep", "--max", "7"], ["tables", "factorization", "--max", "7"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "FK_SWEEP_LIMIT" in err and "Traceback" not in err
    # at the limit both commands print every row
    monkeypatch.setattr(semigroup, "fk_poly", fk_poly)
    for argv in (["fk", "sweep", "--max", "6"], ["tables", "factorization", "--max", "6"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 6, argv


def test_certify_commands_refuse_above_the_degree_guardrail(capsys, monkeypatch):
    from cyclokit import semigroup

    # with the limit at 20: f_10 and P_S of F = 19 have degree 20, one step up
    # is f_11 and F = 21
    at_limit = (["fk", "gcd", "10"], ["fk", "certify", "10"], ["frobenius-family", "19"],
                ["semigroup", "cyclotomic", "--gens", "3,11"])
    above = (["fk", "gcd", "11"], ["fk", "certify", "11"], ["frobenius-family", "21"],
             ["semigroup", "cyclotomic", "--gens", "2,23"])
    want = {tuple(argv): run(capsys, *argv) for argv in at_limit}
    monkeypatch.setattr(cli, "CERTIFY_DEGREE_LIMIT", 20)
    for argv in at_limit:
        assert run(capsys, *argv) == want[tuple(argv)], argv

    def no_poly(arg):
        raise AssertionError(f"built from {arg} before the guardrail refused")

    for name in ("fk_poly", "semigroup_polynomial", "s_k"):
        monkeypatch.setattr(semigroup, name, no_poly)
    for argv in above:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: degree 22 exceeds the guardrail CERTIFY_DEGREE_LIMIT = 20", argv
        # there is no override
        code, out, err = run(capsys, *argv, "--force")
        assert (code, out) == (2, "") and "unrecognized arguments: --force" in err, argv


def test_kronecker_poly_refused_above_the_certify_degree_limit(tmp_path, capsys, monkeypatch):
    from cyclokit import kronecker

    source = tmp_path / "f.txt"
    source.write_text("x^21 + x + 1")
    at_limit = (["--poly", "x^20 + x + 1"], ["--poly", "1,-1,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,-1,1"])
    above = (["--poly", "x^21 + x + 1"], ["--file", str(source)])
    want = {(action, *argv): run(capsys, "kronecker", action, *argv)
            for action in ("factor", "certify") for argv in at_limit}
    monkeypatch.setattr(cli, "CERTIFY_DEGREE_LIMIT", 20)
    for key, expected in want.items():
        assert run(capsys, "kronecker", *key) == expected, key

    def no_factoring(f):
        raise AssertionError(f"factored degree {f.degree} before the guardrail refused")

    monkeypatch.setattr(kronecker, "factor_kronecker", no_factoring)
    for action in ("factor", "certify"):
        for argv in above:
            code, out, err = run(capsys, "kronecker", action, *argv)
            assert (code, out) == (2, ""), argv
            assert err == "error: degree 21 exceeds the guardrail CERTIFY_DEGREE_LIMIT = 20", argv


def test_semigroup_actions_refuse_above_the_degree_guardrail(capsys, monkeypatch):
    from cyclokit import polyring, semigroup

    # with the guardrail at 20: <3, 11> has F + 1 = 20 and <20, ..., 39> has
    # multiplicity 20; <2, 23> has F + 1 = 22 and <21, ..., 41> multiplicity 21
    at_limit = ("3,11", ",".join(map(str, range(20, 40))))
    wide, deep = "2,23", ",".join(map(str, range(21, 42)))
    actions = ("info", "symmetric", "polynomial", "cyclotomic")
    want = {(action, gens): run(capsys, "semigroup", action, "--gens", gens)
            for action in actions for gens in at_limit}
    monkeypatch.setattr(polyring, "DEGREE_GUARDRAIL", 20)
    for (action, gens), expected in want.items():
        assert run(capsys, "semigroup", action, "--gens", gens) == expected, (action, gens)
    for action in actions:
        code, out, err = run(capsys, "semigroup", action, "--gens", wide)
        assert (code, out) == (2, "")
        assert err == "error: degree F + 1 = 22 exceeds the guardrail DEGREE_GUARDRAIL = 20"

    def no_table(m, gens):
        raise AssertionError(f"Apery table of {m} entries allocated")

    monkeypatch.setattr(semigroup, "_round_robin", no_table)
    for action in actions:
        code, out, err = run(capsys, "semigroup", action, "--gens", deep)
        assert (code, out) == (2, "")
        assert err == "error: least generator 21 exceeds the guardrail DEGREE_GUARDRAIL = 20"


def test_logderiv_refuses_orders_above_the_table_index_limit(capsys):
    # at order 2000 the first three printed a ValueError traceback from the
    # int-to-str limit and exited 1; all four refuse above TABLE_INDEX_LIMIT
    forms = (["poly", "--poly", "x^2+1", "--at", "1"], ["phi", "7", "--at", "0"],
             ["invphi", "7", "--at", "0"], ["phi", "7", "--at", "1"])
    for argv in forms:
        code, out, err = run(capsys, "logderiv", *argv, "--order", "400")
        assert code == 0 and re.fullmatch(r"-?\d+/\d+", out) and err == "", argv
        code, out, err = run(capsys, "logderiv", *argv, "--order", "401")
        assert (code, out) == (2, ""), argv
        assert err == "error: index 401 exceeds the guardrail TABLE_INDEX_LIMIT = 400", argv


def test_logderiv_refuses_orders_below_one_with_one_message(capsys):
    # a closed-form point, oracle-only points of each family, and the oracle
    # check all refuse an order below 1 alike, before any route runs
    forms = (["phi", "6", "--at", "1"], ["phi", "6", "--at", "1", "--check-oracle"],
             ["invphi", "9", "--at", "1/2"], ["poly", "--poly", "x+2", "--at", "1/2"])
    for argv in forms:
        for order in ("0", "-3"):
            code, out, err = run(capsys, "logderiv", *argv, "--order", order)
            assert (code, out) == (2, ""), argv
            assert err == f"error: logderiv order must be >= 1, got {order}", argv


def test_logderiv_closed_form_builds_no_polynomial(capsys, monkeypatch):
    from cyclokit import polyring

    def no_poly(out, net):
        raise AssertionError(f"series of length {len(out)} allocated")

    monkeypatch.setattr(polyring, "_times_mobius_factors", no_poly)
    p = 2000003  # prime, so deg Phi_p = p - 1 is above the guardrail
    half = (p - 1) // 2
    assert run(capsys, "logderiv", "phi", str(p), "--at", "1", "--order", "1") == (0, f"{half}/1", "")
    assert run(capsys, "logderiv", "phi", str(p), "--at", "0", "--order", "1") == (0, "1/1", "")
    assert run(capsys, "logderiv", "invphi", str(p), "--at", "-1", "--order", "1") == (0, "-1/2", "")
    # the oracle path refuses such a degree before it builds anything
    for argv in (
        ["phi", str(p), "--at", "1/2", "--order", "1"],
        ["phi", str(p), "--at", "1", "--order", "1", "--check-oracle"],
        ["invphi", str(2 * 1000003), "--at", "1/2", "--order", "1"],
    ):
        code, out, err = run(capsys, "logderiv", *argv)
        assert (code, out) == (2, ""), argv
        assert "DEGREE_GUARDRAIL" in err and "Traceback" not in err


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "coeff", "105", "7", "--method", "all")
    data = json.loads(out)
    assert data["command"] == "coeff"
    assert data["result"]["value"] == -2
    code, out, _ = run(capsys, "--json", "bernoulli", "4")
    data = json.loads(out)
    assert data["result"]["value"] == "-1/30"
    code, out, _ = run(capsys, "--json", "kronecker", "certify", "--poly", "x^2 - x + 1")
    data = json.loads(out)
    assert data["result"]["verdict"] == "kronecker"


def test_roundtrip_printed_polynomials(capsys):
    from cyclokit import polyring as pr

    for n in (1, 2, 6, 12, 105):
        _, out, _ = run(capsys, "phi", str(n))
        assert pr.parse_poly(out) == pr.cyclotomic(n)
        _, out, _ = run(capsys, "phi", str(n), "--coeffs")
        assert pr.parse_poly(out) == pr.cyclotomic(n)


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_check_oracle_mismatch_exits_3(capsys, monkeypatch):
    from fractions import Fraction

    from cyclokit import cycloderiv

    monkeypatch.setattr(cycloderiv, "log_deriv_phi_at_one", lambda n, k: Fraction(999))
    code, _, err = run(capsys, "logderiv", "phi", "6", "--at", "1", "--order", "2", "--check-oracle")
    assert code == 3
    assert "disagrees with oracle" in err


def test_poly_digit_limit_exits_2(capsys):
    nines = "9" * 5000
    for poly in (f"x^{nines}", f"{nines}x + 1"):
        code, _, err = run(capsys, "kronecker", "certify", "--poly", poly)
        assert code == 2
        assert "guardrail sys.get_int_max_str_digits() = " in err and "Traceback" not in err


def test_unreadable_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "kronecker", "factor", "--file", str(tmp_path / "missing"))
    assert code == 2
    assert "cannot read" in err
    code, _, err = run(capsys, "logderiv", "poly", "--file", str(tmp_path), "--at", "0", "--order", "1")
    assert code == 2


def test_factorize_guardrail_exits_2(capsys, monkeypatch):
    # a guardrail of 1000 on a fresh prime list stands in for PRIME_SIEVE_LIMIT,
    # so the test never sieves that far
    monkeypatch.setattr(nt, "PRIME_SIEVE_LIMIT", 1000)
    monkeypatch.setattr(nt, "_prime_list", [2, 3, 5, 7, 11, 13])
    monkeypatch.setattr(nt, "_prime_limit", 13)
    code, _, err = run(capsys, "jordan", "2", "1000000000000000003")
    assert code == 2
    assert "PRIME_SIEVE_LIMIT" in err


def test_table_index_guardrail_exits_2(capsys):
    from cyclokit.combinat import TABLE_INDEX_LIMIT as n

    assert run(capsys, "stirling", "2", str(n), str(n - 1)) == (0, str(n * (n - 1) // 2), "")
    assert run(capsys, "stirling", "1", str(n), str(n))[:2] == (0, "1")
    for argv in (["bernoulli", str(n + 1)], ["stirling", "1", str(n + 1), "1"], ["stirling", "2", str(n + 1), "3"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "TABLE_INDEX_LIMIT" in err and "Traceback" not in err


def test_tables_c_refuses_before_building_a_row(capsys, monkeypatch):
    from types import SimpleNamespace

    from cyclokit import cycloderiv
    from cyclokit.combinat import TABLE_INDEX_LIMIT as n

    def no_row(k):
        raise AssertionError(f"row {k} built before the guardrail refused")

    monkeypatch.setattr(cycloderiv, "c_table", no_row)
    code, out, err = run(capsys, "tables", "c", "--max", str(n + 1))
    assert (code, out) == (2, "")
    assert "TABLE_INDEX_LIMIT" in err and "Traceback" not in err
    # at the limit every row is asked for; a stub row keeps it cheap
    built = []
    monkeypatch.setattr(cycloderiv, "c_table", lambda k: built.append(k) or SimpleNamespace(entries=(k,)))
    code, out, _ = run(capsys, "tables", "c", "--max", str(n))
    assert code == 0 and built == list(range(1, n + 1))
    assert out.splitlines()[-1] == f"k={n}: {n}/1"


def test_moller_guardrail_exits_2(capsys):
    from cyclokit.cyclocoeffs import MOLLER_K_CAP as k, coeff_direct

    want = str(coeff_direct(2310, k))
    assert run(capsys, "coeff", "2310", str(k), "--method", "moller") == (0, want, "")
    for method in ("moller", "all"):
        code, _, err = run(capsys, "coeff", "2310", str(k + 1), "--method", method)
        assert code == 2, method
        assert "MOLLER_K_CAP" in err and "Traceback" not in err


def test_coeff_refuses_above_the_degree_guardrail(capsys, monkeypatch):
    from cyclokit import polyring

    # phi(105) = 48 is at the patched guardrail and phi(143) = 120 above it
    monkeypatch.setattr(polyring, "DEGREE_GUARDRAIL", 48)
    assert run(capsys, "coeff", "105", "7") == (0, "-2", "")
    assert run(capsys, "coeff", "105", "7", "--method", "all") == (0, "-2\nall methods agree", "")

    def no_build(out, net):
        raise AssertionError(f"series of length {len(out)} allocated before the guardrail refused")

    # a cached Phi_143 would be served without the check
    polyring.cyclotomic.cache_clear()
    monkeypatch.setattr(polyring, "_times_mobius_factors", no_build)
    for method in ("direct", "all"):
        code, out, err = run(capsys, "coeff", "143", "7", "--method", method)
        assert (code, out) == (2, ""), method
        assert err == "error: degree phi(143) = 120 exceeds the guardrail DEGREE_GUARDRAIL = 48", method


def test_jordan_refuses_indices_and_values_past_the_guardrails(capsys):
    from cyclokit.combinat import TABLE_INDEX_LIMIT as n

    assert run(capsys, "jordan", str(n), "6") == (0, str(nt.jordan_totient(n, 6)), "")
    code, out, err = run(capsys, "jordan", str(n + 1), "6")
    assert (code, out) == (2, "")
    assert err == f"error: index {n + 1} exceeds the guardrail TABLE_INDEX_LIMIT = {n}"
    # J_100(10^43) < 10^4300 prints in 4300 digits, and so does J_100(10^43 +
    # 3432), although (10^43 + 3432)^100 > 10^4300; one more factor of n, or
    # 10^43 + 10^27, gives a value past an int-to-str limit of 4300 digits
    digits, old = 4300, sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        for m in (10 ** 43, 10 ** 43 + 3432):
            code, out, err = run(capsys, "jordan", "100", str(m))
            assert (code, len(out), err) == (0, digits, ""), m
        for k, m, d in ((101, 10 ** 43, 4343), (100, 10 ** 43 + 10 ** 27, 4301), (n, 10 ** 11, 4400)):
            code, out, err = run(capsys, "jordan", str(k), str(m))
            assert (code, out) == (2, ""), (k, m)
            assert err == (
                f"error: a printed value's digit count {d} exceeds the guardrail "
                f"sys.get_int_max_str_digits() = {digits}"
            ), (k, m)
    finally:
        sys.set_int_max_str_digits(old)


def test_bellpoly_refuses_above_the_table_index_limit(capsys):
    from cyclokit.combinat import TABLE_INDEX_LIMIT as n

    assert run(capsys, "bellpoly", "partial", str(n), str(n), "--xs", "1/2") == (0, f"1/{2 ** n}", "")
    ones = ",".join(["0"] * (n - 1) + ["7"])
    assert run(capsys, "bellpoly", "complete", str(n), "--xs", ones) == (0, "7/1", "")
    for argv in (["partial", str(n + 1), str(n + 1)], ["partial", str(n + 1), "1"], ["complete", str(n + 1)]):
        code, out, err = run(capsys, "bellpoly", *argv, "--xs", ",".join(["1"] * (n + 1)))
        assert (code, out) == (2, ""), argv
        assert err == f"error: index {n + 1} exceeds the guardrail TABLE_INDEX_LIMIT = {n}", argv


# Argument shapes for every subcommand; N and T take a drawn token.  No
# --dump-coeffs (it writes a file), and the tokens are never positive sizes,
# so no case can ask for huge but valid work.
_CLI_FORMS = [
    ["phi", "N"], ["phi", "N", "--coeffs"],
    ["coeff", "N", "N"], ["coeff", "N", "N", "--method", "all"],
    ["coeff", "N", "N", "--method", "moller"], ["coeff", "N", "N", "--method", "taylor1"],
    ["ramanujan", "N", "N"], ["jordan", "N", "N"],
    ["bernoulli", "N"], ["bernoulli", "N", "--minus"],
    ["stirling", "1", "N", "N"], ["stirling", "2", "N", "N"],
    ["bellpoly", "partial", "N", "N", "--xs", "T"], ["bellpoly", "complete", "N", "--xs", "T"],
    ["logderiv", "phi", "N", "--at", "T", "--order", "N", "--check-oracle"],
    ["logderiv", "invphi", "N", "--at", "T", "--order", "N"],
    ["logderiv", "poly", "--poly", "T", "--at", "T", "--order", "N"],
    ["logderiv", "poly", "--file", "T", "--at", "T", "--order", "N"],
    ["schwarzian", "N"],
    ["kronecker", "factor", "--poly", "T"], ["kronecker", "certify", "--poly", "T"],
    ["kronecker", "certify", "--file", "T"],
    ["semigroup", "info", "--gens", "T"], ["semigroup", "symmetric", "--gens", "T"],
    ["semigroup", "cyclotomic", "--gens", "T"], ["semigroup", "polynomial", "--gens", "T"],
    ["fk", "gcd", "N"], ["fk", "certify", "N"], ["fk", "sweep", "--max", "N"],
    ["frobenius-family", "N"],
    ["tables", "c", "--max", "N"], ["tables", "factorization", "--max", "N"],
]

_OVERLONG = "9" * 4301
_bad_tokens = st.one_of(
    st.sampled_from(["", "0", "-0", "1/0", "0/5", "abc", "x^", ",", ",,", "--", "nan", "-x", "3/-"]),
    st.integers(-10 ** 6, -1).map(str),
    st.builds("{}/{}".format, st.integers(-99, -1), st.integers(1, 99)),
    st.text(alphabet="abx^*,+- .", min_size=1, max_size=6),
    st.sampled_from([_OVERLONG, "-" + _OVERLONG, "x^" + _OVERLONG, _OVERLONG + "x+1", "1," + _OVERLONG]),
)


def test_cli_forms_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {form[0] for form in _CLI_FORMS} == set(sub.choices)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CLI_FORMS), st.lists(_bad_tokens, min_size=4, max_size=4), st.booleans())
def test_cli_exits_cleanly_on_malformed_arguments(form, tokens, use_json):
    drawn = iter(tokens)
    argv = [next(drawn) if a in ("N", "T") else a for a in form]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main((["--json"] if use_json else []) + argv)
    assert code in (0, 1, 2), (argv, err.getvalue()[-300:])
    assert "Traceback" not in err.getvalue()


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_matches_the_full_parser(tmp_path, monkeypatch):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x^4 + x^2 + 1")
    # a valid value for each drawn token: a T by the option before it, the
    # first N is 9 and any later N is 3
    tokens = {"--xs": "1,1/2,3,-2,1,1,1,1,1", "--poly": "x^4 + x^2 + 1", "--file": str(poly_file),
              "--at": "-1/3", "--gens": "4,6,9"}
    corpus = [[], ["--help"], ["--json"], ["nosuch", "1"], ["-1", "phi", "5"], ["--", "phi", "5"],
              ["phi"], ["phi", "--help"], ["phi", "5", "--bogus"]]
    valid = []
    for form in _CLI_FORMS:
        sizes = iter(["9", "3", "3"])
        argv = [tokens[form[i - 1]] if a == "T" else next(sizes) if a == "N" else a for i, a in enumerate(form)]
        valid += [argv, ["--json"] + argv]
        corpus.append(argv + ["--json"])
    corpus += valid
    want = {tuple(argv): _capture(argv) for argv in corpus}
    # each form runs its command
    assert all(want[tuple(argv)][0] in (0, 1) for argv in valid)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    for argv in corpus:
        assert _capture(argv) == want[tuple(argv)], argv


def test_main_builds_only_the_parser_of_its_command(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["phi", "5"]) == 0
    assert built == ["cyclokit", "cyclokit phi"]
