import json

from cyclokit.cli import main


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


def test_phi_guardrail(capsys):
    # phi(510510) = 92160 is fine; fake a huge one via the guardrail check
    code, _, err = run(capsys, "phi", "2000000011")  # prime, phi = n - 1 > 1e6
    assert code == 2
    assert "guardrail" in err


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

    from cyclokit import cli as cli_mod

    monkeypatch.setattr(
        cli_mod.cycloderiv, "log_deriv_phi_at_one", lambda n, k: Fraction(999)
    )
    code, _, err = run(capsys, "logderiv", "phi", "6", "--at", "1", "--order", "2", "--check-oracle")
    assert code == 3
    assert "disagrees with oracle" in err
