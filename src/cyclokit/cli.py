"""Command-line surface for cyclokit.

Every value the library computes is reachable from here.  Output is plain
text by default; --json switches to a loss-free envelope in which every
exact rational is rendered as a "num/den" string.

Exit codes: 0 success or affirmative answer, 1 certified negative (for
example a non-Kronecker verdict), 2 input error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import combinat, cyclocoeffs, cycloderiv, kronecker, numtheory, polyring, semigroup
from .errors import CyclokitError, InputError, InvariantError
from .kronecker import _rat_str as _rat
from .polyring import IntPoly

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational {text!r}; use integers or num/den") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _read_poly(args) -> IntPoly:
    if getattr(args, "poly", None):
        return polyring.parse_poly(args.poly)
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return polyring.parse_poly(fh.read())
    raise InputError("provide a polynomial with --poly or --file")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, json_payload, text_lines)

def _cmd_phi(args):
    phi_n = numtheory.euler_phi(args.n)
    if phi_n > polyring.DEGREE_GUARDRAIL and not args.force:
        from .errors import ResourceError

        raise ResourceError(
            f"phi({args.n}) = {phi_n} exceeds the guardrail; pass --force to proceed"
        )
    f = polyring.cyclotomic(args.n)
    if args.dump_coeffs:
        with open(args.dump_coeffs, "w") as fh:
            fh.write("index,coefficient\n")
            for i, c in enumerate(f.coeffs):
                fh.write(f"{i},{c}\n")
    text = polyring.format_poly_csv(f) if args.coeffs else polyring.format_poly(f)
    payload = {"n": args.n, "degree": f.degree, "coeffs": list(f.coeffs)}
    return EXIT_OK, payload, [text]


def _cmd_coeff(args):
    n, k, method = args.n, args.k, args.method
    routes = {
        "direct": cyclocoeffs.coeff_direct,
        "moller": cyclocoeffs.coeff_moller,
        "bell": cyclocoeffs.coeff_bell,
        "recurrence": lambda n, k: cyclocoeffs.coeff_prefix_recurrence(n, k)[k],
        "taylor1": cyclocoeffs.coeff_taylor_from_one,
    }
    if method == "all":
        value = cyclocoeffs.coeff_all_methods(n, k)
        lines = [str(value), "all methods agree"]
    else:
        value = routes[method](n, k)
        lines = [str(value)]
    return EXIT_OK, {"n": n, "k": k, "method": method, "value": value}, lines


def _cmd_ramanujan(args):
    v = numtheory.ramanujan_sum(args.k, args.n)
    return EXIT_OK, {"k": args.k, "n": args.n, "value": v}, [str(v)]


def _cmd_jordan(args):
    v = numtheory.jordan_totient(args.k, args.n)
    return EXIT_OK, {"k": args.k, "n": args.n, "value": v}, [str(v)]


def _cmd_bernoulli(args):
    v = combinat.bernoulli_minus(args.k) if args.minus else combinat.bernoulli_plus(args.k)
    return EXIT_OK, {"k": args.k, "minus": args.minus, "value": _rat(v)}, [_rat(v)]


def _cmd_stirling(args):
    if args.kind == "1":
        v = combinat.stirling_first(args.k, args.j)
    else:
        v = combinat.stirling_second(args.k, args.j)
    return EXIT_OK, {"kind": args.kind, "k": args.k, "j": args.j, "value": v}, [str(v)]


def _cmd_bellpoly(args):
    xs = _parse_rational_list(args.xs)
    if args.variant == "partial":
        if args.j is None:
            raise InputError("bellpoly partial needs K J")
        v = combinat.bell_partial(args.k, args.j, xs)
    else:
        v = Fraction(combinat.bell_complete(args.k, xs))
    payload = {"variant": args.variant, "k": args.k, "j": args.j, "value": _rat(v)}
    return EXIT_OK, payload, [_rat(v)]


def _closed_form_logderiv(family: str, n: int, at: Fraction, k: int):
    if family == "phi":
        if at == 0:
            return cycloderiv.log_deriv_phi_at_zero(n, k)
        if at == 1:
            return cycloderiv.log_deriv_phi_at_one(n, k)
        if at == -1:
            return cycloderiv.log_deriv_phi_at_minus_one(n, k)
    elif family == "invphi":
        if at == 0:
            return cycloderiv.log_deriv_inverse_cyclo_at_zero(n, k)
        if at == -1:
            return cycloderiv.log_deriv_inverse_cyclo_at_minus_one(n, k)
    return None


def _cmd_logderiv(args):
    at = _parse_rational(args.at)
    k = args.order
    if args.family == "poly":
        f = _read_poly(args)
        value = polyring.log_derivative_oracle(f, k, at)
        closed = None
    else:
        if args.n is None:
            raise InputError(f"logderiv {args.family} needs the index N")
        f = polyring.cyclotomic(args.n) if args.family == "phi" else polyring.inverse_cyclotomic(args.n)
        closed = _closed_form_logderiv(args.family, args.n, at, k)
        value = closed if closed is not None else polyring.log_derivative_oracle(f, k, at)
    if args.check_oracle:
        oracle = polyring.log_derivative_oracle(f, k, at)
        if oracle != value:
            raise InvariantError(
                f"closed form {_rat(value)} disagrees with oracle {_rat(oracle)}"
            )
    payload = {
        "family": args.family,
        "n": args.n,
        "at": _rat(at),
        "order": k,
        "value": _rat(value),
        "closed_form": closed is not None,
    }
    return EXIT_OK, payload, [_rat(value)]


def _cmd_schwarzian(args):
    v = cycloderiv.schwarzian_phi_at_one(args.n)
    return EXIT_OK, {"n": args.n, "value": _rat(v)}, [_rat(v)]


def _describe_factorization(fac: kronecker.CycloFactorization) -> str:
    parts = [f"x^{fac.e0}"] if fac.e0 else []
    parts += [f"Phi_{d}" + (f"^{e}" if e > 1 else "") for d, e in sorted(fac.factors.items())]
    if fac.remainder != IntPoly((1,)):
        parts.append(f"({polyring.format_poly(fac.remainder)})")
    return " * ".join(parts) if parts else "1"


def _describe_certificate(cert: kronecker.Certificate) -> list[str]:
    lines = [f"verdict: {cert.verdict}"]
    if cert.reason:
        lines.append(f"reason: {cert.reason}" + (f" (k={cert.k})" if cert.k else ""))
    if cert.witnesses:
        lines.append("witnesses: " + ", ".join(_rat(w) for w in cert.witnesses))
    if cert.factorization is not None:
        lines.append("factorization: " + _describe_factorization(cert.factorization))
    return lines


def _cmd_kronecker(args):
    f = _read_poly(args)
    if args.action == "factor":
        fac = kronecker.factor_kronecker(f)
        return EXIT_OK, fac.to_json_obj(), [_describe_factorization(fac)]
    cert = kronecker.certify(f)
    code = EXIT_OK if cert.is_kronecker else EXIT_NEGATIVE
    return code, cert.to_json_obj(), _describe_certificate(cert)


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad generator list {text!r}") from None


def _cmd_semigroup(args):
    S = semigroup.from_generators(_parse_gens(args.gens))
    if args.action == "info":
        info = S.to_json_obj()
        lines = [f"{key}: {value}" for key, value in info.items()]
        return EXIT_OK, info, lines
    if args.action == "symmetric":
        sym = semigroup.is_symmetric(S)
        return (
            EXIT_OK if sym else EXIT_NEGATIVE,
            {"symmetric": sym},
            ["symmetric" if sym else "not symmetric"],
        )
    if args.action == "polynomial":
        P = semigroup.semigroup_polynomial(S)
        return EXIT_OK, {"coeffs": list(P.coeffs)}, [polyring.format_poly(P)]
    cert = semigroup.is_cyclotomic(S)
    code = EXIT_OK if cert.is_kronecker else EXIT_NEGATIVE
    lines = ["cyclotomic" if cert.is_kronecker else "not cyclotomic"]
    lines += _describe_certificate(cert)
    return code, cert.to_json_obj(), lines


def _cmd_fk(args):
    if args.action == "gcd":
        pattern = semigroup.fk_gcd_pattern(args.k)
        text = " * ".join(f"Phi_{d}" for d in pattern) if pattern else "1"
        return EXIT_OK, {"k": args.k, "gcd": list(pattern)}, [text]
    if args.action == "certify":
        cert = kronecker.certify(semigroup.fk_poly(args.k))
        code = EXIT_OK if cert.is_kronecker else EXIT_NEGATIVE
        return code, cert.to_json_obj(), _describe_certificate(cert)
    rows = semigroup.fk_theorem_sweep(args.max)
    lines = [json.dumps(row) for row in rows]
    return EXIT_OK, {"rows": rows}, lines


def _cmd_frobenius_family(args):
    S = semigroup.noncyclotomic_symmetric_with_frobenius(args.f)
    gens = ",".join(str(g) for g in S.minimal_generators)
    payload = S.to_json_obj()
    payload["verified"] = "symmetric, Frobenius matches, not cyclotomic"
    return EXIT_OK, payload, [gens]


def _cmd_tables(args):
    if args.which == "c":
        rows = []
        lines = []
        for k in range(1, args.max + 1):
            entries = cycloderiv.c_table(k).entries
            rows.append({"k": k, "c": [_rat(c) for c in entries]})
            lines.append(f"k={k}: " + ", ".join(_rat(c) for c in entries))
        return EXIT_OK, {"rows": rows}, lines
    rows = semigroup.fk_theorem_sweep(args.max)
    lines = []
    for row in rows:
        fac = row["factorization"]
        parts = [f"Phi_{d}" + (f"^{e}" if e > 1 else "") for d, e in sorted(
            ((int(d), e) for d, e in fac["factors"].items())
        )]
        if len(fac["remainder"]) > 1 and parts:
            parts.append(f"(f_{row['k']} / gcd)")
        lines.append(f"k={row['k']}: " + (" ".join(parts) if parts else f"f_{row['k']}"))
    return EXIT_OK, {"rows": rows}, lines


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse takes a token that starts with "-" for an option unless it looks
    # like -12 or -1.5; values such as --at -1/3 and --xs -3/5,-4/2 need the
    # wider test that Python 3.13's argparse applies
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cyclokit", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="n-th cyclotomic polynomial")
    p.add_argument("n", type=int)
    p.add_argument("--coeffs", action="store_true", help="print the CSV coefficient list")
    p.add_argument("--poly", action="store_true", help="print the human form (default)")
    p.add_argument("--dump-coeffs", metavar="FILE", help="write index,coefficient CSV")
    p.add_argument("--force", action="store_true", help="ignore the degree guardrail")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("coeff", help="coefficient a_n(k) by any route")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument(
        "--method",
        choices=["direct", "moller", "recurrence", "bell", "taylor1", "all"],
        default="direct",
    )
    p.set_defaults(handler=_cmd_coeff)

    p = sub.add_parser("ramanujan", help="Ramanujan sum r_k(n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_ramanujan)

    p = sub.add_parser("jordan", help="Jordan totient J_k(n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_jordan)

    p = sub.add_parser("bernoulli", help="Bernoulli number B_k^+ (or B_k^- with --minus)")
    p.add_argument("k", type=int)
    p.add_argument("--minus", action="store_true")
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("stirling", help="Stirling number of the first or second kind")
    p.add_argument("kind", choices=["1", "2"])
    p.add_argument("k", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("bellpoly", help="partial or complete Bell polynomial")
    p.add_argument("variant", choices=["partial", "complete"])
    p.add_argument("k", type=int)
    p.add_argument("j", type=int, nargs="?", default=None)
    p.add_argument("--xs", required=True, help="comma-separated rational arguments")
    p.set_defaults(handler=_cmd_bellpoly)

    p = sub.add_parser("logderiv", help="k-th logarithmic derivative")
    p.add_argument("family", choices=["phi", "invphi", "poly"])
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument("--poly", dest="poly", help="polynomial (for family 'poly')")
    p.add_argument("--file", dest="file", help="file containing the polynomial")
    p.add_argument("--at", required=True, help="evaluation point: 0, 1, -1 or a rational")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(handler=_cmd_logderiv)

    p = sub.add_parser("schwarzian", help="Schwarzian derivative of Phi_n at 1")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_schwarzian)

    p = sub.add_parser("kronecker", help="factor or certify a polynomial")
    p.add_argument("action", choices=["factor", "certify"])
    p.add_argument("--poly")
    p.add_argument("--file")
    p.set_defaults(handler=_cmd_kronecker)

    p = sub.add_parser("semigroup", help="numerical semigroup queries")
    p.add_argument("action", choices=["info", "symmetric", "cyclotomic", "polynomial"])
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("fk", help="the gap family f_k = 1 - x + x^k - x^(2k-1) + x^(2k)")
    p.add_argument("action", choices=["gcd", "certify", "sweep"])
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--max", type=int, default=18, help="sweep upper bound")
    p.set_defaults(handler=_cmd_fk)

    p = sub.add_parser(
        "frobenius-family",
        help="symmetric non-cyclotomic semigroup with the given odd Frobenius number",
    )
    p.add_argument("f", type=int)
    p.set_defaults(handler=_cmd_frobenius_family)

    p = sub.add_parser("tables", help="reproduce the coefficient or factorization tables")
    p.add_argument("which", choices=["c", "factorization"])
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_tables)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        if args.command == "fk" and args.action in ("gcd", "certify") and args.k is None:
            raise InputError(f"fk {args.action} needs the index k")
        code, payload, lines = args.handler(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CyclokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        envelope = {"command": args.command, "result": payload}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
