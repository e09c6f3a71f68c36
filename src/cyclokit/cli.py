"""Command-line surface for cyclokit.

Every value the library computes is reachable from here.  Output is plain
text by default; --json switches to a loss-free envelope in which every
exact rational is rendered as a "num/den" string.

Exit codes: 0 success or affirmative answer, 1 certified negative (for
example a non-Kronecker verdict), 2 input error, 3 internal invariant
violation.

A run builds the parser of its own command only, and its handler imports
the library modules it uses, so that one command loads only those.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import CyclokitError, InputError, InvariantError, check_guardrail, check_printable, int_str
from .errors import rat_str as _rat

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

# largest degree the certifying commands take (kronecker factor|certify,
# semigroup cyclotomic, fk gcd|certify and frobenius-family); at this limit,
# from a cold start, frobenius-family 5499 takes 1.4-1.5 s, fk certify 2750
# 1.1-1.5 s and kronecker certify of x^5500 + x + 1 1.0-1.5 s (Python 3.11,
# 2 vCPU, six runs each).  Library callers such as certify(cyclotomic(15015))
# are not bound by it.
CERTIFY_DEGREE_LIMIT = 5500


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        # a well-formed num/den that int() refused is past its length limit
        if num_den := re.fullmatch(r"[+-]?(\d+)(?:/(\d+))?", text.strip()):
            check_printable("a rational's digit count", max(len(part or "") for part in num_den.groups()))
        raise InputError(f"bad rational {text!r}; use integers or num/den") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _read_poly(args):
    from . import polyring

    if getattr(args, "poly", None):
        return polyring.parse_poly(args.poly)
    if getattr(args, "file", None):
        try:
            with open(args.file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.file!r}: {exc}") from None
        return polyring.parse_poly(text)
    raise InputError("provide a polynomial with --poly or --file")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, json_payload, text_lines)

def _cmd_phi(args):
    from . import polyring

    f = polyring.cyclotomic(args.n)
    if args.dump_coeffs:
        try:
            with open(args.dump_coeffs, "w") as fh:
                fh.write("index,coefficient\n" + "".join(f"{i},{c}\n" for i, c in enumerate(f.coeffs)))
        except OSError as exc:
            raise InputError(f"cannot write {args.dump_coeffs!r}: {exc}") from None
    text = polyring.format_poly_csv(f) if args.coeffs else polyring.format_poly(f)
    payload = {"n": args.n, "degree": f.degree, "coeffs": list(f.coeffs)}
    return EXIT_OK, payload, [text]


def _cmd_coeff(args):
    from . import cyclocoeffs

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
        lines = [int_str(value), "all methods agree"]
    else:
        value = routes[method](n, k)
        lines = [int_str(value)]
    return EXIT_OK, {"n": n, "k": k, "method": method, "value": value}, lines


def _cmd_ramanujan(args):
    from . import numtheory

    v = numtheory.ramanujan_sum(args.k, args.n)
    return EXIT_OK, {"k": args.k, "n": args.n, "value": v}, [int_str(v)]


def _cmd_jordan(args):
    from . import combinat, numtheory

    k, n = args.k, args.n
    combinat.check_table_index(k)
    v = numtheory.jordan_totient(k, n)
    return EXIT_OK, {"k": k, "n": n, "value": v}, [int_str(v)]


def _cmd_bernoulli(args):
    from . import combinat

    v = combinat.bernoulli_minus(args.k) if args.minus else combinat.bernoulli_plus(args.k)
    return EXIT_OK, {"k": args.k, "minus": args.minus, "value": _rat(v)}, [_rat(v)]


def _cmd_stirling(args):
    from . import combinat

    if args.kind == "1":
        v = combinat.stirling_first(args.k, args.j)
    else:
        v = combinat.stirling_second(args.k, args.j)
    return EXIT_OK, {"kind": args.kind, "k": args.k, "j": args.j, "value": v}, [int_str(v)]


def _cmd_bellpoly(args):
    from . import combinat

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
    from . import cycloderiv

    # a Fraction point hashes and compares like the int it equals
    closed = {
        ("phi", 0): cycloderiv.log_deriv_phi_at_zero,
        ("phi", 1): cycloderiv.log_deriv_phi_at_one,
        ("phi", -1): cycloderiv.log_deriv_phi_at_minus_one,
        ("invphi", 0): cycloderiv.log_deriv_inverse_cyclo_at_zero,
        ("invphi", -1): cycloderiv.log_deriv_inverse_cyclo_at_minus_one,
    }.get((family, at))
    return None if closed is None else closed(n, k)


def _cmd_logderiv(args):
    from . import combinat, polyring

    k = args.order
    if k < 1:
        raise InputError(f"logderiv order must be >= 1, got {k}")
    # every route reads Stirling rows or grows values to about k! at order k,
    # so all of them refuse the orders the Stirling tables refuse
    combinat.check_table_index(k)
    at = _parse_rational(args.at)
    closed = None
    if args.family != "poly":
        if args.n is None:
            raise InputError(f"logderiv {args.family} needs the index N")
        closed = _closed_form_logderiv(args.family, args.n, at, k)
    value = closed
    # a closed form needs no polynomial; only the oracle builds one
    if closed is None or args.check_oracle:
        if args.family == "poly":
            f = _read_poly(args)
        elif args.family == "phi":
            f = polyring.cyclotomic(args.n)
        else:
            f = polyring.inverse_cyclotomic(args.n)
        value = polyring.log_derivative_values(f, k, at)[-1]
        if closed is not None and value != closed:
            raise InvariantError(f"closed form {_rat(closed)} disagrees with oracle {_rat(value)}")
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
    from . import cycloderiv

    v = cycloderiv.schwarzian_phi_at_one(args.n)
    return EXIT_OK, {"n": args.n, "value": _rat(v)}, [_rat(v)]


def _describe_factorization(fac) -> str:
    from . import polyring

    parts = [f"x^{fac.e0}"] if fac.e0 else []
    parts += [f"Phi_{d}" + (f"^{e}" if e > 1 else "") for d, e in sorted(fac.factors.items())]
    if not fac.is_kronecker:
        parts.append(f"({polyring.format_poly(fac.remainder)})")
    return " * ".join(parts) if parts else "1"


def _certificate_result(cert):
    # (exit code, JSON payload, text lines) of a certifying command
    lines = [f"verdict: {cert.verdict}"]
    if cert.reason:
        lines.append(f"reason: {cert.reason}" + (f" (k={cert.k})" if cert.k else ""))
    if cert.witnesses:
        lines.append("witnesses: " + ", ".join(_rat(w) for w in cert.witnesses))
    if cert.factorization is not None:
        lines.append("factorization: " + _describe_factorization(cert.factorization))
    return EXIT_OK if cert.is_kronecker else EXIT_NEGATIVE, cert.to_json_obj(), lines


def _cmd_kronecker(args):
    from . import kronecker

    f = _read_poly(args)
    _check_certify_degree(f.degree)
    if args.action == "factor":
        fac = kronecker.factor_kronecker(f)
        return EXIT_OK, fac.to_json_obj(), [_describe_factorization(fac)]
    return _certificate_result(kronecker.certify(f))


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad generator list {text!r}") from None


def _check_certify_degree(degree: int) -> None:
    # the certifying commands refuse before the polynomial is built or factored
    check_guardrail("degree", degree, "CERTIFY_DEGREE_LIMIT", CERTIFY_DEGREE_LIMIT)


def _cmd_semigroup(args):
    from . import polyring, semigroup

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
    # P_S has degree F + 1
    _check_certify_degree(S.frobenius + 1)
    code, payload, lines = _certificate_result(semigroup.is_cyclotomic(S))
    return code, payload, ["cyclotomic" if code == EXIT_OK else "not cyclotomic"] + lines


def _cmd_fk(args):
    from . import kronecker, semigroup

    if args.action in ("gcd", "certify"):
        if args.k is None:
            raise InputError(f"fk {args.action} needs the index k")
        _check_certify_degree(2 * args.k)
    if args.action == "gcd":
        pattern = semigroup.fk_gcd_pattern(args.k)
        text = " * ".join(f"Phi_{d}" for d in pattern) if pattern else "1"
        return EXIT_OK, {"k": args.k, "gcd": list(pattern)}, [text]
    if args.action == "certify":
        return _certificate_result(kronecker.certify(semigroup.fk_poly(args.k)))
    import json

    rows = semigroup.fk_theorem_sweep(args.max)
    lines = [json.dumps(row) for row in rows]
    return EXIT_OK, {"rows": rows}, lines


def _cmd_frobenius_family(args):
    from . import semigroup

    # the semigroup polynomial certified at the end has degree F + 1
    _check_certify_degree(args.f + 1)
    S = semigroup.noncyclotomic_symmetric_with_frobenius(args.f)
    gens = ",".join(str(g) for g in S.minimal_generators)
    payload = S.to_json_obj()
    payload["verified"] = "symmetric, Frobenius matches, not cyclotomic"
    return EXIT_OK, payload, [gens]


def _cmd_tables(args):
    if args.which == "c":
        from . import combinat, cycloderiv

        # row k needs the Stirling row k, so refuse before building row 1
        combinat.check_table_index(args.max)
        rows = []
        lines = []
        for k in range(1, args.max + 1):
            entries = cycloderiv.c_table(k).entries
            rows.append({"k": k, "c": [_rat(c) for c in entries]})
            lines.append(f"k={k}: " + ", ".join(_rat(c) for c in entries))
        return EXIT_OK, {"rows": rows}, lines
    from . import semigroup

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


def _arg(*flags, **kwargs):
    return flags, kwargs


# name -> (help, handler, argument specs): the one source of the parser and
# of the dispatch in main
_COMMANDS = {
    "phi": ("n-th cyclotomic polynomial", _cmd_phi, (
        _arg("n", type=int),
        _arg("--coeffs", action="store_true", help="print the CSV coefficient list"),
        _arg("--dump-coeffs", metavar="FILE", help="write index,coefficient CSV"),
    )),
    "coeff": ("coefficient a_n(k) by any route", _cmd_coeff, (
        _arg("n", type=int),
        _arg("k", type=int),
        _arg("--method", choices=["direct", "moller", "recurrence", "bell", "taylor1", "all"], default="direct"),
    )),
    "ramanujan": ("Ramanujan sum r_k(n)", _cmd_ramanujan, (_arg("k", type=int), _arg("n", type=int))),
    "jordan": ("Jordan totient J_k(n)", _cmd_jordan, (_arg("k", type=int), _arg("n", type=int))),
    "bernoulli": ("Bernoulli number B_k^+ (or B_k^- with --minus)", _cmd_bernoulli, (
        _arg("k", type=int),
        _arg("--minus", action="store_true"),
    )),
    "stirling": ("Stirling number of the first or second kind", _cmd_stirling, (
        _arg("kind", choices=["1", "2"]),
        _arg("k", type=int),
        _arg("j", type=int),
    )),
    "bellpoly": ("partial or complete Bell polynomial", _cmd_bellpoly, (
        _arg("variant", choices=["partial", "complete"]),
        _arg("k", type=int),
        _arg("j", type=int, nargs="?", default=None),
        _arg("--xs", required=True, help="comma-separated rational arguments"),
    )),
    "logderiv": ("k-th logarithmic derivative", _cmd_logderiv, (
        _arg("family", choices=["phi", "invphi", "poly"]),
        _arg("n", type=int, nargs="?", default=None),
        _arg("--poly", dest="poly", help="polynomial (for family 'poly')"),
        _arg("--file", dest="file", help="file containing the polynomial"),
        _arg("--at", required=True, help="evaluation point: 0, 1, -1 or a rational"),
        _arg("--order", type=int, required=True),
        _arg("--check-oracle", action="store_true"),
    )),
    "schwarzian": ("Schwarzian derivative of Phi_n at 1", _cmd_schwarzian, (_arg("n", type=int),)),
    "kronecker": ("factor or certify a polynomial", _cmd_kronecker, (
        _arg("action", choices=["factor", "certify"]),
        _arg("--poly"),
        _arg("--file"),
    )),
    "semigroup": ("numerical semigroup queries", _cmd_semigroup, (
        _arg("action", choices=["info", "symmetric", "cyclotomic", "polynomial"]),
        _arg("--gens", required=True, help="comma-separated generators"),
    )),
    "fk": ("the gap family f_k = 1 - x + x^k - x^(2k-1) + x^(2k)", _cmd_fk, (
        _arg("action", choices=["gcd", "certify", "sweep"]),
        _arg("k", type=int, nargs="?", default=None),
        _arg("--max", type=int, default=18, help="sweep upper bound"),
    )),
    "frobenius-family": (
        "symmetric non-cyclotomic semigroup with the given odd Frobenius number",
        _cmd_frobenius_family,
        (_arg("f", type=int),),
    ),
    "tables": ("reproduce the coefficient or factorization tables", _cmd_tables, (
        _arg("which", choices=["c", "factorization"]),
        _arg("--max", type=int, required=True),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The cyclokit parser.  Given a known command, only that command's
    subparser is built; the usage line still lists every command."""
    top = _Parser(prog="cyclokit", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit a JSON envelope")
    names = list(_COMMANDS)
    metavar = None
    if command in _COMMANDS:
        # the usage line names every command; no message names the action
        # once its choice is known
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, specs = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
    return top


def _command_of(argv: list[str]) -> str | None:
    # the command argparse dispatches to, when only --json comes before it;
    # any other leading token (-h among them, which prints every command's
    # help) leaves it open, and then every subparser is built
    for token in argv:
        if token != "--json":
            return token
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(_command_of(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        code, payload, lines = _COMMANDS[args.command][1](args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CyclokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        import json

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
