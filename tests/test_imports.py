"""The lazy package namespace and the modules each CLI command loads.

Every check runs in a fresh interpreter, since this process has long since
imported the whole library.  The children start with -S, so that the only
modules they load beyond the interpreter's own are the ones asked for.
"""

import ast
import os
import subprocess
import sys

import cyclokit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyclokit.__file__)))

# the public namespace of cyclokit, by home module: the names of the days when
# every name was imported eagerly, plus kronecker.analytic_certificate
PUBLIC = {
    "combinat": (
        "bell_complete", "bell_partial", "bernoulli_minus", "bernoulli_plus", "exp_transform",
        "stirling_first", "stirling_second",
    ),
    "cyclocoeffs": (
        "coeff_all_methods", "coeff_bell", "coeff_direct", "coeff_moller", "coeff_prefix_recurrence",
        "coeff_taylor_from_one",
    ),
    "cycloderiv": (
        "CTable", "c_table", "log_deriv_inverse_cyclo_at_minus_one", "log_deriv_inverse_cyclo_at_zero",
        "log_deriv_phi_at_minus_one", "log_deriv_phi_at_one", "log_deriv_phi_at_zero",
        "normalized_derivative", "phi_derivs_at_minus_one", "phi_derivs_at_one",
        "phi_derivs_at_one_recurrence", "schwarzian_phi_at_one", "sigma_k",
    ),
    "errors": (
        "ConstructionError", "CyclokitError", "DomainError", "InputError", "InvariantError",
        "PoleError", "ResourceError",
    ),
    "kronecker": (
        "Certificate", "CycloFactorization", "ExcludedIndices", "analytic_certificate", "certify",
        "even_bound_check", "excluded_set", "factor_kronecker", "log_rows", "mu_C", "odd_identity_check",
        "sign_tests",
    ),
    "numtheory": (
        "alpha", "dedekind_psi", "euler_phi", "jordan_totient", "mobius", "prime_power_value",
        "ramanujan_sum",
    ),
    "polyring": (
        "IntPoly", "coxeter_poly", "cyclotomic", "cyclotomic_product", "eval_at_root_of_unity",
        "inverse_cyclotomic", "is_self_reciprocal", "log_derivative_row", "log_derivative_values",
        "norm_at_root_of_unity", "parse_poly", "poly_div_exact",
    ),
    "semigroup": (
        "NumericalSemigroup", "child_symmetric", "fk_gcd_pattern", "fk_no_other_cyclotomic_factors",
        "fk_poly", "fk_theorem_sweep", "from_generators", "is_cyclotomic", "is_symmetric",
        "noncyclotomic_symmetric_with_frobenius", "s_k", "semigroup_polynomial",
    ),
}

# each submodule imports only those before it, so in this order every one is
# reached through the package before anything has imported it
SUBMODULES = (
    "errors", "numtheory", "combinat", "polyring", "cycloderiv", "cyclocoeffs", "kronecker", "semigroup",
)


def _fresh(code: str):
    """The literal a fresh interpreter prints after running code."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return ast.literal_eval(proc.stdout)


def test_public_namespace_is_unchanged():
    assert sum(map(len, PUBLIC.values())) == 76 and set(SUBMODULES) == set(PUBLIC)
    for first in ("attribute", "from"):
        code = f"""
import sys
import cyclokit
bad = []
for sub in {SUBMODULES!r}:
    if "cyclokit." + sub in sys.modules:
        bad.append(("loaded before use", sub))
    if getattr(cyclokit, sub) is not sys.modules["cyclokit." + sub]:
        bad.append(("submodule", sub))
for home, names in {PUBLIC!r}.items():
    module = sys.modules["cyclokit." + home]
    for name in names:
        ns = {{}}
        if {first!r} == "from":
            exec("from cyclokit import " + name, ns)
        got = getattr(cyclokit, name)
        exec("from cyclokit import " + name, ns)
        if got is not getattr(module, name) or ns[name] is not got:
            bad.append(("name", name))
star = {{}}
exec("from cyclokit import *", star)
star.pop("__builtins__")
try:
    cyclokit.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(repr((bad, sorted(star), sorted(cyclokit.__all__), set(cyclokit.__all__) <= set(dir(cyclokit)), unknown)))
"""
        bad, star, all_names, in_dir, unknown = _fresh(code)
        want = sorted(set(SUBMODULES).union(*PUBLIC.values()))
        assert bad == [], first
        assert star == all_names == want
        assert in_dir
        assert unknown == "module 'cyclokit' has no attribute 'no_such_name'"


def _loaded_by(*commands):
    """cyclokit modules a fresh interpreter loads for import cyclokit, then
    for the commands run through the CLI; and whether json and dataclasses
    were among the modules the commands loaded."""
    code = f"""
import contextlib, io, sys
before = set(sys.modules)
import cyclokit
package = sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "cyclokit")
from cyclokit.cli import main
for argv in {list(commands)!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1), (argv, code)
loaded = set(sys.modules) - before
print(repr((package, sorted(m[9:] for m in loaded if m.startswith("cyclokit.")),
            "json" in loaded, "dataclasses" in loaded)))
"""
    return _fresh(code)


def test_import_cyclokit_loads_no_submodule():
    package, *_ = _loaded_by()
    assert package == ["cyclokit"]


def test_number_theory_commands_load_only_numtheory_and_polyring():
    _, modules, json_loaded, dataclasses_loaded = _loaded_by(
        ["phi", "105"], ["phi", "12", "--coeffs"], ["ramanujan", "2", "4"]
    )
    assert modules == ["cli", "errors", "numtheory", "polyring"]
    assert not json_loaded and not dataclasses_loaded


def test_jordan_loads_numtheory_and_the_index_guardrail():
    # K is refused above combinat.TABLE_INDEX_LIMIT
    _, modules, json_loaded, dataclasses_loaded = _loaded_by(["jordan", "2", "6"])
    assert modules == ["cli", "combinat", "errors", "numtheory"]
    assert not json_loaded and not dataclasses_loaded


def test_coeff_loads_cyclocoeffs_but_not_dataclasses():
    _, modules, json_loaded, dataclasses_loaded = _loaded_by(["--json", "coeff", "105", "7", "--method", "all"])
    assert "cyclocoeffs" in modules and "kronecker" not in modules
    assert json_loaded and not dataclasses_loaded


def test_closed_form_commands_load_neither_cyclocoeffs_nor_dataclasses():
    _, modules, json_loaded, dataclasses_loaded = _loaded_by(
        ["bernoulli", "4"],
        ["stirling", "1", "4", "2"],
        ["bellpoly", "partial", "4", "2", "--xs", "1,1,1"],
        ["logderiv", "phi", "6", "--at", "1", "--order", "2", "--check-oracle"],
        ["logderiv", "invphi", "9", "--at", "-1", "--order", "1"],
        ["logderiv", "poly", "--poly", "x^2 - x + 1", "--at", "1/2", "--order", "1"],
        ["schwarzian", "5"],
        ["tables", "c", "--max", "4"],
    )
    assert "cyclocoeffs" not in modules and "kronecker" not in modules
    assert not json_loaded and not dataclasses_loaded


def test_certify_commands_do_not_load_cyclocoeffs():
    # these load dataclasses with kronecker; tables factorization runs the
    # f_k sweep, which certifies
    _, modules, json_loaded, _ = _loaded_by(
        ["kronecker", "factor", "--poly", "x^2 - x + 1"],
        ["kronecker", "certify", "--poly", "1,-1,0,0,0,1,0,0,0,-1,1"],
        ["semigroup", "info", "--gens", "5,6,7,8"],
        ["semigroup", "cyclotomic", "--gens", "5,6,7,8"],
        ["fk", "gcd", "3"],
        ["fk", "certify", "7"],
        ["fk", "sweep", "--max", "6"],
        ["frobenius-family", "9"],
        ["tables", "factorization", "--max", "6"],
    )
    assert "cyclocoeffs" not in modules and "cycloderiv" not in modules
    assert json_loaded  # fk sweep prints its rows as JSON
