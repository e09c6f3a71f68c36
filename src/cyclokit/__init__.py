"""Exact arithmetic for cyclotomic polynomials and their applications:
coefficient formulas, higher logarithmic derivatives, Kronecker polynomial
certification and cyclotomic numerical semigroups.

The submodules and the names below load on first use (PEP 562), so that a
caller, the CLI in particular, pays only for the modules it touches."""

from importlib import import_module as _import_module

_EXPORTS = {
    "combinat": (
        "bell_complete",
        "bell_partial",
        "bernoulli_minus",
        "bernoulli_plus",
        "exp_transform",
        "stirling_first",
        "stirling_second",
    ),
    "cyclocoeffs": (
        "coeff_all_methods",
        "coeff_bell",
        "coeff_direct",
        "coeff_moller",
        "coeff_prefix_recurrence",
        "coeff_taylor_from_one",
    ),
    "cycloderiv": (
        "CTable",
        "c_table",
        "log_deriv_inverse_cyclo_at_minus_one",
        "log_deriv_inverse_cyclo_at_zero",
        "log_deriv_phi_at_minus_one",
        "log_deriv_phi_at_one",
        "log_deriv_phi_at_zero",
        "normalized_derivative",
        "phi_derivs_at_minus_one",
        "phi_derivs_at_one",
        "phi_derivs_at_one_recurrence",
        "schwarzian_phi_at_one",
        "sigma_k",
    ),
    "errors": (
        "ConstructionError",
        "CyclokitError",
        "DomainError",
        "InputError",
        "InvariantError",
        "PoleError",
        "ResourceError",
    ),
    "kronecker": (
        "Certificate",
        "CycloFactorization",
        "ExcludedIndices",
        "analytic_certificate",
        "certify",
        "even_bound_check",
        "excluded_set",
        "factor_kronecker",
        "log_rows",
        "mu_C",
        "odd_identity_check",
        "sign_tests",
    ),
    "numtheory": (
        "alpha",
        "dedekind_psi",
        "euler_phi",
        "jordan_totient",
        "mobius",
        "prime_power_value",
        "ramanujan_sum",
    ),
    "polyring": (
        "IntPoly",
        "coxeter_poly",
        "cyclotomic",
        "cyclotomic_product",
        "eval_at_root_of_unity",
        "inverse_cyclotomic",
        "is_self_reciprocal",
        "log_derivative_row",
        "log_derivative_values",
        "norm_at_root_of_unity",
        "parse_poly",
        "poly_div_exact",
    ),
    "semigroup": (
        "NumericalSemigroup",
        "child_symmetric",
        "fk_gcd_pattern",
        "fk_no_other_cyclotomic_factors",
        "fk_poly",
        "fk_theorem_sweep",
        "from_generators",
        "is_cyclotomic",
        "is_symmetric",
        "noncyclotomic_symmetric_with_frobenius",
        "s_k",
        "semigroup_polynomial",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS) + sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
