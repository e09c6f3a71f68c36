"""Exact arithmetic for cyclotomic polynomials and their applications:
coefficient formulas, higher logarithmic derivatives, Kronecker polynomial
certification and cyclotomic numerical semigroups."""

from .combinat import (
    bell_complete,
    bell_partial,
    bernoulli_minus,
    bernoulli_plus,
    exp_transform,
    stirling_first,
    stirling_second,
)
from .cyclocoeffs import (
    coeff_all_methods,
    coeff_bell,
    coeff_direct,
    coeff_moller,
    coeff_prefix_recurrence,
    coeff_taylor_from_one,
)
from .cycloderiv import (
    CTable,
    c_table,
    log_deriv_inverse_cyclo_at_minus_one,
    log_deriv_inverse_cyclo_at_zero,
    log_deriv_phi_at_minus_one,
    log_deriv_phi_at_one,
    log_deriv_phi_at_zero,
    normalized_derivative,
    phi_derivs_at_minus_one,
    phi_derivs_at_one,
    phi_derivs_at_one_recurrence,
    schwarzian_phi_at_one,
    sigma_k,
)
from .errors import (
    ConstructionError,
    CyclokitError,
    DomainError,
    InputError,
    InvariantError,
    PoleError,
    ResourceError,
)
from .kronecker import (
    Certificate,
    CycloFactorization,
    ExcludedIndices,
    certify,
    even_bound_check,
    excluded_set,
    factor_kronecker,
    log_rows,
    mu_C,
    odd_identity_check,
    sign_tests,
)
from .numtheory import (
    alpha,
    dedekind_psi,
    euler_phi,
    jordan_totient,
    mobius,
    prime_power_value,
    ramanujan_sum,
)
from .polyring import (
    IntPoly,
    coxeter_poly,
    cyclotomic,
    cyclotomic_product,
    eval_at_root_of_unity,
    inverse_cyclotomic,
    is_self_reciprocal,
    log_derivative_oracle,
    log_derivative_values,
    norm_at_root_of_unity,
    parse_poly,
    poly_div_exact,
)
from .semigroup import (
    NumericalSemigroup,
    child_symmetric,
    fk_gcd_pattern,
    fk_no_other_cyclotomic_factors,
    fk_poly,
    fk_theorem_sweep,
    from_generators,
    is_cyclotomic,
    is_symmetric,
    noncyclotomic_symmetric_with_frobenius,
    s_k,
    semigroup_polynomial,
)

__version__ = "0.1.0"
