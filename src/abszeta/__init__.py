"""Absolute zeta functions over F1 with exact symbolic algebra and a
numerically cross-checked engine for gamma/sine functions of negative order.

The exact layer keeps counting functions (which are the Hurwitz-type forms
too) and zeta power products in one canonical rational term map, reads the
named schemes from a single table, and decides functional equations by
factor-map algebra.  The numeric layer sums the defining series (with tail
elimination), evaluates the independent integral representations, and
computes the classical Hurwitz zeta and log-gamma to cross-check both.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .counting import (CountingFunction, ONE, U, U_MINUS_ONE, ZERO, eval_at,
                       normalize, oplus, otimes, tensor_power)
from .errors import (AbsZetaError, BranchCutWarning, ConvergenceError, DomainError,
                     NoFunctionalEquationError, ParameterRangeError, ParseError,
                     PoleError, PreconditionError, UnknownSchemeError)
from .gammasine import (MultiGammaSpec, PeriodVector, multiperiod_gamma,
                        multiperiod_sine, neg_gamma, neg_sine,
                        tensor_power_fe_check)
from .catalog import (SchemeSpec, catalog_entries, counting_of, fe_params_of,
                      gl, gm, gm_tensor, sl, spec_f1, zeta_of_scheme)
from .numerics import (SeriesSettings, binomial_identity_sum, classical_hurwitz,
                       euler_reflection_check, gamma_integral, gamma_series,
                       log_gamma_one, log_zeta_integral, monomial_kernel_check,
                       vanishing_check, zeta_series, zeta_series_exact)
from .parser import parse_expr, parse_scheme
from .quadrature import QuadSettings
from .rationals import Rational, as_rational, qstr
from .reports import CheckReport
from .symzeta import (FEParams, FEReport, PowerProduct, check_functional_equation,
                      eval_hurwitz, eval_power_product, hurwitz_str, reflected,
                      zeta_of)

__all__ = [
    "__version__",
    # counting
    "CountingFunction", "ZERO", "ONE", "U", "U_MINUS_ONE",
    "normalize", "oplus", "otimes", "tensor_power", "eval_at",
    # errors
    "AbsZetaError", "ParseError", "UnknownSchemeError", "DomainError",
    "PoleError", "PreconditionError", "ParameterRangeError",
    "NoFunctionalEquationError", "ConvergenceError", "BranchCutWarning",
    # symbolic zeta
    "PowerProduct", "FEParams", "FEReport", "hurwitz_str", "zeta_of",
    "eval_hurwitz", "eval_power_product", "reflected", "check_functional_equation",
    # gamma / sine
    "PeriodVector", "MultiGammaSpec", "neg_gamma", "neg_sine",
    "multiperiod_gamma", "multiperiod_sine", "tensor_power_fe_check",
    # catalog
    "SchemeSpec", "spec_f1", "gm", "gm_tensor", "sl", "gl",
    "counting_of", "zeta_of_scheme", "fe_params_of", "catalog_entries",
    # numerics
    "SeriesSettings", "QuadSettings", "zeta_series", "zeta_series_exact",
    "gamma_series", "gamma_integral",
    "monomial_kernel_check", "log_zeta_integral", "vanishing_check",
    "binomial_identity_sum", "classical_hurwitz", "log_gamma_one",
    "euler_reflection_check",
    # misc
    "Rational", "as_rational", "qstr", "CheckReport",
    "parse_expr", "parse_scheme",
]
