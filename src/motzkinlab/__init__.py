"""Motzkin numbers modulo small moduli.

Exact engines for the Motzkin sequence, a digit automaton that gives M(n)
mod m at any index, digit classifiers that decide residue classes mod 2, 4,
8, 3 and 5 from the index alone, and a density laboratory that compares
exact limit densities with finite-horizon counts.
"""

from .automaton import motzkin_mod_at
from .checks import SUPPORTED_MODULI, VerificationReport, verify_classifiers
from .classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    Div5Classification,
    Div5Witness,
    Mod8Classification,
    Mod8Kind,
    Mod8Witness,
    SetSpec,
    ValuationDecomposition,
    classify_div5,
    classify_mod3,
    classify_mod8,
    factor_out_base,
    is_in_set,
    is_t01,
)
from .density import (
    DensityReport,
    closed_density,
    count_class_in_range,
    count_error_bound,
    count_set_exact,
    count_t01_upto,
    density_limit,
    density_table,
    empirical_density,
    empirical_residue_distribution,
    set_density,
)
from .engines import (
    CEILING_ENV_VAR,
    DEFAULT_CEILING,
    CrossValidationReport,
    ExactDivisionError,
    ResidueStream,
    ResourceLimitError,
    cross_validate_engines,
    ensure_within_ceiling,
    iter_motzkin_exact,
    motzkin_exact,
    motzkin_exact_stream,
    motzkin_mod_stream,
    resolve_ceiling,
)

__version__ = "0.1.0"

__all__ = [
    "CEILING_ENV_VAR",
    "DEFAULT_CEILING",
    "DIV5_FORM_SPECS",
    "MOD8_CLASS_SPECS",
    "SUPPORTED_MODULI",
    "CrossValidationReport",
    "DensityReport",
    "Div5Classification",
    "Div5Witness",
    "ExactDivisionError",
    "Mod8Classification",
    "Mod8Kind",
    "Mod8Witness",
    "ResidueStream",
    "ResourceLimitError",
    "SetSpec",
    "ValuationDecomposition",
    "VerificationReport",
    "classify_div5",
    "classify_mod3",
    "classify_mod8",
    "closed_density",
    "count_class_in_range",
    "count_error_bound",
    "count_set_exact",
    "count_t01_upto",
    "cross_validate_engines",
    "density_limit",
    "density_table",
    "empirical_density",
    "empirical_residue_distribution",
    "ensure_within_ceiling",
    "factor_out_base",
    "is_in_set",
    "is_t01",
    "iter_motzkin_exact",
    "motzkin_exact",
    "motzkin_exact_stream",
    "motzkin_mod_at",
    "motzkin_mod_stream",
    "resolve_ceiling",
    "set_density",
    "verify_classifiers",
]
