"""Rankin-Cohen brackets on truncated q-expansions and special values
of the adjoint-map coefficient formula."""

from .qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    make_eisenstein,
    make_eta_product,
    make_theta,
)
from .bracket import (
    BracketParams,
    rc_bracket,
    rc_coefficient,
    series_mul,
)
from .forms import catalog_get
from .adjoint import (
    CaseId,
    TailProfile,
    adjoint_case,
    adjoint_coefficients,
    beta_value,
    case_id,
    fit_tail_profile,
    gamma_s,
    validate_hypotheses,
)
from .verify import RatioReport, lambda_test, ratio_test

__version__ = "0.1.0"

__all__ = [
    "BracketParams",
    "CaseId",
    "CharacterMod4",
    "FormMeta",
    "QSeries",
    "RatioReport",
    "TailProfile",
    "adjoint_case",
    "adjoint_coefficients",
    "beta_value",
    "case_id",
    "catalog_get",
    "fit_tail_profile",
    "gamma_s",
    "lambda_test",
    "make_eisenstein",
    "make_eta_product",
    "make_theta",
    "ratio_test",
    "rc_bracket",
    "rc_coefficient",
    "series_mul",
    "validate_hypotheses",
]
