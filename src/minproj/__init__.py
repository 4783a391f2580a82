"""Exact minimal-projection analysis of finite-dimensional polyhedral
normed spaces: relative projection constants, optimal-face dimensions,
norming pairs and Chalmers-Metcalf certificates, all in rational
arithmetic."""

from .catalog import (CaseExpectation, NamedCase, l1_ball, linf_ball,
                      mixed_ball, paper_cases, random_subspace)
from .certificates import (CMFunctional, CMVerdict, cm_from_dual, cm_rank_gap,
                           minimal_support_cm, verify_cm)
from .errors import (BudgetExceededError, CertificateInvalidError,
                     InputFormatError, InternalError, MinprojError,
                     NotExtremeError, NotFullDimensionalError, NotMinimalError,
                     NotSymmetricError, RankGapViolationError)
from .geometry import (GeneralPositionReport, PolyhedralSpace, Subspace,
                       general_position_check, norm_eval, polar_dual)
from .projections import (MinProjReport, OperatorBasis, OperatorPoint,
                          build_operator_basis, face_dimension,
                          max_norming_projection, norming_pairs,
                          operator_norm, projection_constant)
from .rational import QQ, approx_decimal, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CMFunctional", "CMVerdict", "CaseExpectation",
    "CertificateInvalidError", "GeneralPositionReport", "InputFormatError",
    "InternalError", "MinProjReport", "MinprojError", "NamedCase",
    "NotExtremeError", "NotFullDimensionalError", "NotMinimalError",
    "NotSymmetricError", "OperatorBasis", "OperatorPoint", "PolyhedralSpace",
    "QQ", "RankGapViolationError", "Subspace", "approx_decimal",
    "build_operator_basis", "cm_from_dual", "cm_rank_gap", "face_dimension",
    "format_rational", "general_position_check", "l1_ball", "linf_ball",
    "max_norming_projection", "minimal_support_cm", "mixed_ball", "norm_eval",
    "norming_pairs", "operator_norm", "paper_cases", "parse_rational",
    "polar_dual", "projection_constant", "random_subspace", "verify_cm",
]
