"""Exact minimal-projection analysis of finite-dimensional polyhedral
normed spaces: relative projection constants, optimal-face dimensions,
norming pairs and Chalmers-Metcalf certificates, all in rational
arithmetic.

The public names below load their module on first use (PEP 562), so
``import minproj`` runs no submodule and a client of one stage loads
only that stage and what it imports."""

import importlib
import types

__version__ = "0.1.0"

# Each public name and the submodule that binds it.
_HOMES = types.MappingProxyType({name: module for module, names in (
    ("catalog", "CaseExpectation NamedCase l1_ball linf_ball mixed_ball "
                "paper_cases random_subspace"),
    ("certificates", "CMFunctional CMVerdict cm_from_dual cm_rank_gap "
                     "minimal_support_cm verify_cm"),
    ("errors", "BudgetExceededError InputFormatError InternalError "
               "MinprojError NotExtremeError NotFullDimensionalError "
               "NotMinimalError NotSymmetricError"),
    ("geometry", "GeneralPositionReport PolyhedralSpace Subspace "
                 "general_position_check norm_eval polar_dual"),
    ("projections", "MinProjReport OperatorBasis OperatorPoint "
                    "build_operator_basis face_dimension max_norming_projection "
                    "norming_pairs operator_norm projection_constant"),
    ("rational", "QQ approx_decimal format_rational parse_rational"),
) for name in names.split()})

__all__ = tuple(sorted(_HOMES))


def __getattr__(name):
    # Nothing is cached here, so the namespace stays as imported; the
    # import system keeps the home module loaded after the first lookup.
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
