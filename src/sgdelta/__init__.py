"""Exact factorization-length invariants for numerical semigroups.

Computes factorization sets, 0-/1-/max-norm length sets, and the derived
delta sets, with finite certificates that make the semigroup-level delta
sets provably complete; includes constructors for the standard families and
a claim registry that re-verifies their structural statements on concrete
instances.

Each public name below is imported from its module on first use (PEP 562),
so a command loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "budget": ("Budget", "DEFAULT_INF_BUDGET", "DEFAULT_ZERO_BUDGET"),
    "errors": (
        "BudgetExceeded", "InvalidGenerators", "NonCoprimeGenerators", "NotAMember",
        "PeriodOverflow", "SemigroupError", "ThresholdNotMet", "VerificationError",
    ),
    "factorization": (
        "P0", "P1", "PINF", "DeltaSet", "LengthSet", "delta_of_sorted_set", "delta_set_of_element",
        "delta_set_of_semigroup", "enumerate_factorizations", "iter_factorizations", "length_set",
        "make_factorization", "p_length", "support",
    ),
    "families": (
        "FamilySpec", "construct_family", "family", "family_chain", "is_max_embedding_dimension",
        "parse_family", "predicted_delta", "verify_gluing",
    ),
    "infinity": (
        "PeriodicityCertificate", "StructureConstants", "delta_inf_semigroup",
        "dominant_length_set", "infinity_length_set", "residue_delta_subset", "structure_constants",
        "verify_aap", "verify_interval_decomposition", "verify_linf_bounds", "verify_shift",
    ),
    "presentation": (
        "GluingExpression", "MinimalPresentation", "Trade", "betti_elements", "delta0_3gen",
        "gluing_expressions_3gen", "index_graph_components", "make_trade", "minimal_presentation",
        "singleton_support_presentation_exists",
    ),
    "search": ("SearchReport", "search_delta"),
    "semigroup": (
        "AperyTable", "NumericalSemigroup", "QuotientData", "apery_set", "contains", "frobenius",
        "make_semigroup", "quotient_data", "span",
    ),
    "zero": (
        "SupportProfile", "check_l0_interval", "delta0_semigroup", "delta0_stability_bound",
        "delta0_union_brute", "support_length_set", "support_profiles",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
