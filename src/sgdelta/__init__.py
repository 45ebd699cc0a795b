"""Exact factorization-length invariants for numerical semigroups.

Computes factorization sets, 0-/1-/max-norm length sets, and the derived
delta sets, with finite certificates that make the semigroup-level delta
sets provably complete; includes constructors for the standard families and
a claim registry that re-verifies their structural statements on concrete
instances.
"""

from .budget import Budget, DEFAULT_INF_BUDGET, DEFAULT_ZERO_BUDGET
from .errors import (
    BudgetExceeded,
    InvalidGenerators,
    NonCoprimeGenerators,
    NotAMember,
    PeriodOverflow,
    SemigroupError,
    ThresholdNotMet,
    VerificationError,
)
from .factorization import (
    P0,
    P1,
    PINF,
    DeltaSet,
    LengthSet,
    delta_of_sorted_set,
    delta_set_of_element,
    delta_set_of_semigroup,
    enumerate_factorizations,
    iter_factorizations,
    length_set,
    make_factorization,
    p_length,
    support,
)
from .families import (
    FamilySpec,
    construct_family,
    family,
    family_chain,
    is_max_embedding_dimension,
    parse_family,
    predicted_delta,
    verify_gluing,
)
from .infinity import (
    PeriodicityCertificate,
    StructureConstants,
    delta_inf_semigroup,
    dominant_length_set,
    infinity_length_set,
    residue_delta_subset,
    structure_constants,
    verify_aap,
    verify_interval_decomposition,
    verify_linf_bounds,
    verify_shift,
)
from .presentation import (
    GluingExpression,
    MinimalPresentation,
    Trade,
    betti_elements,
    delta0_3gen,
    gluing_expressions_3gen,
    index_graph_components,
    make_trade,
    minimal_presentation,
    singleton_support_presentation_exists,
)
from .search import SearchReport, search_delta
from .semigroup import (
    AperyTable,
    NumericalSemigroup,
    QuotientData,
    apery_set,
    contains,
    frobenius,
    make_semigroup,
    quotient_data,
    span,
)
from .zero import (
    SupportProfile,
    check_l0_interval,
    delta0_semigroup,
    delta0_stability_bound,
    delta0_union_brute,
    support_length_set,
    support_profiles,
)

__version__ = "0.1.0"
