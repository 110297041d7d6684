"""Exact tensor calculus for affine connections with torsion.

The package verifies, by exact computation on polynomial fields over the
rationals, the linear structure of covariant derivatives on spaces with a
non-symmetric connection: the relations among the five derivative rules, the
family of Ricci-type identities and its seventeen-member catalogue, the
five-parameter curvature family, and a four-dimensional cosmology example
with torsion sourced by one off-diagonal metric function.
"""

__version__ = "0.1.0"

from .algebra import (
    ExponentOverflowError,
    LinearSystem,
    Rational,
    ScalarField,
    TensorField,
    contract,
    matrix_rank,
)
from .connection import (
    ALL_KINDS,
    DEPENDENT_TRIPLES,
    DERIVATIVE_RELATIONS,
    INDEPENDENT_TRIPLES,
    ConnectionField,
    DerivKind,
    covariant_derivative,
    decompose_connection,
    derivative_kind_rank,
    double_covariant_derivative,
    verify_derivative_relations,
)
from .curvature import (
    CURVATURE_R_MEMBER,
    INDEPENDENT_SIX_SETS,
    RhoCoefficients,
    bracket_objects,
    curvature_R,
    rho,
    rho_catalogue,
    rho_family_rank,
    six_set_members,
)
from .ricci import (
    ALL_COMBINATIONS,
    CATALOGUE_BY_PQRS,
    IdentityAmbiguityError,
    IdentityCoefficients,
    IdentityUnsolvableError,
    IdentityWorkspace,
    MixWeights,
    SolvedIdentities,
    catalogue_independence_rank,
    identity_catalogue,
    identity_row,
    solve_all_identities,
    solve_identity_coefficients,
    solved_span_rank,
    verify_expanded_identity,
    verify_identity,
    verify_mixed_family,
)
from .metrics import (
    GeneralizedMetric,
    SingularMetricError,
    christoffel_first_kind_antisym,
    christoffel_generalized,
    einstein_metricity_residual,
)
from .ratfunc import Poly, RationalFunction
from .cosmology import (
    CosmologyMetric,
    DegenerateMetricError,
    antisym_christoffel_table,
    energy_momentum,
    matter_lagrangian,
    recover_n,
    scalar_curvature,
    scalar_curvature_family,
)
