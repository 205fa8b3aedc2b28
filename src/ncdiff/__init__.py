"""Noncommutative differential calculus over finite matrix algebras.

Detects the generalised-algebra structure of a traceless subspace of
M_m(C), constructs the co-frame and the tower of higher-order forms, and
verifies the defining identities of the calculus.
"""

__version__ = "0.1.0"

from .algebra import (
    DualData,
    Subspace,
    ad_operator,
    dual_data,
    eta,
    eta_perp,
    validate_subspace,
)
from .calculus import (
    Form,
    FormTower,
    build_tower,
    chi,
    check_structure_equations,
    coframe,
    coframe_from_formula,
    epsilon_check,
    exterior_d,
    form_norm,
    theta,
    wedge,
)
from .genalg import (
    GAStructure,
    build_projector,
    detect_structure,
    structure_constants,
    use_relations,
    verify_ga,
)
from .linalg import RankResult, inner, rank_nullspace
from .maps import (
    Conjugation,
    LinearMap,
    check_equivalence,
    conjugate_subspace,
    lie_derivative,
    pullback,
    pushforward,
)
from .universal import theta_u, verify_trace_lemma
