"""Generalised-algebra structure of a subspace: relation matrix alpha, the
Moore-Penrose right data beta, the projector P = alpha beta, and the
structure constants of the product decomposition.

Pair indices (a, b) are numbered row-major: (a, b) -> n*a + b (0-based).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConditioningError, DependentRelations, InvalidRelation, ShapeError,
                     ValidationError)
from .linalg import DEFAULT_TOL, _pair_products, _rank, rank_nullspace

__all__ = [
    "GAStructure",
    "build_projector",
    "structure_constants",
    "detect_structure",
    "use_relations",
    "verify_ga",
]


@dataclass(frozen=True)
class GAStructure:
    """Relation data making a subspace a generalised algebra.

    alpha is n^2 x R (columns are the relations), beta is the Moore-Penrose
    left inverse of alpha, P = alpha beta the Hermitian projector onto the
    relation span.  F, t, rho are the components of the product decomposition
    lambda_b lambda_c = F^a_bc lambda_a + (t_bc / m) 1 + rho_bc.
    """

    subspace: object
    R: int
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    mode: str = "auto-maximal"


def structure_constants(B):
    """F^a_bc = <lambda^a, lambda_b lambda_c>, t_bc = tr(lambda_b lambda_c),
    rho_bc = eta_perp(lambda_b lambda_c)."""
    prod = _pair_products(B.lambdas, B.lambdas)
    F = np.einsum("aij,bcij->abc", B.dual.duals.conj(), prod)
    t = np.einsum("bcii->bc", prod)
    # eta_perp of every product: subtract its eta part F^a_bc lambda_a and its trace part
    rho = (prod - np.einsum("abc,aij->bcij", F, B.lambdas)
           - np.einsum("bc,ij->bcij", t / B.m, np.eye(B.m)))
    return F, t, rho


def _check_conditioning(B, tol):
    """Judge B's Gram condition number, stored at validation, against a structure's 1/tol."""
    if B.dual.condition > 1.0 / tol:
        raise ConditioningError(f"Gram condition number {B.dual.condition:.3e} exceeds 1/tol")


def _relations_from_rho(rho, B, tol):
    n, m = rho.shape[0], rho.shape[2]
    M = rho.reshape(n * n, m * m).T  # columns indexed by the pair (a, b)
    # Judge significance against the size of the products themselves, so a
    # rho of pure rounding noise (products fully inside B + C.1) gives the
    # maximal kernel rather than a noise rank.
    scale = max(float(np.linalg.norm(B.dual.gram)), 1.0)
    res = rank_nullspace(M / scale, tol=tol, floor=tol)
    return res.nullspace, res.nullspace.shape[1]


def build_projector(alpha, tol=DEFAULT_TOL):
    """Moore-Penrose left inverse beta = (a^dag a)^-1 a^dag and P = alpha beta."""
    alpha = np.asarray(alpha, dtype=complex)
    nn = alpha.shape[0]
    R = alpha.shape[1]
    if R == 0:
        return np.zeros((0, nn), dtype=complex), np.zeros((nn, nn), dtype=complex)
    gram = alpha.conj().T @ alpha
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= tol * sv[0]:
        raise DependentRelations(
            f"alpha columns are rank deficient (Gram sv ratio {sv[-1] / sv[0]:.3e})"
        )
    beta = np.linalg.solve(gram, alpha.conj().T)
    P = alpha @ beta
    return beta, P


def detect_structure(B, tol=DEFAULT_TOL):
    """Auto-detect the maximal generalised-algebra structure of B.

    Its alpha has orthonormal columns (right singular vectors from
    ``rank_nullspace``), so beta = alpha^dag and P = alpha alpha^dag with no
    Gram solve (``build_projector`` serves user-supplied alphas).
    """
    _check_conditioning(B, tol)
    F, t, rho = structure_constants(B)
    alpha, R = _relations_from_rho(rho, B, tol)
    beta = alpha.conj().T.copy()
    P = alpha @ beta
    return GAStructure(
        subspace=B, R=R, alpha=alpha, beta=beta, P=P,
        F=F, t=t, rho=rho, mode="auto-maximal",
    )


def use_relations(B, alpha_user, tol=DEFAULT_TOL):
    """Build a GAStructure from user-chosen relation columns.

    Every column must lie in the maximal kernel; this enables conventional
    sub-choices such as keeping only the Lie-algebra commutator relations.
    """
    _check_conditioning(B, tol)
    alpha_user = np.asarray(alpha_user, dtype=complex)
    n, m = B.n, B.m
    if alpha_user.ndim != 2 or alpha_user.shape[0] != n * n:
        raise ShapeError(f"alpha has shape {alpha_user.shape}, expected ({n * n}, R)")
    if not np.all(np.isfinite(alpha_user)):
        raise ValidationError("alpha has a non-finite entry")
    F, t, rho = structure_constants(B)
    rho_flat = rho.reshape(n * n, m * m)
    scale = max(np.max(np.linalg.norm(rho_flat, axis=1)), 1.0)
    for r in range(alpha_user.shape[1]):
        residual = np.linalg.norm(alpha_user[:, r] @ rho_flat)
        if residual > tol * scale * max(np.linalg.norm(alpha_user[:, r]), 1e-300):
            raise InvalidRelation(r, residual)
    beta, P = build_projector(alpha_user, tol=tol)
    return GAStructure(
        subspace=B, R=alpha_user.shape[1], alpha=alpha_user, beta=beta,
        P=P, F=F, t=t, rho=rho, mode="user-supplied",
    )


def verify_ga(G, tol=DEFAULT_TOL):
    """Residual report for the defining identities of a GAStructure.

    ``relation_residual`` is max_r |alpha_r^T rho|, which is linear in rho, so
    it is judged against ``relation_bound`` = tol * max(|rho|, 1).
    """
    B = G.subspace
    n, m = B.n, B.m
    checks = {}
    # each residual is formed in its product's table, freed before the next is made
    if G.R > 0:
        ba = G.beta @ G.alpha
        ba.flat[::G.R + 1] -= 1.0
        checks["beta_alpha_identity"] = float(np.linalg.norm(ba))
        del ba
    else:
        checks["beta_alpha_identity"] = 0.0
    pp = G.P @ G.P
    pp -= G.P
    checks["P_idempotent"] = float(np.linalg.norm(pp))
    rho_flat = G.rho.reshape(n * n, m * m)
    if G.R > 0:
        rel = G.alpha.T @ rho_flat
        checks["relation_residual"] = float(np.max(np.linalg.norm(rel, axis=1)))
    else:
        checks["relation_residual"] = 0.0

    # dim span{products, basis, 1} <= n^2 + n + 1 - R
    prods = _pair_products(B.lambdas, B.lambdas).reshape(n * n, m * m)
    stack = np.vstack([prods, B.lambdas.reshape(n, m * m), np.eye(m).reshape(1, m * m)])
    s = np.linalg.svd(stack.T / max(np.linalg.norm(stack), 1.0), compute_uv=False)
    span_dim = _rank(s, tol)
    bound = n * n + n + 1 - G.R
    checks["span_dim"] = span_dim
    checks["span_dim_bound"] = bound
    checks["relation_bound"] = tol * max(np.linalg.norm(rho_flat), 1.0)
    passed = (
        checks["beta_alpha_identity"] < tol
        and checks["P_idempotent"] < tol
        and checks["relation_residual"] < checks["relation_bound"]
        and span_dim <= bound
    )
    checks["passed"] = bool(passed)
    return checks
