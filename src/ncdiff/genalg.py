"""Generalised-algebra structure of a subspace: the relations, stored by
their orthonormal complement L, and the structure constants of the product
decomposition.

The relation matrix alpha, its Moore-Penrose left inverse beta and the
projector P = alpha beta are derived from the stored data on first read.

Pair indices (a, b) are numbered row-major: (a, b) -> n*a + b (0-based).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConditioningError, DependentRelations, InvalidRelation, ShapeError,
                     ValidationError)
from .linalg import DEFAULT_TOL, _complement, _pair_products, _rank, rank_nullspace

__all__ = [
    "GAStructure",
    "structure_constants",
    "detect_structure",
    "use_relations",
    "verify_ga",
]

AUTO = "auto-maximal"


@dataclass(frozen=True)
class GAStructure:
    """Relation data making a subspace a generalised algebra.

    The relations are stored by L, n^2 x k with k = n^2 - R orthonormal
    columns spanning null(alpha^T), the complement the form tower needs.
    ``source`` is what alpha comes from: in auto mode the ``RankResult`` of
    the matrix of rho, whose null space alpha is; in user mode the user's
    n^2 x R alpha itself.  alpha (columns are the relations), beta (its
    Moore-Penrose left inverse, from a Gram solve in user mode) and
    P = alpha beta (the projector onto the relation span, n^2 x n^2) are
    formed on first read and kept, for the callers that read them.  F, t,
    rho are the components of the product decomposition
    lambda_b lambda_c = F^a_bc lambda_a + (t_bc / m) 1 + rho_bc.
    """

    subspace: object
    R: int
    L: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    source: object = field(repr=False)
    mode: str = AUTO

    @cached_property
    def alpha(self):
        return self.source.nullspace if self.mode == AUTO else self.source

    @cached_property
    def beta(self):
        a_dag = self.alpha.conj().T
        if self.mode == AUTO:  # orthonormal columns: the left inverse is alpha^dag
            return a_dag.copy()
        return np.linalg.solve(a_dag @ self.alpha, a_dag)  # (a^dag a)^-1 a^dag

    @cached_property
    def P(self):
        return self.alpha @ self.beta


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


def _rho_scale(B):
    """The size of the products, which significance in the matrix of rho is judged against."""
    return float(np.linalg.norm(B.dual.gram))


def detect_structure(B, tol=DEFAULT_TOL):
    """Auto-detect the maximal generalised-algebra structure of B.

    One economy SVD of the m^2 x n^2 matrix of rho (``rank_nullspace``)
    decides k = n^2 - R; L is the conjugate of its row space, which spans
    null(alpha^T).  Significance is judged against the size of the products
    themselves, so a rho of pure rounding noise (products fully inside
    B + C.1) gives the maximal kernel rather than a noise rank.  alpha, the
    null space, has orthonormal columns (right singular vectors from the
    full SVD ``rank_nullspace`` forms on first read), so beta = alpha^dag.
    """
    _check_conditioning(B, tol)
    F, t, rho = structure_constants(B)
    n, m = B.n, B.m
    # columns indexed by the pair (a, b)
    res = rank_nullspace(rho.reshape(n * n, m * m).T / _rho_scale(B), tol=tol, floor=tol)
    return GAStructure(
        subspace=B, R=n * n - res.rank, L=res.rowspace.conj(),
        F=F, t=t, rho=rho, mode=AUTO, source=res,
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
    if alpha_user.shape[1]:
        sv = np.linalg.svd(alpha_user.conj().T @ alpha_user, compute_uv=False)
        if sv[-1] <= tol * sv[0]:
            raise DependentRelations(
                f"alpha columns are rank deficient (Gram sv ratio {sv[-1] / sv[0]:.3e})"
            )
    return GAStructure(
        subspace=B, R=alpha_user.shape[1], L=_complement(alpha_user.conj()),
        F=F, t=t, rho=rho, mode="user-supplied", source=alpha_user,
    )


def verify_ga(G, tol=DEFAULT_TOL):
    """Residual report for the defining identities of a GAStructure.

    No n^2 x n^2 matrix is formed.  In auto mode alpha and L come from one
    unitary, so ``beta_alpha_identity`` and ``P_idempotent`` both read
    |L^dag L - 1_k|, and ``relation_residual``, max_r |alpha_r^T rho| for the
    right singular vectors alpha_r, is the first dropped singular value of
    the matrix of rho.  In user mode
    ``beta_alpha_identity`` is |beta alpha - 1_R|, ``P_idempotent`` is
    |P^2 - P| = |alpha (beta alpha - 1) beta| from R x R Grams, and
    ``relation_residual`` is max_r |alpha_r^T rho|.  The relation residual is
    linear in rho, so it is judged against ``relation_bound`` = tol * max(|rho|, 1).
    """
    B = G.subspace
    n, m = B.n, B.m
    checks = {}
    rho_flat = G.rho.reshape(n * n, m * m)
    if G.mode == AUTO:
        LL = G.L.conj().T @ G.L
        LL.flat[::LL.shape[0] + 1] -= 1.0
        checks["beta_alpha_identity"] = checks["P_idempotent"] = float(np.linalg.norm(LL))
        s, rank = G.source.singular_values, G.source.rank
        checks["relation_residual"] = float(s[rank]) * _rho_scale(B) if rank < s.size else 0.0
    else:
        X = G.beta @ G.alpha
        X.flat[::G.R + 1] -= 1.0
        checks["beta_alpha_identity"] = float(np.linalg.norm(X))
        # |alpha X beta|^2 = tr(X^dag (alpha^dag alpha) X (beta beta^dag))
        sq = np.trace(X.conj().T @ (G.alpha.conj().T @ G.alpha) @ X @ (G.beta @ G.beta.conj().T))
        checks["P_idempotent"] = float(np.sqrt(max(sq.real, 0.0)))
        rel = G.alpha.T @ rho_flat
        checks["relation_residual"] = float(np.max(np.linalg.norm(rel, axis=1), initial=0.0))

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
