"""Generalised-algebra structure of a subspace: the relations, stored by
their orthonormal complement L, and the structure constants of the product
decomposition.

The relation matrix alpha, an orthonormal basis of the relation span, is
derived from L on first read.

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
    columns spanning null(alpha^T), the complement the form tower needs;
    they depend on the span of the relations only, not on a basis of it.
    alpha, n^2 x R with orthonormal columns spanning null(L^T) (the
    conjugate of the tower's W_2), is formed on first read and kept, for the
    callers that read it.  ``mode`` labels where the relations came from.
    F, t, rho are the components of the product decomposition
    lambda_b lambda_c = F^a_bc lambda_a + (t_bc / m) 1 + rho_bc.
    """

    subspace: object
    R: int
    L: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    mode: str = AUTO

    @cached_property
    def alpha(self):
        return _complement(self.L.conj())


def structure_constants(B):
    """F^a_bc = <lambda^a, lambda_b lambda_c>, t_bc = tr(lambda_b lambda_c),
    rho_bc = eta_perp(lambda_b lambda_c)."""
    prod = _pair_products(B.lambdas, B.lambdas)
    F = _structure_F(B, prod)
    t = np.einsum("bcii->bc", prod)
    # eta_perp of every product: subtract its eta part F^a_bc lambda_a and its trace part
    rho = (prod - np.einsum("abc,aij->bcij", F, B.lambdas)
           - np.einsum("bc,ij->bcij", t / B.m, np.eye(B.m)))
    return F, t, rho


def _structure_F(B, prod=None):
    """F^a_bc = <lambda^a, lambda_b lambda_c> from the pair products ``prod`` (formed when None).

    An einsum, as ``structure_constants`` keeps it: rho, and through it L and alpha,
    follow the last bits of F.
    """
    if prod is None:
        prod = _pair_products(B.lambdas, B.lambdas)
    return np.einsum("aij,bcij->abc", B.dual.duals.conj(), prod)


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
    B + C.1) gives the maximal kernel rather than a noise rank.
    """
    _check_conditioning(B, tol)
    F, t, rho = structure_constants(B)
    n, m = B.n, B.m
    # columns indexed by the pair (a, b)
    res = rank_nullspace(rho.reshape(n * n, m * m).T / _rho_scale(B), tol=tol, floor=tol)
    return GAStructure(subspace=B, R=n * n - res.rank, L=res.rowspace.conj(), F=F, t=t, rho=rho)


def use_relations(B, alpha_user, tol=DEFAULT_TOL):
    """Build a GAStructure from user-chosen relation columns.

    Every column must lie in the maximal kernel; this enables conventional
    sub-choices such as keeping only the Lie-algebra commutator relations.
    Column r is judged by |alpha_r^T rho| against tol |Gram| |alpha_r|, the
    scale ``detect_structure`` judges the matrix of rho against.  Only the
    span of the columns is kept, as its complement L.
    """
    _check_conditioning(B, tol)
    alpha_user = np.asarray(alpha_user, dtype=complex)
    n, m = B.n, B.m
    if alpha_user.ndim != 2 or alpha_user.shape[0] != n * n:
        raise ShapeError(f"alpha has shape {alpha_user.shape}, expected ({n * n}, R)")
    if not np.all(np.isfinite(alpha_user)):
        raise ValidationError("alpha has a non-finite entry")
    F, t, rho = structure_constants(B)
    residual = np.linalg.norm(alpha_user.T @ rho.reshape(n * n, m * m), axis=1)
    bad = np.flatnonzero(residual > tol * _rho_scale(B) * np.maximum(
        np.linalg.norm(alpha_user, axis=0), 1e-300))
    if bad.size:
        raise InvalidRelation(int(bad[0]), float(residual[bad[0]]))
    if alpha_user.shape[1]:
        sv = np.linalg.svd(alpha_user.conj().T @ alpha_user, compute_uv=False)
        if sv[-1] <= tol * sv[0]:
            raise DependentRelations(
                f"alpha columns are rank deficient (Gram sv ratio {sv[-1] / sv[0]:.3e})"
            )
    return GAStructure(
        subspace=B, R=alpha_user.shape[1], L=_complement(alpha_user.conj()),
        F=F, t=t, rho=rho, mode="user-supplied",
    )


def verify_ga(G, tol=DEFAULT_TOL):
    """Residual report for the defining identities of a GAStructure.

    No n^2 x n^2 matrix is formed.  ``beta_alpha_identity`` is
    |L^dag L - 1_k|: alpha is the orthonormal complement of L, so this one
    number shows both that alpha^dag is its left inverse and that
    P = alpha alpha^dag is idempotent.  ``relation_residual`` is the relation
    form |pi_2 rho| = |alpha^T rho| (|rho| when k = 0, where alpha is the
    identity and is not formed); quadratic in lambda, it is judged against
    ``relation_bound`` = tol |lambda|^2.
    """
    B = G.subspace
    n, m = B.n, B.m
    LL = G.L.conj().T @ G.L
    LL.flat[::LL.shape[0] + 1] -= 1.0
    rho_flat = G.rho.reshape(n * n, m * m)
    checks = {"beta_alpha_identity": float(np.linalg.norm(LL))}
    checks["relation_residual"] = float(np.linalg.norm(
        G.alpha.T @ rho_flat if G.L.shape[1] else rho_flat))

    # dim span{products, basis, 1} <= n^2 + n + 1 - R
    prods = _pair_products(B.lambdas, B.lambdas).reshape(n * n, m * m)
    stack = np.vstack([prods, B.lambdas.reshape(n, m * m), np.eye(m).reshape(1, m * m)])
    span_dim = _rank(np.linalg.svd(stack.T, compute_uv=False), tol)
    bound = n * n + n + 1 - G.R
    checks["span_dim"] = span_dim
    checks["span_dim_bound"] = bound
    checks["relation_bound"] = float(tol * np.linalg.norm(B.lambdas) ** 2)
    passed = (
        checks["beta_alpha_identity"] < tol
        and checks["relation_residual"] < checks["relation_bound"]
        and span_dim <= bound
    )
    checks["passed"] = bool(passed)
    return checks
