"""The traceless subspace B of M_m(C): validation, Gram/dual data, the
orthogonal projections eta and eta_perp, and adjoint derivations."""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditioningError,
    DependentBasis,
    ShapeError,
    TracelessViolation,
    ValidationError,
)
from .linalg import DEFAULT_TOL, gram

__all__ = [
    "Subspace",
    "DualData",
    "validate_subspace",
    "dual_data",
    "eta",
    "eta_perp",
    "ad_operator",
    "matrix_basis_duals",
]


@dataclass(frozen=True)
class Subspace:
    """An n-dimensional subspace of traceless m x m matrices.

    ``lambdas`` has shape (n, m, m) and ``gram`` is its Gram matrix g_ab;
    construct via :func:`validate_subspace`.
    """

    m: int
    lambdas: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    label: str = ""

    @property
    def n(self):
        return self.lambdas.shape[0]


@dataclass(frozen=True)
class DualData:
    """Gram matrix g_ab, its inverse, and the dual basis of a subspace."""

    gram: np.ndarray = field(repr=False)
    gram_inv: np.ndarray = field(repr=False)
    duals: np.ndarray = field(repr=False)


def validate_subspace(m, basis, tol=DEFAULT_TOL, label=""):
    """Certify that ``basis`` is an independent traceless basis in M_m(C)."""
    mats = [np.asarray(b, dtype=complex) for b in basis]
    if not mats:
        raise ShapeError("basis must be nonempty")
    for i, b in enumerate(mats):
        if b.shape != (m, m):
            raise ShapeError(f"basis element {i} has shape {b.shape}, expected ({m}, {m})")
        if not np.all(np.isfinite(b)):
            raise ValidationError(f"basis element {i} has a non-finite entry")
        norm = np.linalg.norm(b)
        if norm == 0.0 or abs(np.trace(b)) > tol * norm:
            raise TracelessViolation(i, abs(np.trace(b)))
    lambdas = np.array(mats)
    g = gram(lambdas)
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise DependentBasis(
            f"basis is linearly dependent at tolerance (Gram condition {cond:.3e})"
        )
    return Subspace(m=m, lambdas=lambdas, gram=g, label=label)


def dual_data(B, tol=DEFAULT_TOL):
    """Gram matrix, its inverse, and the dual basis lambda^a = g^{ba} lambda_b."""
    lam, g = B.lambdas, B.gram
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise ConditioningError(f"Gram matrix condition number {cond:.3e} exceeds 1/tol")
    gram_inv = np.linalg.inv(g)
    # lambda^a = g^{ba} lambda_b
    duals = np.einsum("ba,bij->aij", gram_inv, lam)
    return DualData(gram=g, gram_inv=gram_inv, duals=duals)


def eta(B, D, f):
    """Orthogonal projection of f onto span(B)."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (B.m, B.m):
        raise ShapeError(f"expected shape ({B.m}, {B.m}), got {f.shape}")
    coeffs = np.einsum("ajk,jk->a", D.duals.conj(), f)
    return np.einsum("a,aij->ij", coeffs, B.lambdas)


def eta_perp(B, D, f):
    """Component of f orthogonal to span(B) + C.1."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (B.m, B.m):
        raise ShapeError(f"expected shape ({B.m}, {B.m}), got {f.shape}")
    return f - eta(B, D, f) - (np.trace(f) / B.m) * np.eye(B.m)


def ad_operator(h):
    """The commutator map f -> [h, f] as an m^2 x m^2 matrix on row-major vec(f)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"ad_operator() needs a square matrix, got {h.shape}")
    m = h.shape[0]
    eye = np.eye(m)
    return np.kron(h, eye) - np.kron(eye, h.T)


def matrix_basis_duals(gammas, tol=DEFAULT_TOL):
    """Trace-duals of a full basis of M_m(C); raises DependentBasis otherwise."""
    gam = np.array([np.asarray(g, dtype=complex) for g in gammas])
    m = gam.shape[1]
    if gam.shape != (m * m, m, m):
        raise DependentBasis(
            f"need {m * m} matrices of shape ({m}, {m}) for a full basis, got {gam.shape}"
        )
    g = gram(gam)
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise DependentBasis(f"gamma matrices are not a basis (Gram condition {cond:.3e})")
    # gamma^a = sum_b (g^-1)[b, a] gamma_b: one GEMM on the flattened stack
    return (np.linalg.inv(g).T @ gam.reshape(m * m, -1)).reshape(gam.shape)
