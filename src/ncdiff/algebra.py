"""The traceless subspace B of M_m(C): validation, Gram/dual data, the
orthogonal projections eta and eta_perp, and adjoint derivations.

``dual_data`` alone forms, conditions, inverts and dualises a Gram matrix: for
B's basis in ``validate_subspace`` (kept as ``Subspace.dual``) and for a full
basis of M_m(C) in ``matrix_basis_duals``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DependentBasis, ShapeError, TracelessViolation, ValidationError
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
class DualData:
    """Trace-dual data of a stack of matrices mu_a, from :func:`dual_data`.

    ``gram`` is g_ab = <mu_a, mu_b>, ``condition`` its 2-norm condition
    number, ``gram_inv`` its inverse and ``duals`` the stack of trace duals
    mu^a = g^{ba} mu_b, with <mu^a, mu_b> = delta^a_b.
    """

    gram: np.ndarray = field(repr=False)
    condition: float
    gram_inv: np.ndarray = field(repr=False)
    duals: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Subspace:
    """An n-dimensional subspace of traceless m x m matrices.

    ``lambdas`` has shape (n, m, m) and ``dual`` is its :class:`DualData`:
    the Gram matrix g_ab, its condition number and inverse, and the dual basis
    lambda^a.  Construct via :func:`validate_subspace`.
    """

    m: int
    lambdas: np.ndarray = field(repr=False)
    dual: DualData = field(repr=False)
    label: str = ""

    @property
    def n(self):
        return self.lambdas.shape[0]


def dual_data(mats, tol=DEFAULT_TOL):
    """Gram matrix, condition number, inverse and trace duals of a stack of matrices.

    Raises DependentBasis when the Gram condition number exceeds 1/tol.
    """
    g = gram(mats)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise DependentBasis(f"matrices are dependent at tolerance (Gram condition {cond:.3e})")
    gram_inv = np.linalg.inv(g)
    duals = np.einsum("ba,bij->aij", gram_inv, mats)
    return DualData(gram=g, condition=cond, gram_inv=gram_inv, duals=duals)


def validate_subspace(m, basis, tol=DEFAULT_TOL, label=""):
    """Certify that ``basis`` is an independent traceless basis in M_m(C), and dualise it."""
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
    return Subspace(m=m, lambdas=lambdas, dual=dual_data(lambdas, tol), label=label)


def eta(B, f):
    """Orthogonal projection of f onto span(B)."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (B.m, B.m):
        raise ShapeError(f"expected shape ({B.m}, {B.m}), got {f.shape}")
    coeffs = np.einsum("ajk,jk->a", B.dual.duals.conj(), f)
    return np.einsum("a,aij->ij", coeffs, B.lambdas)


def eta_perp(B, f):
    """Component of f orthogonal to span(B) + C.1."""
    f = np.asarray(f, dtype=complex)
    return f - eta(B, f) - (np.trace(f) / B.m) * np.eye(B.m)


def ad_operator(h):
    """The commutator map f -> [h, f] as an m^2 x m^2 matrix on row-major vec(f)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"ad_operator() needs a square matrix, got {h.shape}")
    m = h.shape[0]
    eye = np.eye(m)
    return np.kron(h, eye) - np.kron(eye, h.T)


def matrix_basis_duals(gammas, tol=DEFAULT_TOL):
    """Trace-duals gamma^mu of a full basis gamma_mu of M_m(C); raises DependentBasis otherwise."""
    gam = np.array([np.asarray(g, dtype=complex) for g in gammas])
    m = gam.shape[1]
    if gam.shape != (m * m, m, m):
        raise DependentBasis(f"a full basis needs {m * m} matrices ({m} x {m}), got {gam.shape}")
    return dual_data(gam, tol).duals
