"""Dense complex linear algebra: trace inner product, Gram matrices, and
rank/null-space and span projectors with an explicit tolerance policy.

All functions are pure and operate on immutable numpy inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

DEFAULT_TOL = 1e-9


def dagger(f):
    """Conjugate transpose."""
    return np.asarray(f).conj().T


def inner(f, g):
    """Trace inner product tr(f^dag g).

    Conjugate-linear in the first argument, positive definite on square
    matrices of a fixed size.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape or f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ShapeError(f"inner() needs equal square matrices, got {f.shape} and {g.shape}")
    return complex(np.trace(f.conj().T @ g))


def gram(a, b=None):
    """Trace inner products G[i, j] = <a_i, b_j> of two stacks of matrices.

    ``b`` defaults to ``a``, giving the Gram matrix of ``a``.
    """
    a = np.asarray(a, dtype=complex)
    b = a if b is None else np.asarray(b, dtype=complex)
    return np.einsum("aij,bij->ab", a.conj(), b)


def _pair_products(a, b):
    """out[..., x, y] = a[..., x] @ b[..., y] for stacks a (..., A, i, j) and b (..., B, j, k).

    Each product of the stacked rows of ``a`` with the side-by-side columns
    of ``b`` is one (A i) x (B k) GEMM, one per index of the leading axes,
    which broadcast; leading axes on ``a`` alone fold into the rows of a
    single GEMM.  Returns an (..., A, B, i, k) view.
    """
    *_, A, i, j = a.shape
    *_, B, _, k = b.shape
    cols = np.swapaxes(b, -3, -2).reshape(b.shape[:-3] + (j, B * k))
    rows = a.reshape(-1, j) if b.ndim == 3 else a.reshape(a.shape[:-3] + (A * i, j))
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    return np.swapaxes((rows @ cols).reshape(lead + (A, i, B, k)), -3, -2)


def _at_slot(M, t, q):
    """sum_j M[i, j] t[..., j, ...] with j on axis q of ``t``, as one stacked GEMM.

    Axis q of the result holds M's row index i; the other axes are t's.
    """
    shape = t.shape
    out = M @ t.reshape(math.prod(shape[:q]), shape[q], -1)
    return out.reshape(shape[:q] + (M.shape[0],) + shape[q + 1:])


def _rank(s, tol, floor=0.0):
    """Count of the descending singular values ``s`` above tol * s[0] and above ``floor``."""
    return int(np.count_nonzero(s > max(tol * s[0], floor)))


@dataclass(frozen=True)
class RankResult:
    """Numerical rank data for a complex matrix.

    ``nullspace`` holds an orthonormal basis of the right kernel as columns,
    phase-fixed so the first significant component of each vector is
    real-positive.  ``gap`` is the ratio (first dropped sv / last kept sv),
    or None when no singular value was dropped or kept.
    """

    rank: int
    nullspace: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    gap: float | None = None


def _fix_phases(V):
    """Make the first entry of each column of V above 1e-12 x the column max real-positive.

    A column without such an entry is left as it is.
    """
    a = np.abs(V)
    significant = a > 1e-12 * np.maximum(a.max(axis=0), 1e-300)
    cols = np.arange(V.shape[1])
    first = significant.argmax(axis=0)
    pivot = V[first, cols]
    phase = np.ones(V.shape[1], dtype=complex)
    has = significant[first, cols]
    phase[has] = np.abs(pivot[has]) / pivot[has]
    return V * phase


def rank_nullspace(M, tol=DEFAULT_TOL, floor=0.0):
    """Rank and orthonormal right null-space basis of M via SVD.

    The rank counts singular values above ``tol`` times the largest one.
    ``floor`` is an absolute cutoff below which singular values are never
    counted, so that a matrix of pure rounding noise comes out rank 0.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.size == 0:
        raise ShapeError(f"rank_nullspace() needs a nonempty 2-d matrix, got shape {M.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, s, vh = np.linalg.svd(M)
    rank = _rank(s, tol, floor)
    null = _fix_phases(vh[rank:].conj().T)
    gap = None
    if 0 < rank < s.size:
        gap = float(s[rank] / s[rank - 1])
    return RankResult(rank=rank, nullspace=null, singular_values=s, gap=gap)


def span_projector(columns, tol=DEFAULT_TOL):
    """Hermitian orthogonal projector onto the column span of ``columns``.

    Directions whose singular value is at most ``tol`` times the largest
    one are dropped.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.size == 0:
        return np.zeros((columns.shape[0],) * 2, dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    u = u[:, :_rank(s, tol)]
    return u @ u.conj().T
