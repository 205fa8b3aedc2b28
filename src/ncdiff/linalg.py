"""Dense complex linear algebra: trace inner product, Gram matrices, and
rank/null-space and span projectors with an explicit tolerance policy.

All functions are pure and operate on immutable numpy inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

DEFAULT_TOL = 1e-9
EPS = np.finfo(float).eps
# Least bytes of the conjugated block of K that one product of _full_rank's Gram reads.
GRAM_BLOCK_BYTES = 1 << 18


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


def _carve(buf, shape):
    """The first prod(``shape``) entries of the 1-d buffer ``buf``, as an array of ``shape``.

    The array is a contiguous view of ``buf``; None when ``buf`` is None, so
    that a numpy ``out=`` argument allocates.
    """
    return None if buf is None else buf[:math.prod(shape)].reshape(shape)


def _pair_products(a, b, out=None):
    """out[..., x, y] = a[..., x] @ b[..., y] for stacks a (..., A, i, j) and b (..., B, j, k).

    Each product of the stacked rows of ``a`` with the side-by-side columns
    of ``b`` is one (A i) x (B k) GEMM, one per index of the leading axes,
    which broadcast; leading axes on ``a`` alone fold into the rows of a
    single GEMM.  Returns an (..., A, B, i, k) view of the GEMM's result,
    which is written into the 1-d buffer ``out`` when given; ``out`` must
    not hold ``a`` or ``b``.
    """
    *_, A, i, j = a.shape
    *_, B, _, k = b.shape
    cols = np.swapaxes(b, -3, -2).reshape(b.shape[:-3] + (j, B * k))
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    if b.ndim == 3:
        rows = a.reshape(-1, j)
        out = _carve(out, (rows.shape[0], B * k))
    else:
        rows = a.reshape(a.shape[:-3] + (A * i, j))
        out = _carve(out, lead + (A * i, B * k))
    return np.swapaxes(np.matmul(rows, cols, out=out).reshape(lead + (A, i, B, k)), -3, -2)


def _at_slot(M, t, q, out=None):
    """sum_j M[i, j] t[..., j, ...] with j on axis q of ``t``, as one stacked GEMM.

    Axis q of the result holds M's row index i; the other axes are t's.  The
    1-d buffer ``out``, when given, receives the result.
    """
    shape = t.shape
    lead, rest = math.prod(shape[:q]), math.prod(shape[q + 1:])
    res = np.matmul(M, t.reshape(lead, shape[q], rest), out=_carve(out, (lead, M.shape[0], rest)))
    return res.reshape(shape[:q] + (M.shape[0],) + shape[q + 1:])


def _rank(s, tol, floor=0.0):
    """Count of the descending singular values ``s`` above tol * s[0] and above ``floor``."""
    return int(np.count_nonzero(s > max(tol * s[0], floor)))


def _full_rank(K, tol):
    """True when a shifted Cholesky proves that every singular value of K exceeds tol s_max and tol.

    Then ``_rank(s, tol, floor=tol)`` counts all d = min(K.shape) of them.

    With X the short side of K as rows (K, or K^T when K is tall: d x k,
    k = max(K.shape)), H = X X^dag is a d x d Hermitian Gram with the squared
    singular values of K as eigenvalues.  It is formed in blocks of columns of
    a quarter of K, or of GRAM_BLOCK_BYTES if that is more, so the conjugated
    copy it makes is no larger; a K passed as a temporary is freed before the
    Cholesky.  With t the computed trace of H and sigma = max(tol, c (d + k)
    eps), c = 8, the diagonal of H is lowered by shift = sigma t, and
    np.linalg.cholesky must succeed.  A False is no verdict: the caller's SVD
    decides.

    The rounding terms (u = eps / 2, Rump, BIT 46 (2006) 433):
    the computed Gram is within (k + 2) u tr(H) of H in 2-norm; the shifted
    diagonal within 2 u t; a Cholesky of a d x d Hermitian A that succeeds in
    floating point proves lambda_min(A) >= -(d + 1) u tr(A) (1 + O(d u)).  Their
    sum, (d + k + 5) u t (1 + O((d + k) u)), is at most sigma t / 2 when
    d >= 1 (then d + k >= 2, where c = 3.5 would do; the rest of c = 8 is margin
    for the constants of complex arithmetic).  So success proves
    lambda_min(H) >= shift / 2, hence

        s_min^2 >= shift / 2 >= (sigma / 2)(1 - (d + k) u) s_max^2,

    s_min / s_max > sqrt(tol / 3) > tol for tol < 1/3, and s_min > tol,
    which is checked as shift > 2 tol^2.  No Gram test can prove a rank
    deficiency at such a tol: eigenvalues of H near zero carry an error of
    about eps s_max^2, a singular value error of about 1e-8 s_max.
    """
    X = K.T if K.shape[0] > K.shape[1] else K
    d, k = X.shape
    H = np.empty((d, d), dtype=complex)
    step = max(1, -(-d // 4), GRAM_BLOCK_BYTES // (16 * k or 1))
    for j in range(0, d, step):
        np.matmul(X, X[j:j + step].conj().T, out=H[:, j:j + step])
    # a caller that passed K as a temporary held it only through these names
    del K, X
    shift = max(tol, 8 * (d + k) * EPS) * float(H.trace().real)
    if not shift > 2 * tol ** 2:  # also when d = 0 or H is not finite
        return False
    H.ravel()[::d + 1] -= shift
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


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
