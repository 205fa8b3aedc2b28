"""Dense complex linear algebra: trace inner product, Gram matrices, and
rank/row-space decisions and span projectors with an explicit tolerance policy.

All functions are pure and operate on immutable numpy inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

DEFAULT_TOL = 1e-9
EPS = np.finfo(float).eps


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
    single GEMM.  Returns an (..., A, B, i, k) view of the GEMM's result.
    """
    *_, A, i, j = a.shape
    *_, B, _, k = b.shape
    cols = np.swapaxes(b, -3, -2).reshape(b.shape[:-3] + (j, B * k))
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    rows = a.reshape(-1, j) if b.ndim == 3 else a.reshape(a.shape[:-3] + (A * i, j))
    return np.swapaxes(np.matmul(rows, cols).reshape(lead + (A, i, B, k)), -3, -2)


def _at_slot(M, t, q):
    """sum_j M[i, j] t[..., j, ...] with j on axis q of ``t``, as one stacked GEMM.

    Axis q of the result holds M's row index i; the other axes are t's.
    """
    shape = t.shape
    lead, rest = math.prod(shape[:q]), math.prod(shape[q + 1:])
    if rest == 1:  # one GEMM of the vectors as rows, not ``lead`` matrix-vector products
        res = t.reshape(lead, shape[q]) @ M.T
    else:
        res = np.matmul(M, t.reshape(lead, shape[q], rest))
    return res.reshape(shape[:q] + (M.shape[0],) + shape[q + 1:])


def _complement(A):
    """The last M - N columns of the complete Q of a QR of the M x N matrix A, M >= N.

    They are an orthonormal basis of the orthogonal complement of range(A)
    when A has full column rank.  Formed from A's N Householder reflectors in
    their compact form Q = 1 - V T V^dag, with T^-1 = diag(1/tau) +
    striu(V^dag V) (Joffrain, Low, Quintana-Orti, van de Geijn and van Zee,
    ACM TOMS 32 (2006) 169), as [0; 1] - V T V_2^dag with V_2 the last M - N
    rows of V: three GEMMs and an N x N solve, so no M x M matrix is formed.
    A reflector with tau = 0 is the identity and drops out.
    """
    M, N = A.shape
    h, tau = np.linalg.qr(A, mode="raw")
    # row j of h holds reflector j below its diagonal; its entry j is 1
    V = np.tril(h.T, -1)
    diag = np.arange(N)
    V[diag, diag] = 1.0
    live = tau != 0
    if not live.all():
        V[:, ~live] = 0.0
        tau = np.where(live, tau, 1.0)
    Tinv = np.triu(V.conj().T @ V, 1)
    Tinv[diag, diag] = 1.0 / tau
    out = V @ np.linalg.solve(Tinv, -V[N:].conj().T)
    out[N:] += np.eye(M - N)
    return out


def _rank(s, tol, floor=0.0):
    """Count of the descending singular values ``s`` above tol * s[0] and above ``floor``."""
    return int(np.count_nonzero(s > max(tol * s[0], floor)))


def _gamma(q):
    """A bound on the relative rounding of a complex inner product of length q.

    gamma_{q+2} = (q + 2) u / (1 - (q + 2) u) bounds it in complex arithmetic
    (u = eps / 2; Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.6); eps in place of u doubles that, which covers the sqrt(2) of
    a complex product.  A product A B of inner length q, in any order of
    summation, is then within gamma(q) |A|_F |B|_F of the exact one in
    Frobenius norm, with |A| and |B| taken entrywise.
    """
    return (q + 2) * EPS / (1 - (q + 2) * EPS)


def _full_rank(H, bound, tol):
    """True when a shifted Cholesky proves that every singular value of K exceeds tol s_max and tol.

    ``H`` is a computed d x d Gram of K on its short side (K K^dag or K^dag K,
    whose eigenvalues are the squared singular values s of K, d = min(K.shape)),
    within ``bound`` in 2-norm of the exact one; the caller passes it as a
    temporary, whose diagonal is overwritten.  Then ``_rank(s, tol,
    floor=tol)`` counts all d of them.  With t the computed trace of H, its
    diagonal is lowered by

        shift = max(tol t, 2 bound + 4 (d + 2) eps t)

    and np.linalg.cholesky must succeed.  A False is no verdict: the caller's
    SVD decides.

    The rounding terms (u = eps / 2, Rump, BIT 46 (2006) 433): the Gram
    within ``bound``; the shifted diagonal within u (t + shift); a Cholesky of
    a d x d Hermitian A that succeeds in floating point proves lambda_min(A) >=
    -(d + 1) u tr(A) (1 + O(d u)), and tr(A) <= t.  A success needs every
    diagonal entry above the shift, so shift < t and bound < t / 2, and the
    sum, bound + u shift + (d + 2) u t (1 + O(d u)), is at most shift / 2: twice
    the terms is 2 bound + 2 (d + 2) u t (1 + O(d u)) + 4 u t, and 4 (d + 2)
    eps t leaves the rest of a factor of 4 as margin for the constants of
    complex arithmetic.  So success proves lambda_min(H) >= shift / 2 >= bound,
    hence, as s_max^2 <= tr(H) <= t + d bound (1 + O(d u)) by Weyl's inequality,

        s_min^2 >= shift / 2 >= (2/3)(tol t / 2) + (1/3) bound >= (tol / 3) s_max^2

    when tol d <= 1: s_min / s_max >= sqrt(tol / 3) > tol for tol < 1/3, and s_min > tol,
    which is checked as shift > 2 tol^2.  No Gram test can prove a rank
    deficiency at such a tol: eigenvalues of H near zero carry an error of
    about eps s_max^2, a singular value error of about 1e-8 s_max.
    """
    d = H.shape[0]
    t = float(H.trace().real)
    shift = max(tol * t, 2 * bound + 4 * (d + 2) * EPS * t)
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
    """Numerical rank data for a complex matrix, from an economy SVD.

    ``rowspace`` holds an orthonormal basis of the row space (the right
    singular vectors of the kept singular values) as columns.  ``gap`` is
    the ratio (first dropped sv / last kept sv), or None when no singular
    value was dropped or kept.
    """

    rank: int
    rowspace: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    gap: float | None = None


def rank_nullspace(M, tol=DEFAULT_TOL, floor=0.0):
    """Rank and row space of M from an economy SVD.

    The rank counts singular values above ``tol`` times the largest one.
    ``floor`` is an absolute cutoff below which singular values are never
    counted, so that a matrix of pure rounding noise comes out rank 0.  A
    wide M forms no square matrix of its column count; the right null space
    is the orthogonal complement of ``rowspace`` (``_complement``).
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.size == 0:
        raise ShapeError(f"rank_nullspace() needs a nonempty 2-d matrix, got shape {M.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    rank = _rank(s, tol, floor)
    gap = None
    if 0 < rank < s.size:
        gap = float(s[rank] / s[rank - 1])
    return RankResult(rank=rank, rowspace=vh[:rank].conj().T, singular_values=s, gap=gap)


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
