"""Degree-1 slice of the universal calculus over M_m(C): the universal
differential du, the form theta_u that generates it, and the two checks that
verify runs on them (the trace lemma and du(f) = -[theta_u, f]).

Each takes a full basis gamma_mu of M_m(C) and its trace duals gamma^mu
(``algebra.matrix_basis_duals``), which a caller forms once for all of them.

An element X = sum_k f_k (x) g_k of A (x) A is held as one m^2 x m^2 array,
its Kronecker matrix sum_k kron(f_k, g_k); that is faithful and never
larger than the list of pairs.  Row (i, k) and column (j, l) of X hold the
coefficient of e_ij (x) e_kl, so the bimodule actions are matrix products
on a reshaped X:

    h.X = kron(h, 1) X   is   h @ X.reshape(m, m^3)
    X.h = X kron(1, h)   is   X.reshape(m^3, m) @ h

each O(m^5), with no Kronecker product formed.
"""

import numpy as np

from .calculus import trial_batches
from .errors import ShapeError

__all__ = [
    "commutator",
    "du",
    "theta_u",
    "verify_trace_lemma",
    "universal_identity_residual",
]


def _kron_sum(F, G):
    """sum_t kron(F[..., t], G[t]) for stacks F (..., terms, m, m) and G (terms, m, m), by GEMM."""
    m, lead = F.shape[-1], F.shape[:-3]
    F, G = (np.asarray(x, dtype=complex).reshape(x.shape[:-3] + (-1, m * m)) for x in (F, G))
    # (F^T G)[(i, j), (k, l)] = sum_t f_t[i, j] g_t[k, l] = kron-sum at [(i, k), (j, l)]
    K = (np.swapaxes(F, -1, -2) @ G).reshape(lead + (m,) * 4)
    return K.swapaxes(-3, -2).reshape(lead + (m * m, m * m))


def commutator(h, X):
    """[h, X] = h.X - X.h in the bimodule sense, for X in Kronecker layout.

    A stack of matrices h gives the stack of their commutators with X, or,
    when X is a stack as long, with the X of the same index.
    """
    m = h.shape[-1]
    lead = X.shape[:-2]
    shape = np.broadcast_shapes(h.shape[:-2], lead) + X.shape[-2:]
    return ((h @ X.reshape(lead + (m, -1))).reshape(shape)
            - (X.reshape(lead + (-1, m)) @ h).reshape(shape))


def du(f):
    """Universal differential of a matrix, or of each of a stack: 1 (x) f - f (x) 1."""
    f = np.asarray(f, dtype=complex)
    if f.ndim < 2 or f.shape[-1] != f.shape[-2]:
        raise ShapeError(f"du() needs a square matrix, got {f.shape}")
    eye = np.eye(f.shape[-1], dtype=complex)
    return np.kron(eye, f) - np.kron(f, eye)


def theta_u(basis_gamma, duals):
    """theta_u = (1/m) sum_mu gamma_mu (x) gamma^{mu dag} - 1 (x) 1, gamma^mu the ``duals``."""
    gam = np.asarray(basis_gamma, dtype=complex)
    m = gam.shape[1]
    return _kron_sum(gam / m, np.asarray(duals).conj().transpose(0, 2, 1)) - np.eye(m * m)


def _worst_norm(stack):
    """The largest Frobenius norm of the arrays of a stack."""
    return float(np.linalg.norm(stack.reshape(len(stack), -1), axis=1).max())


def verify_trace_lemma(basis_gamma, duals, trials=20, seed=0):
    """Numerical check of the basis-completeness identities.

    For random f, g: sum_mu gamma_mu f gamma^{mu dag} = tr(f) 1, and
    f (gamma_mu g (x) gamma^{mu dag}) = (gamma_mu g (x) gamma^{mu dag}) f
    in the Kronecker representation of A (x) A.  The trials run in stacked
    batches; a batch keeps up to four m^2 x m^2 tables per trial: the
    products gamma_mu g, the sum and its two products with f.  Both residuals
    are judged against ``bound`` = 1e-10 * m.  ``seed`` is anything
    ``numpy.random.default_rng`` takes, such as a child ``SeedSequence``.
    """
    gam = np.asarray(basis_gamma, dtype=complex)
    gdual_dag = np.asarray(duals).conj().transpose(0, 2, 1)
    m = gam.shape[1]
    rng = np.random.default_rng(seed)
    res_trace = res_comm = 0.0
    for count in trial_batches(trials, 4 * m ** 4):
        # per trial: re f, im f, re g, im g, in the order of one draw per matrix
        z = rng.standard_normal((count, 4, m, m))
        f = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
        g = (z[:, 2] + 1j * z[:, 3]) / np.sqrt(2)
        total = np.einsum("uij,tjk,ukl->til", gam, f, gdual_dag, optimize=True)
        total -= np.trace(f, axis1=1, axis2=2)[:, None, None] * np.eye(m)
        res_trace = max(res_trace, _worst_norm(total))
        res_comm = max(res_comm, _worst_norm(commutator(f, _kron_sum(gam @ g[:, None],
                                                                     gdual_dag))))
    bound = 1e-10 * m
    return {
        "trace_identity": res_trace,
        "tensor_commutator": res_comm,
        "bound": bound,
        "passed": bool(res_trace < bound and res_comm < bound),
    }


def universal_identity_residual(basis_gamma, duals, trials, rng):
    """Worst |f.theta_u - theta_u.f - du(f)| over ``trials`` random matrices f.

    f.theta_u - theta_u.f = -[theta_u, f] is du(f).  Each trial draws the
    real part of f, then the imaginary part, from the numpy Generator
    ``rng``.  A batch keeps up to four m^2 x m^2 tables per trial:
    [f, theta_u] and the three of du(f).
    """
    th = theta_u(basis_gamma, duals)
    m = np.shape(basis_gamma)[-1]
    worst = 0.0
    for count in trial_batches(trials, 4 * m ** 4):
        z = rng.standard_normal((count, 2, m, m))
        f = z[:, 0] + 1j * z[:, 1]
        worst = max(worst, _worst_norm(commutator(f, th) - du(f)))
    return worst
