"""Degree-1 slice of the universal calculus over M_m(C): the form theta_u that
generates the universal differential du(f) = 1 (x) f - f (x) 1, and the
checks that verify runs on it (the trace lemma and du(f) = -[theta_u, f]).

Each takes a full basis gamma_mu of M_m(C) and its trace duals gamma^mu
(``algebra.matrix_basis_duals``), which a caller forms once for all of them.

An element X = sum_k f_k (x) g_k of A (x) A is held as one m^2 x m^2 array,
its Kronecker matrix sum_k kron(f_k, g_k); that is faithful and never
larger than the list of pairs.  Row (i, k) and column (j, l) of X hold the
coefficient of e_ij (x) e_kl, so the bimodule actions are matrix products:
h.X = kron(h, 1) X and X.h = X kron(1, h).

Both identities are linear in f, so they hold for every f iff they hold on
the m^2 matrix units E_pq; ``verify_trace_lemma`` decides them there, in
closed form, from the one table K = sum_mu gamma_mu (x) gamma^{mu dag}.
"""

import numpy as np

__all__ = [
    "theta_u",
    "verify_trace_lemma",
]


def _kron_sum(F, G):
    """sum_t kron(F[..., t], G[t]) for stacks F (..., terms, m, m) and G (terms, m, m), by GEMM."""
    m, lead = F.shape[-1], F.shape[:-3]
    F, G = (np.asarray(x, dtype=complex).reshape(x.shape[:-3] + (-1, m * m)) for x in (F, G))
    # (F^T G)[(i, j), (k, l)] = sum_t f_t[i, j] g_t[k, l] = kron-sum at [(i, k), (j, l)]
    K = (np.swapaxes(F, -1, -2) @ G).reshape(lead + (m,) * 4)
    return K.swapaxes(-3, -2).reshape(lead + (m * m, m * m))


def theta_u(basis_gamma, duals):
    """theta_u = (1/m) sum_mu gamma_mu (x) gamma^{mu dag} - 1 (x) 1, gamma^mu the ``duals``."""
    gam = np.asarray(basis_gamma, dtype=complex)
    m = gam.shape[1]
    return _kron_sum(gam / m, np.asarray(duals).conj().transpose(0, 2, 1)) - np.eye(m * m)


def verify_trace_lemma(basis_gamma, duals):
    """Exact check of the basis-completeness identities, on the matrix units E_pq.

    K = sum_mu gamma_mu (x) gamma^{mu dag} = m (theta_u + 1 (x) 1) must be the
    swap S, S[(i, k), (j, l)] = delta_il delta_kj; R = K - S is its error.
    Each residual is the root-sum-square of an identity's error over the
    E_pq, and so bounds that error by residual * |f|_F for every matrix f:

    - ``trace_identity``: sum_mu gamma_mu f gamma^{mu dag} - tr(f) 1, which
      is |R|_F.
    - ``tensor_commutator``: f.K - K.f = f.R - R.f, since S commutes with
      both actions.  Its square is 2m |R|_F^2 - 2 |T|_F^2, T = sum_q
      R4[q, :, :, q] and R4 being R as (i, k, j, l).  f.X(g) - X(g).f for
      X(g) = sum_mu gamma_mu g (x) gamma^{mu dag} = K kron(g, 1) is that
      times kron(g, 1), so is bounded by it times |f|_F |g|_2.
    - ``universal_identity``: f.theta_u - theta_u.f - du(f), which is
      (f.K - K.f) / m, so ``tensor_commutator`` / m.

    ``passed`` judges the first two against ``bound`` = 1e-10 * m.  Peak
    memory is a few m^2 x m^2 tables.
    """
    m = np.shape(basis_gamma)[-1]
    R = theta_u(basis_gamma, duals)
    R.flat[::m * m + 1] += 1.0
    R *= m
    R4 = R.reshape((m,) * 4)
    R4 -= np.eye(m * m).reshape((m,) * 4).swapaxes(2, 3)
    trace = float(np.linalg.norm(R))
    # f.R - R.f is zero exactly on the tables delta_il A[k, j] (S is one), so
    # 2m |R|^2 - 2 |T|^2 is 2m |R - P R|^2, P the projection onto them
    # (A = T / m); taken that way, no rounding of an error along S cancels.
    q = np.arange(m)
    R4[q, :, :, q] -= np.trace(R4, axis1=0, axis2=3) / m
    comm = float(np.sqrt(2 * m) * np.linalg.norm(R))
    bound = 1e-10 * m
    return {
        "trace_identity": trace,
        "tensor_commutator": comm,
        "universal_identity": comm / m,
        "bound": bound,
        "passed": bool(trace < bound and comm < bound),
    }
