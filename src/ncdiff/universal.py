"""Degree-1 slice of the universal calculus over M_m(C).

Elements of A (x) A are stored as lists of simple tensors and compared in
the Kronecker flattening, which is faithful at desk scale.  The flattening
sum_k kron(f_k, g_k) is one GEMM of the stacked, vectorised f_k against the
stacked, vectorised g_k, with its axes then reordered into Kronecker layout.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import matrix_basis_duals
from .errors import ShapeError
from .linalg import DEFAULT_TOL, dagger

__all__ = [
    "UElement",
    "du",
    "theta_u",
    "theta_u_a",
    "contract_ad",
    "verify_trace_lemma",
]


@dataclass(frozen=True)
class UElement:
    """Sum of simple tensors f_i (x) g_i in A (x) A."""

    m: int
    terms: tuple = field(repr=False)  # tuple of (f, g) matrix pairs

    def _stacks(self):
        """The left factors f_t and the right factors g_t as (terms, m, m) stacks."""
        m = self.m
        F = np.array([f for f, _ in self.terms], dtype=complex).reshape(-1, m, m)
        G = np.array([g for _, g in self.terms], dtype=complex).reshape(-1, m, m)
        return F, G

    def flatten(self):
        m = self.m
        F, G = (x.reshape(-1, m * m) for x in self._stacks())
        # (F^T G)[(i, j), (k, l)] = sum_t f_t[i, j] g_t[k, l] = kron-sum at [(i, k), (j, l)]
        return (F.T @ G).reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)

    def left(self, h):
        """h . (f (x) g) = hf (x) g."""
        F, G = self._stacks()
        return UElement(self.m, tuple(zip(h @ F, G)))

    def right(self, h):
        """(f (x) g) . h = f (x) gh."""
        F, G = self._stacks()
        return UElement(self.m, tuple(zip(F, G @ h)))

    def __add__(self, other):
        return UElement(self.m, self.terms + other.terms)

    def __neg__(self):
        return UElement(self.m, tuple((-f, g) for f, g in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def commutator(self, h):
        """[h, X] = h.X - X.h in the bimodule sense."""
        return self.left(h) - self.right(h)


def du(f):
    """Universal differential of a matrix: 1 (x) f - f (x) 1."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ShapeError(f"du() needs a square matrix, got {f.shape}")
    m = f.shape[0]
    eye = np.eye(m, dtype=complex)
    return UElement(m, ((eye, f.copy()), (-f, eye)))


def _basis_and_dual_daggers(basis_gamma, tol):
    """The basis gamma_mu as an (m^2, m, m) stack, and the stack of gamma^{mu dag}."""
    gam = np.array([np.asarray(g, dtype=complex) for g in basis_gamma])
    return gam, matrix_basis_duals(gam, tol=tol).conj().transpose(0, 2, 1)


def theta_u(basis_gamma, tol=DEFAULT_TOL):
    """theta_u = (1/m) sum_mu gamma_mu (x) gamma^{mu dag} - 1 (x) 1."""
    gam, gdual_dag = _basis_and_dual_daggers(basis_gamma, tol)
    m = gam.shape[1]
    eye = np.eye(m, dtype=complex)
    return UElement(m, tuple(zip(gam / m, gdual_dag)) + ((-eye, eye),))


def theta_u_a(basis_gamma, D, a, tol=DEFAULT_TOL):
    """theta^a_u = sum_mu gamma_mu lambda^{a dag} (x) gamma^{mu dag}."""
    gam, gdual_dag = _basis_and_dual_daggers(basis_gamma, tol)
    return UElement(gam.shape[1], tuple(zip(gam @ dagger(D.duals[a]), gdual_dag)))


def contract_ad(X, h):
    """Contraction of sum f_i (x) g_i against the derivation ad(h)."""
    h = np.asarray(h, dtype=complex)
    out = np.zeros((X.m, X.m), dtype=complex)
    for f, g in X.terms:
        out += f @ (h @ g - g @ h)
    return out


def verify_trace_lemma(basis_gamma, trials=20, seed=0, tol=1e-10):
    """Numerical check of the basis-completeness identities.

    For random f, g: sum_mu gamma_mu f gamma^{mu dag} = tr(f) 1, and
    f (gamma_mu g (x) gamma^{mu dag}) = (gamma_mu g (x) gamma^{mu dag}) f
    in the flattened tensor representation.  Both residuals are judged
    against ``bound`` = ``tol`` * m.
    """
    gam, gdual_dag = _basis_and_dual_daggers(basis_gamma, DEFAULT_TOL)
    m = gam.shape[1]
    rng = np.random.default_rng(seed)
    res_trace = 0.0
    res_comm = 0.0
    for _ in range(trials):
        f = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        total = (gam @ f @ gdual_dag).sum(axis=0)
        res_trace = max(res_trace, float(np.linalg.norm(total - np.trace(f) * np.eye(m))))
        X = UElement(m, tuple(zip(gam @ g, gdual_dag)))
        res_comm = max(res_comm, float(np.linalg.norm(X.commutator(f).flatten())))
    bound = tol * m
    return {
        "trace_identity": res_trace,
        "tensor_commutator": res_comm,
        "bound": bound,
        "passed": bool(res_trace < bound and res_comm < bound),
    }
