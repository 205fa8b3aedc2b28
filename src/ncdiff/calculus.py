"""The differential calculus over a generalised algebra: co-frame 1-forms,
the tower of p-form coefficient projectors, wedge product, contraction,
the insertion map chi, and the exterior derivative d = -[theta, .] + chi.

A degree-p form is stored by its canonical coefficient table: an array of
shape (n,)*p + (m, m) whose pair-index content lies in the image of the
canonical projector Pi_p.  Pi_p projects onto the orthogonal complement of
the adjacent-slot relation span (the left null space of P lifted to every
adjacent slot pair), so two coefficient tables describe the same form iff
they canonicalize identically.  The contraction tensor on p-tuples of
derivations is conj(Pi_p); at degree 2 it reduces to the projector P itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import matrix_basis_duals
from .errors import DegreeError, ShapeError
from .linalg import DEFAULT_TOL, dagger, lift_to_slots, rank_nullspace, span_projector

__all__ = [
    "FormTower",
    "Form",
    "build_tower",
    "zero_form",
    "scalar_form",
    "coframe",
    "theta",
    "wedge",
    "contract",
    "chi",
    "exterior_d",
    "lmul",
    "rmul",
    "form_norm",
    "epsilon_check",
    "check_structure_equations",
    "coframe_from_formula",
    "random_form",
]


@dataclass(frozen=True)
class FormTower:
    """Per-degree canonical projectors Pi_p and ranks D_p for one calculus."""

    ga: object
    max_degree: int
    projectors: dict = field(repr=False)     # p >= 2 -> Pi_p on C^{n^p}
    ranks: dict = field(default_factory=dict)  # p -> D_p

    @property
    def n(self):
        return self.ga.subspace.n

    @property
    def m(self):
        return self.ga.subspace.m


@dataclass(frozen=True)
class Form:
    """Degree-p element of Omega^p_B with canonicalized coefficients."""

    tower: FormTower
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __add__(self, other):
        self._compat(other)
        return Form(self.tower, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._compat(other)
        return Form(self.tower, self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return Form(self.tower, self.degree, -self.coeffs)

    def __rmul__(self, c):
        if np.isscalar(c):
            return Form(self.tower, self.degree, c * self.coeffs)
        return NotImplemented

    def _compat(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            raise DegreeError("form degrees do not match")


def _relation_span(left_null, p):
    """Degree-p relation span: ``left_null`` lifted to every adjacent slot pair."""
    return np.hstack([lift_to_slots(left_null, p, q) for q in range(1, p)])


def build_tower(G, max_degree, tol=DEFAULT_TOL):
    """Canonical coefficient projectors up to ``max_degree``.

    The degree-p relation span is the sum over adjacent slot pairs of the
    left null space of P; Pi_p is the orthogonal projector onto its
    complement and D_p its rank.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    n = G.subspace.n
    left_null = rank_nullspace(G.P.T, tol=tol).nullspace  # n^2 x (n^2 - R)
    projectors = {}
    ranks = {0: 1, 1: n}
    for p in range(2, max_degree + 1):
        dim = n ** p
        if left_null.shape[1] == 0:
            projectors[p] = np.eye(dim, dtype=complex)
            ranks[p] = dim
            continue
        proj_onto_relations = span_projector(_relation_span(left_null, p), tol=tol)
        projectors[p] = np.eye(dim, dtype=complex) - proj_onto_relations
        ranks[p] = dim - int(round(np.real(np.trace(proj_onto_relations))))
    return FormTower(ga=G, max_degree=max_degree, projectors=projectors, ranks=ranks)


def canonicalize(tower, degree, coeffs):
    """Project a raw coefficient table onto the canonical subspace."""
    if degree < 2:
        return np.asarray(coeffs, dtype=complex)
    n, m = tower.n, tower.m
    pi = tower.projectors[degree]
    flat = np.asarray(coeffs, dtype=complex).reshape(n ** degree, m * m)
    return (pi @ flat).reshape((n,) * degree + (m, m))


def _check_degree(tower, p):
    if p > tower.max_degree:
        raise DegreeError(f"degree {p} exceeds tower max_degree {tower.max_degree}")
    if p < 0:
        raise DegreeError("negative degree")


def zero_form(tower, degree):
    _check_degree(tower, degree)
    n, m = tower.n, tower.m
    return Form(tower, degree, np.zeros((n,) * degree + (m, m), dtype=complex))


def scalar_form(tower, f):
    """Wrap a matrix as a degree-0 form."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (tower.m, tower.m):
        raise ShapeError(f"expected shape ({tower.m}, {tower.m}), got {f.shape}")
    return Form(tower, 0, f)


def coframe(tower, a):
    """The basis 1-form theta^a: coefficient 1 at index a."""
    n, m = tower.n, tower.m
    if not (0 <= a < n):
        raise IndexError(f"co-frame index {a} out of range 0..{n - 1}")
    c = np.zeros((n, m, m), dtype=complex)
    c[a] = np.eye(m)
    return Form(tower, 1, c)


def theta(tower):
    """theta = -lambda_a theta^a, the generator of d on degree 0."""
    return Form(tower, 1, -tower.ga.subspace.lambdas.copy())


def lmul(f, xi):
    """Left module action f . xi."""
    f = np.asarray(f, dtype=complex)
    return Form(xi.tower, xi.degree, np.einsum("ij,...jk->...ik", f, xi.coeffs))


def rmul(xi, f):
    """Right module action xi . f."""
    f = np.asarray(f, dtype=complex)
    return Form(xi.tower, xi.degree, np.einsum("...ij,jk->...ik", xi.coeffs, f))


def wedge(xi, zeta):
    """Product of forms; coefficients multiply since the co-frame is central."""
    p, q = xi.degree, zeta.degree
    tower = xi.tower
    if p + q > tower.max_degree:
        raise DegreeError(f"wedge degree {p + q} exceeds max_degree {tower.max_degree}")
    n, m = tower.n, tower.m
    a = xi.coeffs.reshape(n ** p, m, m)
    b = zeta.coeffs.reshape(n ** q, m, m)
    out = np.einsum("aij,bjk->abik", a, b).reshape((n,) * (p + q) + (m, m))
    return Form(tower, p + q, canonicalize(tower, p + q, out))


def contract(xi, indices):
    """Evaluate xi on the derivations (e_{b1}, ..., e_{bp}).

    The contraction tensor is conj(Pi_p); for xi = theta^a theta^b this
    returns the projector entry P^{ab}_{cd} times the identity.
    """
    p = xi.degree
    indices = tuple(indices)
    if len(indices) != p:
        raise ShapeError(f"need {p} indices, got {len(indices)}")
    n, m = xi.tower.n, xi.tower.m
    if p == 0:
        return xi.coeffs.copy()
    flat = xi.coeffs.reshape(n ** p, m, m)
    if p == 1:
        return flat[indices[0]].copy()
    col = np.ravel_multi_index(indices, (n,) * p)
    T = xi.tower.projectors[p].conj()
    return np.tensordot(T[:, col], flat, axes=(0, 0))


def chi(xi):
    """The A-bilinear insertion map raising degree by one.

    chi(f theta^{a1}..theta^{ap}) inserts <lambda^{aq}, lambda_b lambda_c>
    theta^b theta^c at slot q with sign (-1)^q.
    """
    tower = xi.tower
    p = xi.degree
    if p == 0:
        raise DegreeError("chi is defined on degree >= 1")
    _check_degree(tower, p + 1)
    F = tower.ga.F
    out = np.zeros((tower.n,) * (p + 1) + (tower.m, tower.m), dtype=complex)
    for q in range(1, p + 1):
        term = np.tensordot(xi.coeffs, F, axes=([q - 1], [0]))
        # tensordot leaves (b, c) at the end, after the matrix axes
        term = np.moveaxis(term, (-2, -1), (q - 1, q))
        out += (-1) ** q * term
    return Form(tower, p + 1, canonicalize(tower, p + 1, out))


def exterior_d(xi):
    """Exterior derivative: -[theta, xi] (graded) + chi(xi).

    On degree 0 this is the commutator form df = [lambda_a, f] theta^a.
    Into a zero-rank target space the result is the zero form.
    """
    tower = xi.tower
    p = xi.degree
    _check_degree(tower, p + 1)
    lam = tower.ga.subspace.lambdas
    if p == 0:
        f = xi.coeffs
        c = np.einsum("aij,jk->aik", lam, f) - np.einsum("ij,ajk->aik", f, lam)
        return Form(tower, 1, c)
    if tower.ranks[p + 1] == 0:
        return zero_form(tower, p + 1)
    th = theta(tower)
    graded = wedge(th, xi) - (-1) ** p * wedge(xi, th)
    return -1 * graded + chi(xi)


def form_norm(xi):
    """Frobenius norm of the full coefficient table."""
    return float(np.linalg.norm(xi.coeffs))


def epsilon_check(G, p, tol=DEFAULT_TOL):
    """Solvability of the higher-form coefficient chain at degree p.

    The chain asks for eps_t, t = 0..p-2, whose lifts X = (1 (x) alpha (x) 1)
    eps_t at adjacent slot pair (t, t+1) all agree.  alpha is injective, so
    the solutions are the X in every lifted range(alpha): the complement of
    conj(relation span), which is conj(range Pi_p) and has dimension D_p.
    Each eps_t = (1 (x) beta (x) 1) X.  Returns (exists, basis, dim) where
    ``exists`` means a nonzero solution exists at tolerance; basis columns
    use the unknown layout x[t, A, r] with A in n^(p-2) row-major.
    """
    if p < 3:
        raise ValueError("epsilon_check requires p >= 3")
    n = G.subspace.n
    R = G.R
    if R == 0:
        return False, None, 0
    left_null = rank_nullspace(G.P.T, tol=tol).nullspace
    if left_null.shape[1] == 0:
        X = np.eye(n ** p, dtype=complex)
    else:
        X = rank_nullspace(_relation_span(left_null, p).T, tol=tol).nullspace
    dim = X.shape[1]
    if dim == 0:
        return False, None, 0
    Xr = X.reshape((n,) * p + (dim,))
    beta = G.beta.reshape(R, n, n)
    eps = [np.moveaxis(np.tensordot(beta, Xr, axes=([1, 2], [t, t + 1])), 0, -2)
           .reshape(n ** (p - 2) * R, dim) for t in range(p - 1)]
    return True, np.vstack(eps), dim


def check_structure_equations(tower, tol=DEFAULT_TOL):
    """Residuals of the two co-frame structure equations and the relation form."""
    if tower.max_degree < 2:
        raise ValueError("structure equations need max_degree >= 2")
    G = tower.ga
    B = G.subspace
    n, m = B.n, B.m
    th = theta(tower)
    # d theta + theta^2 = -(1/m) t_ab theta^a theta^b
    lhs = exterior_d(th) + wedge(th, th)
    rhs = np.einsum("ab,ij->abij", -G.t / m, np.eye(m))
    rhs = Form(tower, 2, canonicalize(tower, 2, rhs))
    res1 = form_norm(lhs - rhs)
    # d theta^a = -[theta, theta^a] - <lambda^a, lambda_b lambda_c> theta^b theta^c
    res2 = 0.0
    for a in range(n):
        ta = coframe(tower, a)
        lhs_a = exterior_d(ta)
        comm = wedge(th, ta) + wedge(ta, th)
        rhs_a = np.einsum("bc,ij->bcij", -G.F[a], np.eye(m))
        rhs_a = Form(tower, 2, canonicalize(tower, 2, rhs_a))
        res2 = max(res2, form_norm(lhs_a - (-1 * comm + rhs_a)))
    # eta_perp(lambda_a lambda_b) theta^a theta^b canonicalizes to zero
    rel = Form(tower, 2, canonicalize(tower, 2, G.rho))
    res3 = form_norm(rel)
    scale = max(np.linalg.norm(B.lambdas) ** 2, 1.0)
    return {
        "dtheta_plus_theta_sq": res1,
        "dtheta_a": res2,
        "relation_form": res3,
        "passed": bool(res1 < tol * scale and res2 < tol * scale and res3 < tol * scale),
    }


def coframe_from_formula(tower, basis_gamma, tol=DEFAULT_TOL):
    """Rebuild theta^a and theta from d on degree-0 elements.

    theta^a = sum_nu (gamma_nu lambda^{a dag}) d(gamma^{nu dag}) and
    theta = (1/m) sum_mu gamma_mu d(gamma^{mu dag}), for any basis gamma of
    M_m(C).  Returns the rebuilt forms and a residual report against the
    co-frame of the tower.
    """
    G = tower.ga
    B = G.subspace
    n, m = B.n, B.m
    gam = np.array([np.asarray(g, dtype=complex) for g in basis_gamma])
    gdual = matrix_basis_duals(gam, tol=tol)
    duals = G.dual.duals
    rebuilt = []
    report = {}
    scale = max(np.linalg.norm(B.lambdas), 1.0)
    for a in range(n):
        acc = zero_form(tower, 1)
        la_dag = dagger(duals[a])
        for nu in range(m * m):
            acc = acc + lmul(gam[nu] @ la_dag, exterior_d(scalar_form(tower, dagger(gdual[nu]))))
        rebuilt.append(acc)
        report[f"theta_{a}"] = form_norm(acc - coframe(tower, a))
    acc = zero_form(tower, 1)
    for mu in range(m * m):
        acc = acc + lmul(gam[mu] / m, exterior_d(scalar_form(tower, dagger(gdual[mu]))))
    report["theta"] = form_norm(acc - theta(tower))
    report["passed"] = bool(max(report.values()) < tol * scale * 10)
    return rebuilt, acc, report


def random_form(tower, degree, rng):
    """Canonicalized form with i.i.d. standard complex normal coefficients."""
    n, m = tower.n, tower.m
    shape = (n,) * degree + (m, m)
    raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return Form(tower, degree, canonicalize(tower, degree, raw))
