"""Maps between calculi: pushforward/pullback of linear maps between
subspaces, conjugation equivalences, and the derived "Lie" derivative."""

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import Subspace, validate_subspace
from .calculus import (
    Form,
    TrialDraws,
    canonicalize,
    coframe,
    exterior_d,
    form_norm,
    theta,
    trial_batches,
    wedge,
)
from .errors import ConfigError, DegreeError, ShapeError, SingularTransform, ValidationError
from .genalg import use_relations
from .linalg import DEFAULT_TOL, _at_slot, gram

__all__ = [
    "LinearMap",
    "Conjugation",
    "pushforward",
    "pullback",
    "conjugate_subspace",
    "check_equivalence",
    "lie_derivative",
]

# Each residual of ``check_equivalence`` passes below this bound.
EQUIVALENCE_BOUND = 1e-8


@dataclass(frozen=True)
class LinearMap:
    """phi: B -> B' with phi(lambda_b) = M^c_b lambda'_c; M is n' x n."""

    source: Subspace
    target: Subspace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        if M.shape != (self.target.n, self.source.n):
            raise ShapeError(
                f"map matrix has shape {M.shape}, expected "
                f"({self.target.n}, {self.source.n})"
            )


@dataclass(frozen=True)
class Conjugation:
    """U(h) = u h u^-1 for invertible u."""

    u: np.ndarray = field(repr=False)
    u_inv: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_matrix(cls, u, tol=DEFAULT_TOL):
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ShapeError(f"conjugating matrix must be square, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValidationError("conjugating matrix has a non-finite entry")
        sv = np.linalg.svd(u, compute_uv=False)
        if sv[-1] <= tol * sv[0]:
            ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
            raise SingularTransform(
                f"conjugating matrix is singular (sv ratio {ratio:.3e})"
            )
        return cls(u=u, u_inv=np.linalg.inv(u))

    def apply(self, f):
        return self.u @ f @ self.u_inv

    def unapply(self, f):
        return self.u_inv @ f @ self.u


def pushforward(phi, b):
    """Expansion of ad(phi(lambda_b)) over {ad(lambda'_c)}: column b of M."""
    return np.asarray(phi.matrix, dtype=complex)[:, b].copy()


def pullback(phi, xi, source_tower):
    """Pull a form on the target calculus back along phi.

    Coefficients transform by the map matrix in every slot, then are
    canonicalized in the source tower.
    """
    p = xi.degree
    if p > source_tower.max_degree:
        raise DegreeError(f"degree {p} outside the source tower range")
    Mt = np.asarray(phi.matrix, dtype=complex).T
    coeffs = xi.coeffs
    for q in range(p):
        # contract the target index c in slot q with M^c_b
        coeffs = _at_slot(Mt, coeffs, q)
    return Form(source_tower, p, canonicalize(source_tower, p, coeffs))


def conjugate_subspace(U, B, tol=DEFAULT_TOL):
    """B' with basis lambda'_a = u lambda_a u^-1."""
    primed = [U.apply(lam) for lam in B.lambdas]
    label = f"{B.label}~conj" if B.label else "conjugated"
    return validate_subspace(B.m, primed, tol=tol, label=label)


def _ustar(U, tower, xi):
    """U^star: a form over the conjugated calculus, expressed in B's tower.

    With matched bases the index structure is unchanged and coefficients map
    by f -> u^-1 f u, on the matrix indices only: it commutes with W_p W_p^dag,
    so a form canonical in a tower sharing ``tower``'s bases needs no projection.
    """
    return Form(tower, xi.degree, U.u_inv @ xi.coeffs @ U.u)


def check_equivalence(U, B, tower, trials=10, seed=0, tol=DEFAULT_TOL):
    """Verify that conjugation by u is a d-homomorphism of calculi.

    Builds the conjugated subspace with the transported relation matrix,
    then checks co-frame preservation, theta preservation, product
    preservation, and commutation of U^star with d on random forms.  The
    transported relations give the same P, hence the same canonical spaces,
    so the conjugated calculus is a copy of the tower that shares its bases,
    the top degree's included: each basis is formed once, for both.
    """
    G = tower.ga
    if tower.max_degree < 2:
        raise ConfigError("equivalence checks need max_degree >= 2")
    if U.u.shape != (B.m, B.m):
        raise ShapeError(f"conjugating matrix has shape {U.u.shape}, expected ({B.m}, {B.m})")
    Bp = conjugate_subspace(U, B, tol=tol)
    Gp = use_relations(Bp, G.alpha, tol=max(tol, 1e-7))
    tower_p = replace(tower, ga=Gp)
    rng = np.random.default_rng(seed)
    scale = max(np.linalg.norm(B.lambdas), 1.0)

    res_coframe = max(
        form_norm(_ustar(U, tower, coframe(tower_p, a)) - coframe(tower, a))
        for a in range(B.n)
    )
    res_theta = form_norm(_ustar(U, tower, theta(tower_p)) - theta(tower))

    # Each trial draws two 1-forms for the product check, then one form of
    # each degree below max_degree for d; a batch of trials is one stacked call.
    degrees = [1, 1, *range(tower.max_degree)]
    res_prod = 0.0
    res_d = 0.0
    for count in trial_batches(trials, B.n ** tower.max_degree * B.m ** 2):
        draws = TrialDraws(tower_p, degrees, rng, count)
        xi, zeta = draws.form(0), draws.form(1)
        lhs = _ustar(U, tower, wedge(xi, zeta))
        rhs = wedge(_ustar(U, tower, xi), _ustar(U, tower, zeta))
        denom = np.maximum(np.maximum(form_norm(lhs), form_norm(rhs)), 1.0)
        res_prod = max(res_prod, float((form_norm(lhs - rhs) / denom).max()))
        for deg in range(tower.max_degree):
            om = draws.form(2 + deg)
            lhs = _ustar(U, tower, exterior_d(om))
            rhs = exterior_d(_ustar(U, tower, om))
            denom = np.maximum(form_norm(om) * scale ** 2, 1.0)
            res_d = max(res_d, float((form_norm(lhs - rhs) / denom).max()))
    return {
        "coframe": res_coframe,
        "theta": res_theta,
        "products": res_prod,
        "d_commutation": res_d,
        "passed": bool(max(res_coframe, res_theta, res_prod, res_d) < EQUIVALENCE_BOUND),
    }


def lie_derivative(tower, f, xi):
    """Degree-preserving derivative induced by conjugation flow along f.

    On degree 0 it reduces to g -> -[f, g]; on higher degrees it adds the
    insertion of <lambda^b, [f, lambda_c]> into every slot of the canonical
    coefficients.
    """
    f = np.asarray(f, dtype=complex)
    p = xi.degree
    if p > tower.max_degree:
        raise DegreeError(f"degree {p} outside the tower range")
    B = tower.ga.subspace
    first = f @ xi.coeffs - xi.coeffs @ f
    # Wt[c, b] = <lambda^b, [f, lambda_c]>
    comm = f @ B.lambdas - B.lambdas @ f
    Wt = gram(B.dual.duals, comm).T
    second = np.zeros_like(xi.coeffs)
    for q in range(p):
        second += _at_slot(Wt, xi.coeffs, q)
    out = -first + second
    return Form(tower, p, canonicalize(tower, p, out))
