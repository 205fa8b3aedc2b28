"""Maps between calculi: pushforward/pullback of linear maps between
subspaces, conjugation equivalences, and the derived "Lie" derivative."""

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import Subspace, validate_subspace
from .calculus import Form, canonicalize, exterior_d, form_norm, theta
from .errors import ConfigError, DegreeError, ShapeError, SingularTransform, ValidationError
from .genalg import _check_conditioning, structure_constants
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


def check_equivalence(U, B, tower, tol=DEFAULT_TOL):
    """Verify that conjugation by u is a d-homomorphism of calculi, exactly, on generators.

    The conjugated structure keeps B's L, as conjugation is multiplicative and
    fixes 1, so the conjugated calculus is a copy of the tower that shares its
    bases, the top degree's included: each basis is formed once, for both.
    U^star acts on the matrix indices only, so it commutes with every
    W_p W_p^dag:

    - ``coframe`` and ``theta``: U^star theta'^a - theta^a, worst over a, and
      |U^star theta' - theta| / |lambda|;
    - ``products``: U^star(x y) - U^star(x) U^star(y) = u^-1 x (1 - u u^-1) y u
      on the coefficients, since the co-frame is central.  Over matrix units
      x = E_ij, y = E_kl this rank-one matrix peaks at max_i |u^-1 e_i|
      max_jk |(u u^-1 - 1)_jk| max_l |e_l^T u|, which bounds the defect for
      unit coefficients of every degree, projected or not;
    - ``d_commutation``: U^star d' (U^star)^-1 - d is a graded derivation, so it
      vanishes on Omega iff it vanishes on the generators E_ij and theta'^a:
      two stacked ``exterior_d`` calls on the conjugated calculus, each
      residual relative to |g| |lambda| for its generator g.

    Every residual passes below ``EQUIVALENCE_BOUND``.
    """
    G = tower.ga
    if tower.max_degree < 2:
        raise ConfigError("equivalence checks need max_degree >= 2")
    if U.u.shape != (B.m, B.m):
        raise ShapeError(f"conjugating matrix has shape {U.u.shape}, expected ({B.m}, {B.m})")
    Bp = conjugate_subspace(U, B, tol=tol)
    _check_conditioning(Bp, max(tol, 1e-7))
    F, t, rho = structure_constants(Bp)
    tower_p = replace(tower, ga=replace(G, subspace=Bp, F=F, t=t, rho=rho))
    m, n = B.m, B.n
    lam = np.linalg.norm(B.lambdas)

    units = Form(tower_p, 0, np.eye(m * m, dtype=complex).reshape(-1, m, m))
    coframes = Form(tower_p, 1, np.eye(n)[:, :, None, None] * np.eye(m, dtype=complex))
    res_coframe = float(form_norm(_ustar(U, tower, coframes) - coframes).max())
    res_theta = float(form_norm(_ustar(U, tower, theta(tower_p)) - theta(tower)) / lam)
    res_prod = float(np.linalg.norm(U.u_inv, axis=0).max()
                     * np.abs(U.u @ U.u_inv - np.eye(m)).max()
                     * np.linalg.norm(U.u, axis=1).max())
    res_d = 0.0
    for g in (units, coframes):
        defect = _ustar(U, tower, exterior_d(g)) - exterior_d(_ustar(U, tower, g))
        res_d = max(res_d, float((form_norm(defect) / (form_norm(g) * lam)).max()))
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
