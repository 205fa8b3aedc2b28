"""Maps between calculi: pushforward/pullback of linear maps between
subspaces, conjugation equivalences, and the derived "Lie" derivative."""

from dataclasses import dataclass, field

import numpy as np

from .algebra import Subspace, validate_subspace
from .calculus import Form, _canonical_norms, canonicalize
from .errors import ConfigError, DegreeError, ShapeError, SingularTransform, ValidationError
from .genalg import _check_conditioning, _structure_F
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
    """U(h) = u h u^-1 for invertible u; ``from_matrix`` keeps u scaled to spectral norm 1."""

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
        u = u / sv[0]  # U ignores the scale of u; at norm 1, no norm of u^-1 overflows
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


def check_equivalence(U, B, tower, tol=DEFAULT_TOL):
    """Verify that conjugation by u is a d-homomorphism of calculi, exactly, on generators.

    The conjugated subspace B', lambda'_a = u lambda_a u^-1, keeps B's L, as
    conjugation is multiplicative and fixes 1, so its calculus shares B's
    factors N_p.  U^star maps its forms to B's by f -> u^-1 f u on the
    coefficients: that acts on the matrix indices only, so it commutes with
    every W_p W_p^dag.  With delta_a = u^-1 lambda'_a u - lambda_a, zero but
    for rounding, and F' the structure constants of B' (formed alone, without
    its t and rho), each residual is read from n m^2 + n^3 numbers and no form:

    - ``coframe``: U^star theta'^a - theta^a = (u^-1 u - 1) theta^a, so
      |u^-1 u - 1|_F for every a;
    - ``theta``: U^star theta' - theta = -delta_a theta^a, so |delta| / |lambda|;
    - ``products``: U^star(x y) - U^star(x) U^star(y) = u^-1 x (1 - u u^-1) y u
      on the coefficients, since the co-frame is central.  Over matrix units
      x = E_ij, y = E_kl this rank-one matrix peaks at max_i |u^-1 e_i|
      max_jk |(u u^-1 - 1)_jk| max_l |e_l^T u|, which bounds the defect for
      unit coefficients of every degree, projected or not;
    - ``d_commutation``: D = U^star d' (U^star)^-1 - d is a graded derivation,
      so it vanishes on Omega iff it vanishes on the generators E_ij and
      theta^a.  D(f) = [delta_a, f] theta^a, so |D(E_ij)| <= 2 |delta|.
      D(theta^a) is pi_2 of the delta terms of -[theta, theta^a],
      delta_b (theta^b theta^a + theta^a theta^b), minus pi_2(F'^a - F^a) (x) 1
      from chi, so relative to |theta^a| = sqrt(m) it is at most
      2 |delta| / sqrt(m) + |pi_2(F'^a - F^a)|.  The residual
      (2 |delta| + max_a |pi_2(F'^a - F^a)|) / |lambda| bounds both relative
      to |g| |lambda|.  The raw F' - F is O(1) for a u that is not unitary, as
      F is defined through the trace inner product; only its part modulo the
      relations must vanish, and it does, since alpha^bc rho_bc = 0 carries over.

    Every residual passes below ``EQUIVALENCE_BOUND``.
    """
    if tower.max_degree < 2:
        raise ConfigError("equivalence checks need max_degree >= 2")
    if U.u.shape != (B.m, B.m):
        raise ShapeError(f"conjugating matrix has shape {U.u.shape}, expected ({B.m}, {B.m})")
    Bp = conjugate_subspace(U, B, tol=tol)
    _check_conditioning(Bp, max(tol, 1e-7))
    m, n = B.m, B.n
    lam = np.linalg.norm(B.lambdas)
    delta = np.linalg.norm(U.unapply(Bp.lambdas) - B.lambdas)
    dF = (_structure_F(Bp) - tower.ga.F).reshape(n, n * n)
    res_coframe = float(np.linalg.norm(U.u_inv @ U.u - np.eye(m)))
    res_theta = float(delta / lam)
    res_prod = float(np.linalg.norm(U.u_inv, axis=0).max()
                     * np.abs(U.u @ U.u_inv - np.eye(m)).max()
                     * np.linalg.norm(U.u, axis=1).max())
    res_d = float((2 * delta + _canonical_norms(tower, 2, dF).max()) / lam)
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
