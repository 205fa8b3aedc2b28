import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from ncdiff import (algebra, calculus, catalog, detect_structure, genalg, maps, use_relations,
                    build_tower)
from ncdiff.errors import ShapeError
from ncdiff.universal import theta_u


# The catalog inputs of the benchmark workloads; a0 has no suggested alpha.
WORKLOAD_CATALOG = [("a0", 2), ("a0", 3), ("a0", 4), ("su2", 3), ("su2", 4), ("clock-shift", 5),
                    ("clock-shift", 8), ("ellipsoid", 4), ("ellipsoid", 6)]


def generic_subspace(m, n, seed):
    """A generic subspace: n seeded complex Gaussian m x m matrices, made traceless."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m
    return algebra.validate_subspace(m, list(lam))


def dense_nullspace(M, rank=None, tol=1e-9):
    """Orthonormal right null space of M from a full SVD, the dense reference for L and alpha.

    ``rank`` defaults to the count of singular values above tol s_max.
    """
    _, s, vh = np.linalg.svd(M)
    if rank is None:
        rank = int(np.count_nonzero(s > tol * s[0])) if s.size else 0
    return vh[rank:].conj().T


def dense_basis(tower, p):
    """W_p = (W_{p-1} (x) 1_n) N_p as a dense n^p x D_p matrix, from Kronecker products of the
    tower's factors; None below degree 2 or without relations, where every table is canonical."""
    if tower.relations is None or p < 2:
        return None
    W = tower.factor(2)
    for q in range(3, p + 1):
        W = np.kron(W, np.eye(tower.n)) @ tower.factor(q)
    return W


def dense_projector(alpha):
    """P = alpha (alpha^dag alpha)^-1 alpha^dag, the n^2 x n^2 projector onto alpha's span."""
    a_dag = alpha.conj().T
    return alpha @ np.linalg.solve(a_dag @ alpha, a_dag)


def random_identity_residuals(tower, trials, rng, raw=False):
    """Worst d o d = 0 and graded Leibniz residuals over ``trials`` seeded random trials.

    The random-trial reference for ``calculus.generator_residuals``, one
    trial at a time.  Each trial draws a form of each degree 0..min(2, top - 2)
    for d o d, then a (z, x) pair for each degree pair (dz, dx) in {0, 1}^2
    with dz + dx + 1 <= top.  d o d is relative to max(|om|, 1), Leibniz to
    max(|z| |x|, 1).  With ``raw`` the forms are raw random tables of
    T(V) (x) M_m, and d and the product are the unprojected ``calculus._raw_d``
    and ``calculus._raw_wedge``: the Leibniz residual then measures whether the
    raw d is a graded derivation of the tensor algebra, the fact that the
    generator checks rest on, and d o d is not checked (it holds only modulo
    the relations).
    """
    top, n, m = tower.max_degree, tower.n, tower.m

    def draw(p):
        if not raw:
            return calculus.random_form(tower, p, rng).coeffs
        shape = (n,) * p + (m, m)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    def d(t, p):
        return calculus._raw_d(tower, t, p) if raw else calculus.exterior_d(
            calculus.Form(tower, p, t)).coeffs

    def mul(a, p, b, q):
        if raw:
            return np.ascontiguousarray(calculus._raw_wedge(tower, a, p, b, q))
        return calculus.wedge(calculus.Form(tower, p, a), calculus.Form(tower, q, b)).coeffs

    worst_dd = worst_leib = 0.0
    for _ in range(trials):
        for p in range(min(2, top - 2) + 1) if not raw else ():
            om = draw(p)
            res = np.linalg.norm(d(d(om, p), p + 1)) / max(np.linalg.norm(om), 1.0)
            worst_dd = max(worst_dd, res)
        for dz in range(2):
            for dx in range(2):
                if dz + dx + 1 > top:
                    continue
                z, x = draw(dz), draw(dx)
                res = d(mul(z, dz, x, dx), dz + dx) - mul(d(z, dz), dz + 1, x, dx) \
                    - (-1.0) ** dz * mul(z, dz, d(x, dx), dx + 1)
                scale = max(np.linalg.norm(z) * np.linalg.norm(x), 1.0)
                worst_leib = max(worst_leib, np.linalg.norm(res) / scale)
    return float(worst_dd), float(worst_leib)


def generator_engine_residuals(tower, batch_bytes=1 << 20):
    """The generator reference for ``calculus.generator_residuals``: d applied to each generator.

    The worst |pi d(d g)| / |g| over the E_ij (degree 0) and theta^a (degree
    1), and the worst |pi_3 d(L_r (x) 1_m)| / |L_r (x) 1_m| over the columns
    L_r of null(P^T), relative to |lambda|^2 and |lambda|.  Each d is the
    projected one, and each generator stack runs in batches that keep two
    tables of its residual's degree per generator within ``batch_bytes``, and
    at least one generator.  A check into a zero-rank space is zero and left
    out.  Returns (d o d residual, Leibniz residual).
    """
    n, m = tower.n, tower.m
    one = np.eye(m, dtype=complex)
    Lr = np.empty((0, n, n)) if tower.relations is None else tower.relations
    # (generator stack, its degree, applications of d) for E_ij, theta^a and L_r (x) 1_m
    checks = [(np.eye(m * m, dtype=complex).reshape(-1, m, m), 0, 2),
              (np.eye(n)[:, :, None, None] * one, 1, 2),
              (Lr.conj()[..., None, None] * one, 2, 1)]
    worst = {1: 0.0, 2: 0.0}  # by applications of d: 2 for d o d, 1 for the ideal
    for gens, p, steps in checks:
        if not len(gens) or tower.ranks[p + steps] == 0:
            continue
        size = max(1, batch_bytes // (2 * 16 * n ** (p + steps) * m * m))
        for start in range(0, len(gens), size):
            g = calculus.Form(tower, p, gens[start:start + size])
            res = g
            for _ in range(steps):
                res = calculus.exterior_d(res)
            ratio = calculus.form_norm(res) / calculus.form_norm(g)
            worst[steps] = max(worst[steps], float(ratio.max()))
    lam = np.linalg.norm(tower.ga.subspace.lambdas)
    return worst[2] / lam ** 2, worst[1] / lam


def coframe_stack_residual(tower):
    """The stacked reference for ``calculus.check_structure_equations``' ``dtheta_a``.

    d theta^a + [theta, theta^a] + F^a_bc theta^b theta^c for all n co-frame
    forms theta^a as one stack, through the public ``exterior_d``, ``wedge``
    and ``canonicalize``: (n, n, n, m, m) tables.  Returns the worst form norm.
    """
    n, m = tower.n, tower.m
    th = calculus.theta(tower)
    ta = calculus.Form(tower, 1, np.einsum("ab,ij->abij", np.eye(n, dtype=complex), np.eye(m)))
    res = calculus.exterior_d(ta) + calculus.wedge(th, ta)
    res = res + calculus.wedge(ta, th)
    rhs = calculus.canonicalize(tower, 2, np.einsum("abc,ij->abcij", -tower.ga.F, np.eye(m)))
    return float(calculus.form_norm(res - calculus.Form(tower, 2, rhs)).max())


def ustar(U, tower, xi):
    """U^star: a form over the conjugated calculus, expressed in ``tower``, B's.

    With matched bases the index structure is unchanged and coefficients map
    by f -> u^-1 f u, on the matrix indices only: it commutes with W_p W_p^dag,
    so a form canonical in a tower sharing ``tower``'s bases needs no projection.
    """
    return calculus.Form(tower, xi.degree, U.u_inv @ xi.coeffs @ U.u)


def conjugated_tower(U, tower):
    """The calculus of the conjugated subspace as a copy of ``tower``: B's relations, so B's
    bases, and the structure constants of ``maps.conjugate_subspace``, F through
    ``maps._structure_F``, which the tests patch to plant defects."""
    Bp = maps.conjugate_subspace(U, tower.ga.subspace)
    _, t, rho = genalg.structure_constants(Bp)
    F = maps._structure_F(Bp)
    return dataclasses.replace(tower, ga=dataclasses.replace(tower.ga, subspace=Bp,
                                                             F=F, t=t, rho=rho))


def equivalence_generator_reference(U, tower):
    """The stacked reference for ``maps.check_equivalence``' ``d_commutation``.

    D = U^star d' (U^star)^-1 - d on B's generators g, the E_ij and the
    theta^a, each lifted to the conjugated calculus by (U^star)^-1: f -> u f u^-1,
    through one stacked ``exterior_d`` per calculus and degree: (n, n, n, m, m)
    tables.  Returns the worst |D(g)| / (|g| |lambda|).
    """
    n, m = tower.n, tower.m
    tower_p = conjugated_tower(U, tower)
    lam = np.linalg.norm(tower.ga.subspace.lambdas)
    units = np.eye(m * m, dtype=complex).reshape(-1, m, m)
    coframes = np.eye(n)[:, :, None, None] * np.eye(m, dtype=complex)
    worst = 0.0
    for p, g in ((0, units), (1, coframes)):
        g = calculus.Form(tower, p, g)
        lifted = calculus.Form(tower_p, p, U.apply(g.coeffs))
        defect = ustar(U, tower, calculus.exterior_d(lifted)) - calculus.exterior_d(g)
        worst = max(worst, float((calculus.form_norm(defect) / (calculus.form_norm(g) * lam)).max()))
    return worst


@st.composite
def matrix_stacks(draw, full=None, max_log_cond=6.0):
    """A stack of m x m matrices, m = 2..6, and its Gram condition number, 1 to 10^max_log_cond.

    Either n <= m^2 - 1 traceless matrices or a full basis of m^2, drawn
    unless ``full`` says which.  The stack is Q diag(s) V as m^2 x n columns,
    Q orthonormal (in the traceless hyperplane unless full) and V unitary, so
    the Gram is V^dag diag(s^2) V.
    """
    m = draw(st.integers(2, 6))
    full = draw(st.booleans()) if full is None else full
    n = m * m if full else draw(st.integers(1, m * m - 1))
    cond = 10.0 ** draw(st.floats(0.0, max_log_cond))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.standard_normal((m * m, n)) + 1j * rng.standard_normal((m * m, n))
    if not full:
        e = np.eye(m).reshape(-1) / np.sqrt(m)  # vec(1) / |1|, orthogonal to the traceless
        z -= np.outer(e, e @ z)
    q = np.linalg.qr(z)[0]
    v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    s = np.sqrt(np.geomspace(1.0, cond, n))
    return ((q * s) @ v).T.reshape(n, m, m), s[-1] ** 2 / s[0] ** 2


def commutator(h, X):
    """[h, X] = h.X - X.h in the bimodule sense, for X in Kronecker layout.

    h.X = kron(h, 1) X is h @ X.reshape(m, m^3), and X.h = X kron(1, h) is
    X.reshape(m^3, m) @ h.  A stack of matrices h gives the stack of their
    commutators with X, or, when X is a stack as long, with the X of the
    same index.
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


def _complex_normal(rng, m):
    """A standard complex normal m x m matrix: its real part, then its imaginary part."""
    return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)


def trace_lemma_trials(gammas, duals, trials, rng):
    """The random-trial reference for ``universal.verify_trace_lemma``, one trial at a time.

    Each trial draws f, then g, and gives (|f|_F, |g|_2, the trace residual
    |sum_mu gamma_mu f gamma^{mu dag} - tr(f) 1|, the tensor residual
    |f.X(g) - X(g).f|) for X(g) = sum_mu gamma_mu g (x) gamma^{mu dag}.
    """
    m = gammas.shape[-1]
    dual_dag = np.asarray(duals).conj().transpose(0, 2, 1)
    out = []
    for _ in range(trials):
        f, g = _complex_normal(rng, m), _complex_normal(rng, m)
        total = sum(gm @ f @ dd for gm, dd in zip(gammas, dual_dag)) - np.trace(f) * np.eye(m)
        X = sum(np.kron(gm @ g, dd) for gm, dd in zip(gammas, dual_dag))
        out.append((np.linalg.norm(f), np.linalg.norm(g, 2), np.linalg.norm(total),
                    np.linalg.norm(commutator(f, X))))
    return out


def universal_identity_trials(gammas, duals, trials, rng):
    """The random-trial reference for the universal identity, one trial at a time.

    Each trial draws f and gives (|f|_F, |f.theta_u - theta_u.f - du(f)|).
    """
    th = theta_u(gammas, duals)
    out = []
    for _ in range(trials):
        f = _complex_normal(rng, gammas.shape[-1])
        out.append((np.linalg.norm(f), np.linalg.norm(commutator(f, th) - du(f))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def pauli_entry():
    return catalog.universal_A0(2)


@pytest.fixture(scope="session")
def pauli_structure(pauli_entry):
    return detect_structure(pauli_entry.subspace)


@pytest.fixture(scope="session")
def pauli_tower(pauli_structure):
    return build_tower(pauli_structure, 3)


@pytest.fixture(scope="session")
def clock3_entry():
    return catalog.clock_shift(3)


@pytest.fixture(scope="session")
def clock3_structure(clock3_entry):
    return detect_structure(clock3_entry.subspace)


@pytest.fixture(scope="session")
def clock3_tower(clock3_structure):
    return build_tower(clock3_structure, 3)


@pytest.fixture(scope="session")
def su2_m3_structure():
    e = catalog.su2(3)
    return use_relations(e.subspace, e.suggested_alpha)


@pytest.fixture(scope="session")
def su2_m3_tower(su2_m3_structure):
    return build_tower(su2_m3_structure, 4)
