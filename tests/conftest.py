import numpy as np
import pytest
from hypothesis import strategies as st

from ncdiff import algebra, calculus, catalog, detect_structure, use_relations, build_tower
from ncdiff.errors import ShapeError
from ncdiff.universal import theta_u


def generic_subspace(m, n, seed):
    """A generic subspace: n seeded complex Gaussian m x m matrices, made traceless."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m
    return algebra.validate_subspace(m, list(lam))


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
