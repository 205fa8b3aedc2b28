import numpy as np
import pytest

from ncdiff import algebra, calculus, catalog, detect_structure, use_relations, build_tower


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
