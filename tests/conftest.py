import numpy as np
import pytest

from ncdiff import algebra, catalog, detect_structure, use_relations, build_tower


def generic_subspace(m, n, seed):
    """A generic subspace: n seeded complex Gaussian m x m matrices, made traceless."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m
    return algebra.validate_subspace(m, list(lam))


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
