import numpy as np
import pytest
from conftest import dense_projector

from ncdiff import build_tower, detect_structure, use_relations
from ncdiff.catalog import (
    NAMES,
    build_entry,
    clock_shift,
    fuzzy_ellipsoid,
    gell_mann_basis,
    spin_matrices,
    su2,
    universal_A0,
)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_gell_mann_basis(m):
    gm = gell_mann_basis(m)
    assert gm.shape == (m * m - 1, m, m)
    for a, ga in enumerate(gm):
        assert abs(np.trace(ga)) < 1e-12
        assert np.allclose(ga, ga.conj().T)
        for b, gb in enumerate(gm):
            got = np.trace(ga.conj().T @ gb)
            assert got == pytest.approx(2.0 if a == b else 0.0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_spin_matrices(m):
    jx, jy, jz = spin_matrices(m)
    # su(2) commutators and the Casimir value j(j+1).
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
    assert np.allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-12)
    j = (m - 1) / 2
    cas = jx @ jx + jy @ jy + jz @ jz
    assert np.allclose(cas, j * (j + 1) * np.eye(m), atol=1e-12)
    # tr(J_a^2) = m(m^2 - 1)/12
    assert np.trace(jz @ jz).real == pytest.approx(m * (m * m - 1) / 12.0)


@pytest.mark.parametrize("m", [2, 3])
def test_universal_a0(m):
    e = universal_A0(m)
    n = m * m - 1
    G = detect_structure(e.subspace)
    assert G.R == n * n
    assert np.allclose(dense_projector(G.alpha), np.eye(n * n), atol=1e-10)
    tower = build_tower(G, 3)
    assert [tower.ranks[p] for p in range(4)] == [1, n, n * n, n ** 3]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_su2_antisymmetric_ranks(m):
    e = su2(m)
    G = use_relations(e.subspace, e.suggested_alpha)
    tower = build_tower(G, 4)
    assert [tower.ranks[p] for p in (1, 2, 3, 4)] == [3, 3, 1, 0]


def test_su2_auto_detection():
    # m = 2: everything is maximal. m = 3: Casimir relation joins the three
    # antisymmetric relations.
    assert detect_structure(su2(2).subspace).R == 9
    assert detect_structure(su2(3).subspace).R == 4


@pytest.mark.parametrize("m", [3, 4, 5])
def test_clock_shift(m):
    e = clock_shift(m)
    x, y = e.subspace.lambdas
    q = np.exp(2j * np.pi / m)
    assert np.allclose(x @ y, q * y @ x, atol=1e-12)
    G = detect_structure(e.subspace)
    assert G.R == 1
    tower = build_tower(G, 2)
    assert tower.ranks[1] == 2 and tower.ranks[2] == 1


def test_clock_shift_m2_degenerate():
    # q = -1 makes x, y anticommuting Pauli-like matrices: maximal relations.
    assert detect_structure(clock_shift(2).subspace).R == 3


@pytest.mark.parametrize("m", [3, 4, 5])
def test_fuzzy_ellipsoid(m):
    e = fuzzy_ellipsoid(m)
    for lam in e.subspace.lambdas:
        assert abs(np.trace(lam)) < 1e-10
    G = use_relations(e.subspace, e.suggested_alpha)
    assert G.R == 1
    tower = build_tower(G, 2)
    assert tower.ranks[1] == 3 and tower.ranks[2] == 1


def test_build_entry_dispatch():
    for name in NAMES:
        m = 3
        e = build_entry(name, m)
        assert e.subspace.m == m
    with pytest.raises(ValueError):
        build_entry("nope", 3)
