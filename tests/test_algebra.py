import numpy as np
import pytest
from hypothesis import given, settings
from conftest import matrix_stacks

from ncdiff import algebra, genalg
from ncdiff.catalog import gell_mann_basis
from ncdiff.errors import ConditioningError, DependentBasis, ShapeError, TracelessViolation
from ncdiff.linalg import gram

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_validate_pauli():
    B = algebra.validate_subspace(2, [SX, SY, SZ])
    assert B.m == 2 and B.n == 3


def test_validate_rejects_identity():
    with pytest.raises(TracelessViolation) as exc:
        algebra.validate_subspace(2, [SX, np.eye(2)])
    assert exc.value.index == 1
    assert exc.value.trace_abs == pytest.approx(2.0)


def test_validate_rejects_dependent():
    with pytest.raises(DependentBasis):
        algebra.validate_subspace(2, [SX, 2.0 * SX])


def test_validate_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        algebra.validate_subspace(3, [SX])


def test_dual_data_pauli():
    B = algebra.validate_subspace(2, [SX, SY, SZ])
    D = B.dual
    assert np.allclose(D.gram, 2.0 * np.eye(3))
    assert D.condition == pytest.approx(1.0)
    assert np.allclose(D.gram_inv, 0.5 * np.eye(3))
    # Orthogonal basis: duals are lambda_a / 2.
    assert np.allclose(D.duals, B.lambdas / 2.0)


def test_dual_data_non_orthogonal():
    B = algebra.validate_subspace(2, [SX, SX + SY])
    D = B.dual
    assert np.allclose(D.gram, [[2.0, 2.0], [2.0, 4.0]])
    # Duality: <lambda^a, lambda_b> = delta^a_b.
    for a in range(2):
        for b in range(2):
            got = np.trace(D.duals[a].conj().T @ B.lambdas[b])
            assert got == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_dual_data_reuses_subspace_gram(monkeypatch):
    """validate_subspace forms, conditions and inverts the Gram once; a structure built on B
    judges the stored condition number at its own tol, with no second decomposition."""
    B = algebra.validate_subspace(2, [SX, SX + SY])
    assert np.array_equal(B.dual.gram, gram(B.lambdas))
    monkeypatch.setattr(algebra, "gram", lambda *args: pytest.fail("Gram recomputed"))
    for name in ("cond", "inv"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert genalg.detect_structure(B).subspace.dual is B.dual
    # cond = 6.85 > 1/tol
    with pytest.raises(ConditioningError, match="exceeds 1/tol"):
        genalg.detect_structure(B, tol=0.5)
    with pytest.raises(ConditioningError, match="exceeds 1/tol"):
        genalg.use_relations(B, np.zeros((4, 0)), tol=0.5)


def test_eta_projection():
    B = algebra.validate_subspace(2, [SX, SX + SY])
    f = 0.3 * SX + 0.7 * (SX + SY)
    assert np.allclose(algebra.eta(B, f), f)
    # eta_perp kills everything in B + C.1.
    assert np.allclose(algebra.eta_perp(B, f + 2.0 * np.eye(2)), 0.0, atol=1e-12)


def test_eta_splits_sz():
    # B = span{sx, sy} inside M_2: sz is orthogonal and traceless.
    B = algebra.validate_subspace(2, [SX, SY])
    assert np.allclose(algebra.eta(B, SZ), 0.0, atol=1e-12)
    assert np.allclose(algebra.eta_perp(B, SZ), SZ)


def test_ad_operator_matches_commutator(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    L = algebra.ad_operator(h)
    assert np.allclose((L @ f.reshape(-1)).reshape(3, 3), h @ f - f @ h)


def test_matrix_basis_duals():
    gam = np.concatenate([np.eye(2)[None], gell_mann_basis(2)])
    gdual = algebra.matrix_basis_duals(gam)
    for mu in range(4):
        for nu in range(4):
            got = np.trace(gdual[mu].conj().T @ gam[nu])
            assert got == pytest.approx(1.0 if mu == nu else 0.0, abs=1e-12)


def test_matrix_basis_duals_match_einsum():
    """The trace-duals against the einsum contraction sum_b (g^-1)[b, a] gamma_b."""
    m = 8
    gam = np.concatenate([np.eye(m, dtype=complex)[None], gell_mann_basis(m)])
    ref = np.einsum("ba,bij->aij", np.linalg.inv(gram(gam)), gam)
    assert np.max(np.abs(algebra.matrix_basis_duals(gam) - ref)) < 1e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_stacks())
def test_dual_data_duality_and_conditioning(case):
    """<mu^a, mu_b> = delta_ab within condition * 1e-13, and DependentBasis once the
    condition exceeds 1/tol."""
    mats, cond = case
    D = algebra.dual_data(mats, tol=0.5 / cond)
    assert D.condition == pytest.approx(cond, rel=1e-6)
    n, m = mats.shape[:2]
    assert np.max(np.abs(gram(D.duals, mats) - np.eye(n))) <= D.condition * 1e-13
    assert np.max(np.abs(D.gram_inv @ D.gram - np.eye(n))) <= D.condition * 1e-13
    if n == m * m:
        assert np.array_equal(algebra.matrix_basis_duals(mats, tol=0.5 / cond), D.duals)
    else:
        assert abs(np.trace(mats, axis1=1, axis2=2)).max() < 1e-12
    # the verdict flips where 1/tol crosses the condition number
    algebra.dual_data(mats, tol=1.0 / (D.condition * (1 + 1e-9)))
    with pytest.raises(DependentBasis):
        algebra.dual_data(mats, tol=1.0 / (D.condition * (1 - 1e-9)))
