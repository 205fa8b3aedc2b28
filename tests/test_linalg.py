import numpy as np
import pytest

from ncdiff.errors import ShapeError
from ncdiff.linalg import (
    _fix_phases,
    dagger,
    gram,
    inner,
    rank_nullspace,
    span_projector,
)


def test_dagger():
    a = np.array([[1.0, 2.0 + 1j], [3.0, 4j]])
    assert np.allclose(dagger(a), a.conj().T)


def test_inner_pauli_norm():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    assert inner(s1, s1) == pytest.approx(2.0)


def test_inner_conjugate_linearity():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert inner(2j * f, g) == pytest.approx(-2j * inner(f, g))
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))


def test_gram_matches_inner():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    ref = np.array([[inner(x, y) for y in b] for x in a])
    assert np.allclose(gram(a, b), ref, atol=1e-12)
    assert np.allclose(gram(a), [[inner(x, y) for y in a] for x in a], atol=1e-12)


def test_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        inner(np.eye(2), np.eye(3))


def test_rank_nullspace_basic():
    M = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = rank_nullspace(M)
    assert res.rank == 1
    assert res.nullspace.shape == (2, 1)
    assert np.allclose(M @ res.nullspace, 0.0)


def test_rank_full():
    res = rank_nullspace(np.eye(4))
    assert res.rank == 4
    assert res.nullspace.shape == (4, 0)


def test_rank_deterministic_phase():
    # The null-space basis must come back with a fixed sign convention.
    M = np.array([[1.0, 1j]])
    res = rank_nullspace(M)
    v = res.nullspace[:, 0]
    lead = v[np.argmax(np.abs(v) > 1e-12)]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0


def _fix_phase_loop(V):
    """Per-column reference for the phase convention of rank_nullspace."""
    V = V.copy()
    for j in range(V.shape[1]):
        v = V[:, j]
        idx = np.flatnonzero(np.abs(v) > 1e-12 * max(np.max(np.abs(v)), 1e-300))
        if idx.size:
            V[:, j] = v * (abs(v[idx[0]]) / v[idx[0]])
    return V


def test_fix_phases_matches_loop():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    V[:2, 1] = [1e-14j, -3e-13]  # below 1e-12 x the column max: the pivot is row 2
    V[:, 3] = 0.0  # no significant entry: left as it is
    V[0, 4] = 1e-11 - 1e-11j  # small but significant: it is the pivot
    fixed = _fix_phases(V)
    assert np.array_equal(fixed, _fix_phase_loop(V))
    assert fixed[2, 1].real > 0 and abs(fixed[2, 1].imag) < 1e-15
    assert fixed[0, 4].real > 0 and abs(fixed[0, 4].imag) < 1e-26
    assert np.array_equal(fixed[:, 3], V[:, 3])
    assert _fix_phases(np.zeros((3, 0), dtype=complex)).shape == (3, 0)


def test_rank_reports_gap():
    M = np.diag([1.0, 1e-3, 1e-14])
    res = rank_nullspace(M)
    assert res.rank == 2
    assert res.gap == pytest.approx(1e-11, rel=1e-6)


def test_span_projector():
    cols = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).T
    P = span_projector(np.array([[1.0], [1.0], [0.0]]))
    assert np.allclose(P, P @ P)
    assert np.allclose(P, P.conj().T)
    assert np.trace(P).real == pytest.approx(1.0)
    v = np.array([1.0, 1.0, 0.0])
    assert np.allclose(P @ v, v)


def test_span_basis():
    # a dependent column drops out of the rank
    P = span_projector(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert np.trace(P).real == pytest.approx(1.0)
    assert np.allclose(P, np.outer([1, 1, 0], [1, 1, 0]) / 2)
    for empty in (np.zeros((3, 2)), np.zeros((3, 0))):
        assert np.array_equal(span_projector(empty), np.zeros((3, 3)))
