import numpy as np
import pytest
from conftest import generic_subspace

from ncdiff import algebra, genalg
from ncdiff.catalog import NAMES, build_entry, clock_shift, gell_mann_basis, su2, universal_A0
from ncdiff.errors import InvalidRelation

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli():
    return algebra.validate_subspace(2, [SX, SY, SZ])


def test_structure_constants_pauli():
    B = _pauli()
    F, t, rho = genalg.structure_constants(B)
    # sigma_1 sigma_2 = i sigma_3 and tr(sigma_a sigma_b) = 2 delta_ab.
    assert F[2, 0, 1] == pytest.approx(1j)
    assert F[2, 1, 0] == pytest.approx(-1j)
    assert F[0, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(t, 2.0 * np.eye(3))
    # Products of Pauli matrices never leave B + C.1.
    assert np.linalg.norm(rho) == pytest.approx(0.0, abs=1e-13)


def test_detect_pauli_maximal():
    B = _pauli()
    G = genalg.detect_structure(B)
    assert G.R == 9
    assert G.alpha.shape == (9, 9)


def test_detect_clock_shift_kernel():
    e = clock_shift(3)
    G = genalg.detect_structure(e.subspace)
    assert G.R == 1
    q = np.exp(2j * np.pi / 3)
    # Kernel direction is (0, 1, -q, 0) in the (a,b) -> 2a+b flattening.
    v = G.alpha[:, 0]
    ref = np.array([0.0, 1.0, -q, 0.0])
    ref = ref / np.linalg.norm(ref)
    phase = v[1] / ref[1]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(v, phase * ref, atol=1e-12)


def test_build_projector_pauli_identity():
    e = universal_A0(2)
    G = genalg.detect_structure(e.subspace)
    assert np.allclose(G.P, np.eye(9), atol=1e-10)
    assert np.allclose(G.beta @ G.alpha, np.eye(9), atol=1e-10)


def test_build_projector_clock_entries():
    G = genalg.detect_structure(clock_shift(3).subspace)
    q = np.exp(2j * np.pi / 3)
    P = G.P
    assert P[1, 1] == pytest.approx(0.5)
    assert P[2, 2] == pytest.approx(0.5)
    assert P[1, 2] == pytest.approx(-np.conj(q) / 2)
    assert P[2, 1] == pytest.approx(-q / 2)
    assert P[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.conj().T, atol=1e-12)


def test_use_relations_accepts_subkernel():
    e = su2(3)
    G = genalg.use_relations(e.subspace, e.suggested_alpha)
    assert G.R == 3
    assert G.mode == "user-supplied"


def test_use_relations_rejects_non_kernel():
    e = clock_shift(3)
    bad = np.zeros((4, 1), dtype=complex)
    bad[0] = 1.0  # theta^1 theta^1 is not a relation by itself
    with pytest.raises(InvalidRelation) as exc:
        genalg.use_relations(e.subspace, bad)
    assert exc.value.column == 0
    assert exc.value.residual > 1e-6


def test_su2_m3_auto_includes_casimir():
    e = su2(3)
    G = genalg.detect_structure(e.subspace)
    assert G.R == 4


def test_verify_ga_report():
    G = genalg.detect_structure(clock_shift(3).subspace)
    rep = genalg.verify_ga(G)
    assert rep["passed"]
    assert rep["beta_alpha_identity"] < 1e-12
    assert rep["P_idempotent"] < 1e-12
    assert rep["relation_residual"] < 1e-12
    # Clock-shift saturates the dimension bound n^2 + n + 1 - R = 6.
    assert rep["span_dim"] == 6
    assert rep["span_dim_bound"] == 6


def test_verify_ga_pauli_span():
    B = _pauli()
    rep = genalg.verify_ga(genalg.detect_structure(B))
    assert rep["span_dim"] == 4
    assert rep["span_dim_bound"] == 4


def test_t_symmetric(rng):
    lam = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    B = algebra.validate_subspace(3, list(lam))
    _, t, _ = genalg.structure_constants(B)
    assert np.allclose(t, t.T)


def test_rho_matches_eta_perp(rng):
    lam = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    B = algebra.validate_subspace(3, list(lam))
    _, _, rho = genalg.structure_constants(B)
    for b in range(B.n):
        for c in range(B.n):
            ref = algebra.eta_perp(B, lam[b] @ lam[c])
            assert np.allclose(rho[b, c], ref, atol=1e-12)


def test_structure_constants_match_einsum(rng):
    lam = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    B = algebra.validate_subspace(3, list(lam))
    F, t, _ = genalg.structure_constants(B)
    prod = np.einsum("bij,cjk->bcik", lam, lam)
    assert np.max(np.abs(F - np.einsum("aij,bcij->abc", B.dual.duals.conj(), prod))) < 1e-12
    assert np.max(np.abs(t - np.einsum("bcii->bc", prod))) < 1e-12


def _auto_cases():
    for name in NAMES:
        for m in range(2, 6):
            try:
                build_entry(name, m)
            except ValueError:  # m below the entry's minimum
                continue
            yield pytest.param(lambda name=name, m=m: build_entry(name, m).subspace,
                               id=f"{name}-m{m}")
    for m, n in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 5), (4, 6), (5, 8)):
        for seed in range(3):
            yield pytest.param(lambda m=m, n=n, seed=seed: generic_subspace(m, n, seed),
                               id=f"generic-m{m}-n{n}-s{seed}")


@pytest.mark.parametrize("make", list(_auto_cases()))
def test_auto_projector_from_orthonormal_alpha(make):
    """Auto alpha is orthonormal: beta = alpha^dag, and P is build_projector's to 1e-13."""
    G = genalg.detect_structure(make())
    assert np.array_equal(G.beta, G.alpha.conj().T)
    _, P = genalg.build_projector(G.alpha)
    assert np.max(np.abs(G.P - P), initial=0.0) < 1e-13
    assert genalg.verify_ga(G)["passed"]
