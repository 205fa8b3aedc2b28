import dataclasses

import numpy as np
import pytest

from ncdiff import algebra, calculus, genalg, maps
from ncdiff.calculus import Form, coframe, exterior_d, form_norm, random_form
from ncdiff.catalog import clock_shift, su2, universal_A0
from ncdiff.errors import ConfigError, ShapeError, SingularTransform
from ncdiff.maps import (
    Conjugation,
    LinearMap,
    check_equivalence,
    conjugate_subspace,
    lie_derivative,
    pullback,
    pushforward,
)


def test_conjugation_requires_invertible():
    with pytest.raises(SingularTransform):
        Conjugation.from_matrix(np.zeros((2, 2)))


def test_conjugation_roundtrip(rng):
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = Conjugation.from_matrix(u)
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(U.unapply(U.apply(f)), f, atol=1e-10)


def test_conjugate_subspace_preserves_relations():
    e = clock_shift(3)
    G = genalg.detect_structure(e.subspace)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = Conjugation.from_matrix(u)
    Bp = conjugate_subspace(U, e.subspace)
    # The transported alpha is a valid relation set for the conjugated basis.
    Gp = genalg.use_relations(Bp, G.alpha, tol=1e-7)
    assert Gp.R == G.R


def test_linear_map_shape_check():
    e2 = universal_A0(2)
    e3 = universal_A0(3)
    with pytest.raises(ShapeError):
        LinearMap(e2.subspace, e3.subspace, np.eye(4))


def test_pushforward_pullback_duality(pauli_structure, pauli_tower, rng):
    B = pauli_structure.subspace
    M = rng.standard_normal((3, 3))
    phi = LinearMap(B, B, M)
    xi = random_form(pauli_tower, 1, rng)
    pulled = pullback(phi, xi, pauli_tower)
    manual = np.einsum("ab,bij->aij", M.T, xi.coeffs)
    assert np.allclose(pulled.coeffs, manual, atol=1e-12)
    assert np.allclose(pushforward(phi, 1), M[:, 1])


def test_pullback_every_slot():
    """pullback along a non-square M transforms every slot: degrees 0..3 against einsum."""
    target = genalg.detect_structure(universal_A0(3).subspace)
    source = genalg.detect_structure(clock_shift(3).subspace)
    target_tower = calculus.build_tower(target, 3)
    source_tower = calculus.build_tower(source, 3)
    rng = np.random.default_rng(6)
    M = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    phi = LinearMap(source.subspace, target.subspace, M)
    for p, spec in enumerate(["ij->ij", "ab,aij->bij", "ab,cd,acij->bdij",
                              "ab,cd,ef,aceij->bdfij"]):
        xi = random_form(target_tower, p, rng)
        raw = np.einsum(spec, *([M] * p), xi.coeffs)
        ref = calculus.canonicalize(source_tower, p, raw)
        assert np.max(np.abs(pullback(phi, xi, source_tower).coeffs - ref)) < 1e-12


def test_check_equivalence_identity(pauli_tower, pauli_structure):
    U = Conjugation.from_matrix(np.eye(2))
    rep = check_equivalence(U, pauli_structure.subspace, pauli_tower,
                            trials=3, seed=1)
    assert rep["passed"], rep


@pytest.mark.parametrize("maker,m", [(universal_A0, 2), (clock_shift, 3),
                                     (su2, 2)])
def test_check_equivalence_random_invertible(maker, m):
    e = maker(m)
    if e.suggested_alpha is not None and maker is su2:
        G = genalg.use_relations(e.subspace, e.suggested_alpha)
    else:
        G = genalg.detect_structure(e.subspace)
    tower = calculus.build_tower(G, 2)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    U = Conjugation.from_matrix(u)
    rep = check_equivalence(U, e.subspace, tower, trials=5, seed=3)
    assert rep["passed"], rep
    for key in ("coframe", "theta", "products", "d_commutation"):
        assert rep[key] < 1e-8


def test_ustar_matches_einsum(clock3_tower, rng):
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = Conjugation.from_matrix(u)
    for p in range(4):
        xi = random_form(clock3_tower, p, rng)
        raw = np.einsum("ij,...jk,kl->...il", U.u_inv, xi.coeffs, U.u)
        ref = calculus.canonicalize(clock3_tower, p, raw)
        assert np.max(np.abs(maps._ustar(U, clock3_tower, xi).coeffs - ref)) < 1e-12


@pytest.mark.parametrize("maker, m", [(su2, 4), (clock_shift, 5), (universal_A0, 2)])
def test_ustar_keeps_conjugated_forms_canonical(maker, m):
    """U^star projects nothing: a canonical form of the conjugated calculus maps to one of B's.

    The conjugated tower shares B's bases, and u^-1 (.) u acts on the matrix
    indices only, so it commutes with W_p W_p^dag on the slots.
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    tower = calculus.build_tower(G, 3)
    rng = np.random.default_rng(6)
    U = Conjugation.from_matrix(rng.standard_normal((m, m)) + 2 * np.eye(m))
    Gp = genalg.use_relations(conjugate_subspace(U, e.subspace), G.alpha, tol=1e-7)
    tower_p = dataclasses.replace(tower, ga=Gp)
    for p in (2, 3):
        out = maps._ustar(U, tower, random_form(tower_p, p, rng)).coeffs
        drift = np.linalg.norm(calculus.canonicalize(tower, p, out) - out)
        assert drift <= 1e-14 * np.linalg.norm(out), (p, drift)


def test_non_conjugation_breaks_d(pauli_structure, pauli_tower):
    # A generic linear map of the basis is not a d-homomorphism.
    rng = np.random.default_rng(2)
    B = pauli_structure.subspace
    M = rng.standard_normal((3, 3))
    phi = LinearMap(B, B, M)
    worst = 0.0
    for _ in range(5):
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f -= np.trace(f) * np.eye(2) / 2
        df = exterior_d(Form(pauli_tower, 0, f))
        pulled_df = pullback(phi, df, pauli_tower)
        d_f = exterior_d(Form(pauli_tower, 0, f))
        # Pull back the co-frame only; the function part is untouched, so
        # compare phi* d f with d f directly.
        worst = max(worst, form_norm(pulled_df - df))
    assert worst > 1e-3


def test_lie_derivative_degree_and_commutator(pauli_tower, rng):
    # On functions the Lie derivative along f is -[f, g].
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    om = Form(pauli_tower, 0, g)
    L = lie_derivative(pauli_tower, f, om)
    assert L.degree == 0
    assert np.allclose(L.coeffs, -(f @ g - g @ f), atol=1e-12)


def test_lie_derivative_linearity(pauli_tower, rng):
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = random_form(pauli_tower, 1, rng)
    b = random_form(pauli_tower, 1, rng)
    lhs = lie_derivative(pauli_tower, f, a + b)
    rhs = lie_derivative(pauli_tower, f, a) + lie_derivative(pauli_tower, f, b)
    assert form_norm(lhs - rhs) < 1e-12


def _equivalence_trials_reference(U, tower, tower_p, trials, rng):
    """The per-trial products and d-commutation loop of check_equivalence, one trial at a time."""
    scale = max(np.linalg.norm(tower.ga.subspace.lambdas), 1.0)
    res_prod = res_d = 0.0
    for _ in range(trials):
        xi = random_form(tower_p, 1, rng)
        zeta = random_form(tower_p, 1, rng)
        lhs = maps._ustar(U, tower, calculus.wedge(xi, zeta))
        rhs = calculus.wedge(maps._ustar(U, tower, xi), maps._ustar(U, tower, zeta))
        denom = max(form_norm(lhs), form_norm(rhs), 1.0)
        res_prod = max(res_prod, form_norm(lhs - rhs) / denom)
        for deg in range(tower.max_degree):
            om = random_form(tower_p, deg, rng)
            lhs = maps._ustar(U, tower, exterior_d(om))
            rhs = exterior_d(maps._ustar(U, tower, om))
            res_d = max(res_d, form_norm(lhs - rhs) / max(form_norm(om) * scale ** 2, 1.0))
    return res_prod, res_d


@pytest.mark.parametrize("batch", [None, 2])
@pytest.mark.parametrize("maker, m, top", [(su2, 3, 2), (clock_shift, 3, 3)])
def test_stacked_equivalence_matches_trial_loop(monkeypatch, maker, m, top, batch):
    """Stacked equivalence trials read the per-trial generator stream and find its residuals.

    With ``batch`` the byte cap holds two trials, so five trials run as 2 + 2 + 1.
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    tower = calculus.build_tower(G, top)
    if batch:
        monkeypatch.setattr(calculus, "STACK_BYTES", batch * 16 * tower.n ** top * m * m)
    U = Conjugation.from_matrix(np.random.default_rng(4).standard_normal((m, m)) + 2 * np.eye(m))
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    rep = check_equivalence(U, e.subspace, tower, trials=5, seed=8)
    Gp = genalg.use_relations(conjugate_subspace(U, e.subspace), G.alpha, tol=1e-7)
    ref_rng = default_rng(8)
    ref = _equivalence_trials_reference(U, tower, dataclasses.replace(tower, ga=Gp), 5, ref_rng)
    assert made[0].bit_generator.state == ref_rng.bit_generator.state
    assert abs(rep["products"] - ref[0]) < 1e-14
    assert abs(rep["d_commutation"] - ref[1]) < 1e-14


@pytest.mark.parametrize("maker, m", [(su2, 3), (clock_shift, 3)])
def test_equivalence_forms_the_deferred_basis_once(monkeypatch, maker, m):
    """A degree-2 tower whose W_2 is not formed yet gives the residuals of one whose W_2 is.

    The conjugated calculus is a ``dataclasses.replace`` copy of the tower: it
    shares the factors and bases, so N_2 and W_2 are formed once for both.
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    U = Conjugation.from_matrix(np.random.default_rng(5).standard_normal((m, m)) + 2 * np.eye(m))
    formed = calculus.build_tower(G, 2)
    assert formed.basis(2) is not None
    deferred = calculus.build_tower(G, 2)
    assert deferred.bases == {} and 2 not in deferred.factors
    made = []
    for step in ("_null_factor", "_lift"):
        real = getattr(calculus, step)
        monkeypatch.setattr(calculus, step,
                            lambda *a, real=real, step=step, **k: made.append(step) or real(*a, **k))
    rep = check_equivalence(U, e.subspace, deferred, trials=5, seed=2)
    assert made == ["_null_factor", "_lift"] and 2 in deferred.bases
    assert rep == check_equivalence(U, e.subspace, formed, trials=5, seed=2)


@pytest.mark.parametrize("maker, m", [(su2, 3), (su2, 4), (universal_A0, 2)])
def test_lie_derivative_commutes_with_d(maker, m):
    """[L_h, d] = 0 for h in n(B) = {h : [h, lambda_a] in B}, at degrees 0..max_degree - 1.

    exp(t h) maps B onto itself and is an automorphism of the calculus.  su2's
    n(B) is spanned by its spin matrices, the basis of B; a0's is all of sl(2).
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    lam = G.subspace.lambdas
    # every [h, lambda_a] lies in B: the basis of B spans n(B)
    flat = lam.reshape(len(lam), -1).T
    for h in lam:
        comm = (h @ lam - lam @ h).reshape(len(lam), -1).T
        coef = np.linalg.lstsq(flat, comm, rcond=None)[0]
        assert np.linalg.norm(flat @ coef - comm) < 1e-12 * max(np.linalg.norm(comm), 1.0)
    tower = calculus.build_tower(G, 3)
    rng = np.random.default_rng(11)
    for h in lam:
        for p in range(tower.max_degree):
            xi = random_form(tower, p, rng)
            res = lie_derivative(tower, h, exterior_d(xi)) - exterior_d(lie_derivative(tower, h, xi))
            assert form_norm(res) < 1e-12 * max(form_norm(xi), 1.0), (p, form_norm(res))
