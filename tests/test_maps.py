import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import conjugated_tower, equivalence_generator_reference, ustar

from ncdiff import algebra, calculus, genalg, maps
from ncdiff.calculus import Form, coframe, exterior_d, form_norm, random_form
from ncdiff.catalog import clock_shift, fuzzy_ellipsoid, su2, universal_A0
from ncdiff.errors import ConfigError, ShapeError, SingularTransform
from ncdiff.linalg import DEFAULT_TOL
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
    rep = check_equivalence(U, pauli_structure.subspace, pauli_tower)
    assert rep["passed"], rep


@pytest.mark.parametrize("maker,m", [(universal_A0, 2), (clock_shift, 3),
                                     (su2, 2)])
def test_check_equivalence_random_invertible(maker, m):
    """A random invertible u passes every section; the stacked generators and the random
    trials agree."""
    e = maker(m)
    if e.suggested_alpha is not None and maker is su2:
        G = genalg.use_relations(e.subspace, e.suggested_alpha)
    else:
        G = genalg.detect_structure(e.subspace)
    tower = calculus.build_tower(G, 2)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    U = Conjugation.from_matrix(u)
    rep = check_equivalence(U, e.subspace, tower)
    assert rep["passed"], rep
    for key in ("coframe", "theta", "products", "d_commutation"):
        assert rep[key] < 1e-8
    assert equivalence_generator_reference(U, tower) < maps.EQUIVALENCE_BOUND
    trials = _equivalence_trials_reference(U, tower, conjugated_tower(U, tower), 5,
                                           np.random.default_rng(3))
    assert max(trials) < maps.EQUIVALENCE_BOUND


def test_ustar_matches_einsum(clock3_tower, rng):
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = Conjugation.from_matrix(u)
    for p in range(4):
        xi = random_form(clock3_tower, p, rng)
        raw = np.einsum("ij,...jk,kl->...il", U.u_inv, xi.coeffs, U.u)
        ref = calculus.canonicalize(clock3_tower, p, raw)
        assert np.max(np.abs(ustar(U, clock3_tower, xi).coeffs - ref)) < 1e-12


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
        out = ustar(U, tower, random_form(tower_p, p, rng)).coeffs
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
    """The random-trial reference for check_equivalence's products and d_commutation.

    Each trial draws two 1-forms of the conjugated calculus for the product
    check, then one form of each degree below max_degree for d.  The
    product defect is relative to |xi| |zeta|, the d defect to |om| |lambda|.
    Returns the worst of each.
    """
    lam = np.linalg.norm(tower.ga.subspace.lambdas)
    res_prod = res_d = 0.0
    for _ in range(trials):
        xi = random_form(tower_p, 1, rng)
        zeta = random_form(tower_p, 1, rng)
        lhs = ustar(U, tower, calculus.wedge(xi, zeta))
        rhs = calculus.wedge(ustar(U, tower, xi), ustar(U, tower, zeta))
        res_prod = max(res_prod, form_norm(lhs - rhs) / (form_norm(xi) * form_norm(zeta)))
        for deg in range(tower.max_degree):
            om = random_form(tower_p, deg, rng)
            lhs = ustar(U, tower, exterior_d(om))
            rhs = exterior_d(ustar(U, tower, om))
            res_d = max(res_d, form_norm(lhs - rhs) / (form_norm(om) * lam))
    return res_prod, res_d


def _control_tower(maker, m):
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    return e, calculus.build_tower(G, 2)


@pytest.mark.parametrize("maker, m", [(su2, 3), (clock_shift, 3), (universal_A0, 2)])
def test_equivalence_fails_with_u_for_its_inverse(maker, m):
    """Negative control: U^star with u where u^-1 belongs, u^2 = 4 J^2 = 4 != 1, fails products
    and d_commutation, in closed form, on the stacked generators and in random trials alike.

    u = 2 J with J = diag(1, -1, ...) keeps u lambda u = 4 J lambda J^-1 traceless and
    the transported relations valid.  U^star maps theta'^a to u^2 theta^a, so
    coframe and theta fail as well.
    """
    e, tower = _control_tower(maker, m)
    u = 2 * np.diag([1.0] + [-1.0] * (m - 1)).astype(complex)
    U = Conjugation(u=u, u_inv=u)
    rep = check_equivalence(U, e.subspace, tower)
    assert not rep["passed"]
    for key in ("coframe", "theta", "products", "d_commutation"):
        assert rep[key] > 1.0, (key, rep[key])
    assert equivalence_generator_reference(U, tower) > 1.0
    trials = _equivalence_trials_reference(U, tower, conjugated_tower(U, tower), 5,
                                           np.random.default_rng(3))
    assert min(trials) > maps.EQUIVALENCE_BOUND, trials


# clock-shift is left out: its F is zero
@pytest.mark.parametrize("maker, m", [(su2, 3), (fuzzy_ellipsoid, 4), (universal_A0, 2)])
def test_equivalence_fails_with_negated_structure_constants(monkeypatch, maker, m):
    """Negative control: the conjugated structure with F negated fails d_commutation alone.

    d on degree 0 reads no F, so only the theta^a generators see it, through
    pi_2(F' - F): they are needed.  The stacked generators and the random
    trials fail d alone as well.
    """
    e, tower = _control_tower(maker, m)
    real = genalg._structure_F
    monkeypatch.setattr(maps, "_structure_F", lambda B: -real(B))
    U = Conjugation.from_matrix(np.random.default_rng(4).standard_normal((m, m)) + 2 * np.eye(m))
    rep = check_equivalence(U, e.subspace, tower)
    assert not rep["passed"]
    assert rep["d_commutation"] > 0.1
    for key in ("coframe", "theta", "products"):
        assert rep[key] < 1e-14, (key, rep[key])
    assert equivalence_generator_reference(U, tower) > 0.1
    prod, d = _equivalence_trials_reference(U, tower, conjugated_tower(U, tower), 5,
                                            np.random.default_rng(3))
    assert prod < maps.EQUIVALENCE_BOUND < d


@pytest.mark.parametrize("maker, m", [(su2, 3), (clock_shift, 3)])
def test_equivalence_forms_the_deferred_basis_once(monkeypatch, maker, m):
    """A degree-2 tower that has not projected yet gives the residuals of one that has.

    N_2 is the structure's conj(alpha), kept by ``build_tower``.  The
    conjugated calculus shares B's factors, so ``check_equivalence`` projects
    F' - F on B's own N_2 = W_2: no basis is embedded and no factor is formed again.
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    U = Conjugation.from_matrix(np.random.default_rng(5).standard_normal((m, m)) + 2 * np.eye(m))
    formed = calculus.build_tower(G, 2)
    raw = np.random.default_rng(0).standard_normal((G.subspace.n,) * 2 + (m, m))
    assert calculus.canonicalize(formed, 2, raw).shape == raw.shape
    deferred = calculus.build_tower(G, 2)
    assert sorted(deferred.factors) == [1, 2]
    made = []
    for step in ("_null_factor", "_embed"):
        real = getattr(calculus, step)
        monkeypatch.setattr(calculus, step,
                            lambda *a, real=real, step=step, **k: made.append(step) or real(*a, **k))
    rep = check_equivalence(U, e.subspace, deferred)
    assert made == [] and sorted(deferred.factors) == [1, 2]
    assert rep == check_equivalence(U, e.subspace, formed)


def _unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned(rng, m, cond):
    """An m x m matrix of condition number ``cond``, between two random unitary frames."""
    return _unitary(rng, m) @ np.diag(np.geomspace(1.0, cond, m)) @ _unitary(rng, m)


@pytest.mark.parametrize("cond", [2.0, 1e2])
@pytest.mark.parametrize("maker, m", [(su2, 3), (su2, 4), (clock_shift, 3), (fuzzy_ellipsoid, 4)])
def test_equivalence_transports_the_relation_span(maker, m, cond):
    """The conjugated calculus keeps B's L, and that is the span that re-deriving the
    relations of the conjugated subspace from B's alpha gives.

    alpha^bc lambda_b lambda_c lies in B + C.1 iff its conjugate by u lies in
    B' + C.1, so the two orthogonal projectors onto L agree to 1e-12 at cond u = 2
    and 1e2, and ``check_equivalence``, which reads B's W_2 for pi_2(F' - F), passes.
    """
    e = maker(m)
    G = (genalg.use_relations(e.subspace, e.suggested_alpha) if maker is su2
         else genalg.detect_structure(e.subspace))
    tower = calculus.build_tower(G, 2)
    U = Conjugation.from_matrix(_conditioned(np.random.default_rng(7), m, cond))
    assert check_equivalence(U, e.subspace, tower)["passed"]
    Gp = genalg.use_relations(conjugate_subspace(U, e.subspace), G.alpha, tol=1e-7)
    assert Gp.R == G.R
    assert np.abs(G.L @ G.L.conj().T - Gp.L @ Gp.L.conj().T).max() <= 1e-12


def _planted(B, defect):
    """A patch of ``maps`` that plants a defect of 1e-6 |lambda| in lambda' or in F'.

    The same seeded defect each call, so ``check_equivalence`` and the
    reference see one conjugated calculus.
    """
    rng = np.random.default_rng(9)
    n, m, lam = B.n, B.m, np.linalg.norm(B.lambdas)
    if defect == "lambda":
        X = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        X -= np.trace(X, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m
        real = maps.conjugate_subspace
        return "conjugate_subspace", lambda U, B, tol=DEFAULT_TOL: algebra.validate_subspace(
            B.m, list(real(U, B, tol=tol).lambdas + 1e-6 * lam * X / np.linalg.norm(X)), tol=tol)
    X = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    real = genalg._structure_F
    return "_structure_F", lambda B: real(B) + 1e-6 * lam * X / np.linalg.norm(X)


@pytest.mark.parametrize("defect", ["lambda", "F"])
@pytest.mark.parametrize("cond", [2.0, 1e2])
@pytest.mark.parametrize("maker, m", [(su2, 3), (clock_shift, 3), (fuzzy_ellipsoid, 4)])
def test_equivalence_closed_form_bounds_the_generator_reference(monkeypatch, maker, m, cond,
                                                               defect):
    """``d_commutation`` bounds D = U^star d' (U^star)^-1 - d on B's generators, and is
    within 3x of it, with a defect of 1e-6 |lambda| planted in lambda' or in F'.

    The reference applies ``exterior_d`` to the stacked generators of both
    calculi (``conftest.equivalence_generator_reference``).
    """
    e, tower = _control_tower(maker, m)
    monkeypatch.setattr(maps, *_planted(e.subspace, defect))
    U = Conjugation.from_matrix(_conditioned(np.random.default_rng(7), m, cond))
    closed = check_equivalence(U, e.subspace, tower)["d_commutation"]
    reference = equivalence_generator_reference(U, tower)
    assert 1e-8 < reference <= closed <= 3 * reference, (reference, closed)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
def test_equivalence_ignores_the_scale_of_u(c):
    """c u passes on su2(3) with finite residuals below 1e-14 for c from 1e-300 to 1e300,
    c times the identity among them: ``from_matrix`` keeps u at spectral norm 1, so no
    column norm of u^-1 over- or underflows."""
    e, tower = _control_tower(su2, 3)
    for u in (np.eye(3), np.random.default_rng(4).standard_normal((3, 3)) + 2 * np.eye(3)):
        rep = check_equivalence(Conjugation.from_matrix(c * u), e.subspace, tower)
        assert rep["passed"], rep
        for key in ("coframe", "theta", "products", "d_commutation"):
            assert np.isfinite(rep[key]) and rep[key] < 1e-14, (key, rep[key])


@pytest.mark.parametrize("m", [2, 3])
def test_equivalence_forms_no_alpha_without_relations(m):
    """On a0, where L has no columns, equiv forms no n^2 x n^2 alpha: the tower has no
    relations to read it for, and the conjugated structure reuses L."""
    G = genalg.detect_structure(universal_A0(m).subspace)
    U = Conjugation.from_matrix(np.random.default_rng(8).standard_normal((m, m)) + 2 * np.eye(m))
    assert check_equivalence(U, G.subspace, calculus.build_tower(G, 2))["passed"]
    assert G.L.shape[1] == 0 and "alpha" not in G.__dict__


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


def test_equivalence_forms_only_the_conjugated_structure_constants():
    """check_equivalence on a0(7) forms F' alone: its traced peak stays below 3.65 MiB.

    That is half of the 7.3 MiB it read when it formed F', t and rho through
    ``structure_constants``; F' is one n^3 table beside the n^2 m^2 pair products.
    """
    e = universal_A0(7)
    tower = calculus.build_tower(genalg.detect_structure(e.subspace), 2)
    U = Conjugation.from_matrix(np.random.default_rng(0).standard_normal((7, 7)) + 2 * np.eye(7))
    check_equivalence(U, e.subspace, tower)  # one-time allocations
    tracemalloc.start()
    try:
        rep = check_equivalence(U, e.subspace, tower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak <= 3.65 * 2 ** 20, peak / 2 ** 20
