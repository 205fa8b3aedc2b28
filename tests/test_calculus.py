import tracemalloc

import numpy as np
import pytest

from ncdiff import calculus, catalog, genalg
from ncdiff.algebra import validate_subspace
from ncdiff.calculus import (
    build_tower,
    canonicalize,
    check_structure_equations,
    chi,
    coframe,
    coframe_from_formula,
    contract,
    epsilon_check,
    exterior_d,
    form_norm,
    random_form,
    theta,
    wedge,
    zero_form,
)
from ncdiff.catalog import clock_shift, gell_mann_basis
from ncdiff.errors import DegreeError
from ncdiff.linalg import DEFAULT_TOL, gram, lift_to_slots, rank_nullspace, span_projector
from ncdiff.maps import lie_derivative

Q3 = np.exp(2j * np.pi / 3)


def test_tower_ranks_pauli(pauli_tower):
    assert pauli_tower.ranks == {0: 1, 1: 3, 2: 9, 3: 27}


def test_tower_ranks_clock(clock3_tower):
    assert clock3_tower.ranks == {0: 1, 1: 2, 2: 1, 3: 0}


def test_tower_ranks_su2(su2_m3_tower):
    assert su2_m3_tower.ranks == {0: 1, 1: 3, 2: 3, 3: 1, 4: 0}


def test_canonicalize_kills_q_relation(clock3_tower):
    t12 = wedge(coframe(clock3_tower, 0), coframe(clock3_tower, 1))
    t21 = wedge(coframe(clock3_tower, 1), coframe(clock3_tower, 0))
    assert form_norm(Q3 * t12 + t21) < 1e-12
    for a in range(2):
        sq = wedge(coframe(clock3_tower, a), coframe(clock3_tower, a))
        assert form_norm(sq) < 1e-12


def test_canonicalize_idempotent(clock3_tower, rng):
    raw = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    once = canonicalize(clock3_tower, 2, raw)
    twice = canonicalize(clock3_tower, 2, once)
    assert np.allclose(once, twice, atol=1e-13)


def test_contract_clock_values(clock3_tower):
    xi = wedge(coframe(clock3_tower, 0), coframe(clock3_tower, 1))
    c01 = contract(xi, (0, 1))
    c10 = contract(xi, (1, 0))
    assert np.allclose(c01, 0.5 * np.eye(3), atol=1e-12)
    assert np.allclose(c10, (-np.conj(Q3) / 2) * np.eye(3), atol=1e-12)


def test_contract_annihilates_relations(clock3_tower):
    t12 = wedge(coframe(clock3_tower, 0), coframe(clock3_tower, 1))
    t21 = wedge(coframe(clock3_tower, 1), coframe(clock3_tower, 0))
    rel = Q3 * t12 + t21
    for idx in ((0, 1), (1, 0), (0, 0), (1, 1)):
        assert np.linalg.norm(contract(rel, idx)) < 1e-12


def test_wedge_degree_overflow(pauli_tower):
    one = coframe(pauli_tower, 0)
    three = wedge(one, wedge(one, one))
    with pytest.raises(DegreeError):
        wedge(three, one)


def test_theta_coefficients(pauli_tower):
    th = theta(pauli_tower)
    assert th.degree == 1
    assert np.allclose(th.coeffs, -pauli_tower.ga.subspace.lambdas)


def test_exterior_d_degree0(pauli_tower):
    lam = pauli_tower.ga.subspace.lambdas
    f = lam[2]  # sigma_z
    df = exterior_d(calculus.scalar_form(pauli_tower, f))
    # df coefficients are [lambda_a, f].
    for a in range(3):
        assert np.allclose(df.coeffs[a], lam[a] @ f - f @ lam[a])


def test_exterior_d_clock_y(clock3_tower):
    lam = clock3_tower.ga.subspace.lambdas
    y = lam[1]
    dy = exterior_d(calculus.scalar_form(clock3_tower, y))
    assert np.allclose(dy.coeffs[0], lam[0] @ y - y @ lam[0])
    assert np.allclose(dy.coeffs[1], 0.0, atol=1e-13)


def test_exterior_d_into_zero_rank(clock3_tower, rng):
    xi = random_form(clock3_tower, 2, rng)
    dxi = exterior_d(xi)
    assert dxi.degree == 3
    assert form_norm(dxi) == 0.0


def test_d_squared_zero(su2_m3_tower, rng):
    for deg in (0, 1, 2):
        om = random_form(su2_m3_tower, deg, rng)
        assert form_norm(exterior_d(exterior_d(om))) < 1e-10


def test_d_squared_zero_pauli(pauli_tower, rng):
    for deg in (0, 1):
        om = random_form(pauli_tower, deg, rng)
        assert form_norm(exterior_d(exterior_d(om))) < 1e-10


def test_graded_leibniz(su2_m3_tower, rng):
    for dz, dx in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1)):
        z = random_form(su2_m3_tower, dz, rng)
        x = random_form(su2_m3_tower, dx, rng)
        sgn = (-1.0) ** dz
        lhs = exterior_d(wedge(z, x))
        rhs = wedge(exterior_d(z), x) + sgn * wedge(z, exterior_d(x))
        scale = max(form_norm(z) * form_norm(x), 1.0)
        assert form_norm(lhs - rhs) / scale < 1e-10


def test_chi_pauli_coframe(pauli_tower, rng):
    # On a co-frame element chi yields -F^a_{bc} theta^b theta^c (sign (-1)^1).
    c = chi(coframe(pauli_tower, 2))
    assert c.degree == 2
    F = pauli_tower.ga.F
    eye = np.eye(2)
    assert np.allclose(c.coeffs, -np.einsum("bc,ij->bcij", F[2], eye), atol=1e-12)
    # chi is linear.
    a = random_form(pauli_tower, 1, rng)
    b = random_form(pauli_tower, 1, rng)
    assert form_norm(chi(a + b) - chi(a) - chi(b)) < 1e-12


def test_structure_equations(pauli_tower, clock3_tower, su2_m3_tower):
    for tower in (pauli_tower, clock3_tower, su2_m3_tower):
        rep = check_structure_equations(tower)
        assert rep["passed"], rep
        assert rep["dtheta_plus_theta_sq"] < 1e-10
        assert rep["dtheta_a"] < 1e-10
        assert rep["relation_form"] < 1e-10


def _catalog_structure(name, m):
    e = catalog.build_entry(name, m)
    if e.suggested_alpha is None:
        return genalg.detect_structure(e.subspace)
    return genalg.use_relations(e.subspace, e.suggested_alpha)


def _generic_lambdas(m, n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    return lam - np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m


def _generic_structure(m, n, seed):
    return genalg.detect_structure(validate_subspace(m, list(_generic_lambdas(m, n, seed))))


def _chain_equations(G, p):
    """Dense chain system: (1 (x) alpha (x) 1) eps_t equal at adjacent t."""
    n, R = G.subspace.n, G.R
    # Unknown layout x[t, A, r]: move r behind the pair-free slots A.
    lifts = [np.kron(np.kron(np.eye(n ** t), G.alpha), np.eye(n ** (p - 2 - t)))
             .reshape(n ** p, n ** t, R, n ** (p - 2 - t)).transpose(0, 1, 3, 2)
             .reshape(n ** p, n ** (p - 2) * R) for t in range(p - 1)]
    rows = []
    for t in range(p - 2):
        row = [np.zeros((n ** p, n ** (p - 2) * R), dtype=complex)] * (p - 1)
        row[t], row[t + 1] = lifts[t], -lifts[t + 1]
        rows.append(np.hstack(row))
    return np.vstack(rows)


@pytest.mark.parametrize("make, p", [
    pytest.param(lambda: _catalog_structure("su2", 3), 3, id="su2-m3-p3"),
    pytest.param(lambda: _catalog_structure("su2", 3), 4, id="su2-m3-p4"),
    pytest.param(lambda: _catalog_structure("su2", 4), 3, id="su2-m4-p3"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), 3, id="ellipsoid-m4-p3"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), 3, id="clock-shift-m5-p3"),
    pytest.param(lambda: _catalog_structure("a0", 2), 4, id="a0-m2-p4"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 4, id="generic-m3-n4-p4"),
    pytest.param(lambda: _generic_structure(4, 5, 1), 4, id="generic-m4-n5-p4"),
    pytest.param(lambda: _generic_structure(2, 2, 2), 5, id="generic-m2-n2-p5"),
    pytest.param(lambda: _generic_structure(3, 3, 3), 4, id="generic-m3-n3-p4"),
])
def test_epsilon_chain_matches_tower(make, p):
    G = make()
    exists, basis, dim = epsilon_check(G, p)
    assert dim == calculus.build_tower(G, p).ranks[p]
    assert exists == (dim > 0)
    if dim == 0:
        assert basis is None
        return
    assert np.linalg.matrix_rank(basis) == dim
    residual = np.linalg.norm(_chain_equations(G, p) @ basis, axis=0)
    assert np.all(residual < 1e-10 * np.linalg.norm(basis, axis=0))


def test_epsilon_requires_degree_3(su2_m3_structure):
    with pytest.raises(ValueError):
        epsilon_check(su2_m3_structure, 2)


def test_coframe_from_formula(pauli_tower, clock3_tower):
    for tower in (pauli_tower, clock3_tower):
        m = tower.ga.subspace.m
        gam = np.concatenate([np.eye(m, dtype=complex)[None], gell_mann_basis(m)])
        rebuilt, th, rep = coframe_from_formula(tower, gam)
        assert rep["passed"], rep
        for a, form in enumerate(rebuilt):
            assert form_norm(form - coframe(tower, a)) < 1e-10
        assert form_norm(th - theta(tower)) < 1e-10


def test_form_arithmetic(pauli_tower, rng):
    a = random_form(pauli_tower, 1, rng)
    b = random_form(pauli_tower, 1, rng)
    assert form_norm((a + b) - b - a) < 1e-12
    assert form_norm(2.0 * a - a - a) < 1e-12
    assert form_norm(-a + a) == 0.0


def test_zero_form(pauli_tower):
    z = zero_form(pauli_tower, 2)
    assert z.degree == 2
    assert form_norm(z) == 0.0


def test_canonicalize_degree_check(pauli_tower, rng):
    with pytest.raises(DegreeError):
        random_form(pauli_tower, pauli_tower.max_degree + 1, rng)
    with pytest.raises(DegreeError):
        canonicalize(pauli_tower, -1, np.zeros((2, 2)))


def _relation_span(G, p):
    """Degree-p relation span: null(P^T) lifted to every adjacent slot pair."""
    left_null = rank_nullspace(G.P.T).nullspace
    return np.hstack([lift_to_slots(left_null, p, q) for q in range(1, p)])


def _dense_projector(G, p):
    """Pi_p = I - (projector onto the degree-p relation span), formed densely."""
    n = G.subspace.n
    if p < 2:
        return np.eye(n ** p)
    return np.eye(n ** p) - span_projector(_relation_span(G, p))


def _lie_derivative_dense(tower, pi, f, xi):
    """lie_derivative with the insertion weighted by the contraction tensor conj(Pi_p)."""
    B, duals = tower.ga.subspace, tower.ga.dual.duals
    n, m, p = tower.n, tower.m, xi.degree
    first = np.einsum("ij,...jk->...ik", f, xi.coeffs) - np.einsum("...ij,jk->...ik", xi.coeffs, f)
    comm = np.einsum("ij,cjk->cik", f, B.lambdas) - np.einsum("cij,jk->cik", B.lambdas, f)
    W = gram(duals, comm)
    X = np.tensordot(pi.conj(), xi.coeffs.reshape(n ** p, m, m), axes=([0], [0]))
    X = X.reshape(xi.coeffs.shape)
    second = sum((np.moveaxis(np.tensordot(X, W, axes=([q], [0])), -1, q) for q in range(p)),
                 np.zeros_like(X))
    return (pi @ (-first - second).reshape(n ** p, m * m)).reshape(xi.coeffs.shape)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 3), id="su2-m3"),
    pytest.param(lambda: _catalog_structure("clock-shift", 3), id="clock-shift-m3"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), id="ellipsoid-m4"),
    pytest.param(lambda: _catalog_structure("a0", 2), id="a0-m2"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
    pytest.param(lambda: _generic_structure(4, 5, 1), id="generic-m4-n5"),
])
def test_tower_matches_dense_projectors(make):
    G = make()
    tower = build_tower(G, 3)
    n, m = tower.n, tower.m
    rng = np.random.default_rng(7)
    f = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    for p in range(4):
        pi = _dense_projector(G, p)
        assert tower.ranks[p] == round(np.trace(pi).real)
        shape = (n,) * p + (m, m)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense = (pi @ raw.reshape(n ** p, m * m)).reshape(shape)
        assert np.max(np.abs(canonicalize(tower, p, raw) - dense)) < 1e-12
        xi = random_form(tower, p, rng)
        T = np.tensordot(pi.conj(), xi.coeffs.reshape(n ** p, m, m), axes=([0], [0]))
        for col, idx in enumerate(np.ndindex((n,) * p)):
            assert np.max(np.abs(contract(xi, idx) - T[col])) < 1e-12
        lie = lie_derivative(tower, f, xi).coeffs
        assert np.max(np.abs(lie - _lie_derivative_dense(tower, pi, f, xi))) < 1e-12


@pytest.mark.parametrize("make, p, expected", [
    pytest.param(lambda: _generic_structure(3, 4, 0), 5, 6 * 2 ** 5, id="generic-m3-n4-p5"),
    pytest.param(lambda: _generic_structure(4, 6, 2), 4, 5 * 3 ** 4, id="generic-m4-n6-p4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), 4, 0, id="clock-shift-m5-p4"),
    pytest.param(lambda: _catalog_structure("a0", 2), 4, 3 ** 4, id="a0-m2-p4"),
])
def test_recursive_ranks(make, p, expected):
    """D_p from the slot-pair recursion against the dense span, a closed form and the chain.

    Generic subspaces with n = 2(m-1) follow D_p = (p+1)(n/2)^p; clock-shift
    has D_3 = 0, so its degree-4 solve has no columns; a0 has no relations.
    """
    G = make()
    n = G.subspace.n
    D = build_tower(G, p).ranks[p]
    assert D == expected
    s = np.linalg.svd(_relation_span(G, p), compute_uv=False)
    assert D == n ** p - np.count_nonzero(s > DEFAULT_TOL * s.max(initial=0.0))
    assert D == epsilon_check(G, p)[2]


def test_a0_tower_memory():
    # D_3 = n^3 = 3375 here: a dense n^3 x n^3 array would take 182 MB.
    G = _catalog_structure("a0", 4)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        tower = build_tower(G, 3)
        xi = random_form(tower, 3, rng)
        eta = wedge(coframe(tower, 0), random_form(tower, 2, rng))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert xi.degree == eta.degree == 3 and tower.ranks[3] == 15 ** 3
    assert peak < 20e6


def _random_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rank_invariants(m, lambdas):
    G = genalg.detect_structure(validate_subspace(m, list(lambdas)))
    return G.R, build_tower(G, 3).ranks


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m, lambdas", [
    pytest.param(3, catalog.su2(3).subspace.lambdas, id="su2-m3"),
    pytest.param(3, catalog.clock_shift(3).subspace.lambdas, id="clock-shift-m3"),
    pytest.param(4, catalog.fuzzy_ellipsoid(4).subspace.lambdas, id="ellipsoid-m4"),
    pytest.param(2, catalog.universal_A0(2).subspace.lambdas, id="a0-m2"),
    pytest.param(3, _generic_lambdas(3, 4, 0), id="generic-m3-n4"),
    pytest.param(4, _generic_lambdas(4, 5, 1), id="generic-m4-n5"),
])
def test_ranks_invariant_under_presentation(m, lambdas, seed):
    """R and D_p do not depend on the basis of B or on a unitary frame of C^m."""
    rng = np.random.default_rng(seed)
    n = lambdas.shape[0]
    # cond(A) = 10: singular values spread evenly over [1, 10]
    A = _random_unitary(rng, n) @ np.diag(np.linspace(1.0, 10.0, n)) @ _random_unitary(rng, n)
    u = _random_unitary(rng, m)
    expected = _rank_invariants(m, lambdas)
    assert _rank_invariants(m, np.einsum("ab,bij->aij", A, lambdas)) == expected
    assert _rank_invariants(m, u @ lambdas @ u.conj().T) == expected
