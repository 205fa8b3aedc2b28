import json
import tracemalloc

import numpy as np
import pytest
from conftest import generic_subspace, random_identity_residuals

from ncdiff import calculus, catalog, cli, formats, genalg
from ncdiff import linalg as ncdiff_linalg
from ncdiff.algebra import validate_subspace
from ncdiff.calculus import (
    Form,
    build_tower,
    canonicalize,
    check_structure_equations,
    chi,
    coframe,
    coframe_from_formula,
    epsilon_check,
    exterior_d,
    form_norm,
    random_form,
    theta,
    wedge,
)
from ncdiff.algebra import matrix_basis_duals
from ncdiff.catalog import clock_shift, gell_mann_basis
from ncdiff.errors import DegreeError
from ncdiff.linalg import DEFAULT_TOL, gram, rank_nullspace, span_projector
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
    """A canonical form evaluated on (e_b1, e_b2) is its coefficient at (b1, b2)."""
    xi = wedge(coframe(clock3_tower, 0), coframe(clock3_tower, 1))
    c01 = xi.coeffs[0, 1]
    c10 = xi.coeffs[1, 0]
    assert np.allclose(c01, 0.5 * np.eye(3), atol=1e-12)
    assert np.allclose(c10, (-np.conj(Q3) / 2) * np.eye(3), atol=1e-12)


def test_contract_annihilates_relations(clock3_tower):
    t12 = wedge(coframe(clock3_tower, 0), coframe(clock3_tower, 1))
    t21 = wedge(coframe(clock3_tower, 1), coframe(clock3_tower, 0))
    rel = Q3 * t12 + t21
    for idx in ((0, 1), (1, 0), (0, 0), (1, 1)):
        assert np.linalg.norm(rel.coeffs[idx]) < 1e-12


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
    df = exterior_d(Form(pauli_tower, 0, f))
    # df coefficients are [lambda_a, f].
    for a in range(3):
        assert np.allclose(df.coeffs[a], lam[a] @ f - f @ lam[a])


def test_exterior_d_clock_y(clock3_tower):
    lam = clock3_tower.ga.subspace.lambdas
    y = lam[1]
    dy = exterior_d(Form(clock3_tower, 0, y))
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


def _generic_structure(m, n, seed):
    return genalg.detect_structure(generic_subspace(m, n, seed))


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
def test_epsilon_chain_matches_tower(make, p, tmp_path, capsys):
    G = make()
    exists, basis, dim = epsilon_check(G, p)
    assert dim == calculus.build_tower(G, p).ranks[p]
    assert exists == (dim > 0)
    # forms reads its epsilon sections off the tower; they must agree with the chain solver
    B, embedded = G.subspace, G.mode == "user-supplied"
    path = tmp_path / "algebra.json"
    formats.save_algebra(path, B.m, B.label, B.lambdas, alpha=G.alpha if embedded else None)
    argv = ["forms", str(path), "--max-degree", str(p), "--format", "json"]
    assert cli.main(argv + (["--alpha", "embedded"] if embedded else [])) == 0
    sections = {s["name"]: s for s in json.loads(capsys.readouterr().out)["sections"]}
    for q in range(3, p + 1):
        sec = sections[f"epsilon_degree_{q}"]
        assert (sec["exists"], sec["solution_dim"]) == epsilon_check(G, q)[::2]
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
        rebuilt, th, rep = coframe_from_formula(tower, gam, matrix_basis_duals(gam))
        assert rep["passed"], rep
        for a, form in enumerate(rebuilt):
            assert form_norm(form - coframe(tower, a)) < 1e-10
        assert form_norm(th - theta(tower)) < 1e-10


def _coframe_loop(tower, gam):
    """coframe_from_formula's rebuilt forms, one basis element nu at a time."""
    n, m = tower.n, tower.m
    gdual = matrix_basis_duals(gam)
    d = [exterior_d(Form(tower, 0, g.conj().T)) for g in gdual]
    rebuilt = []
    for a in range(n):
        la_dag = tower.ga.subspace.dual.duals[a].conj().T
        acc = Form(tower, 1, np.zeros((n, m, m), dtype=complex))
        for nu in range(m * m):
            acc = acc + Form(tower, 1, gam[nu] @ la_dag @ d[nu].coeffs)
        rebuilt.append(acc)
    acc = Form(tower, 1, np.zeros((n, m, m), dtype=complex))
    for mu in range(m * m):
        acc = acc + Form(tower, 1, gam[mu] / m @ d[mu].coeffs)
    return rebuilt, acc


def test_coframe_from_formula_matches_loop(pauli_tower, clock3_tower, su2_m3_tower):
    # a random basis of M_m(C) keeps every term of the sum over nu of size O(1)
    rng = np.random.default_rng(4)
    for tower in (pauli_tower, clock3_tower, su2_m3_tower):
        m = tower.m
        gam = rng.standard_normal((m * m, m, m)) + 1j * rng.standard_normal((m * m, m, m))
        rebuilt, th, rep = coframe_from_formula(tower, gam, matrix_basis_duals(gam))
        ref, ref_th = _coframe_loop(tower, gam)
        assert rep["passed"], rep
        assert len(rebuilt) == tower.n
        for form, expected in zip(rebuilt + [th], ref + [ref_th]):
            assert form.degree == 1
            assert np.max(np.abs(form.coeffs - expected.coeffs)) < 1e-12


def _chi_reference(xi):
    """Raw chi table, one slot at a time through tensordot."""
    F = xi.tower.ga.F
    out = 0
    for q in range(1, xi.degree + 1):
        term = np.tensordot(xi.coeffs, F, axes=([q - 1], [0]))
        out = out + (-1) ** q * np.moveaxis(term, (-2, -1), (q - 1, q))
    return out


def _exterior_d_reference(xi):
    """d = -(theta xi - (-1)^p xi theta) + chi(xi), each term projected on its own."""
    tower, p = xi.tower, xi.degree
    th = theta(tower)
    out = -1 * (wedge(th, xi) - (-1) ** p * wedge(xi, th))
    if p > 0:
        out = out + calculus.Form(tower, p + 1, canonicalize(tower, p + 1, _chi_reference(xi)))
    return out


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("a0", 3), id="a0-m3"),
    pytest.param(lambda: _catalog_structure("su2", 4), id="su2-m4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 8), id="clock-shift-m8"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 6), id="ellipsoid-m6"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
])
def test_exterior_d_matches_three_projections(make):
    """The one-projection d against wedge, wedge and chi projected separately."""
    tower = build_tower(make(), 3)
    rng = np.random.default_rng(9)
    for p in range(tower.max_degree):
        xi = random_form(tower, p, rng)
        ref = _exterior_d_reference(xi).coeffs
        assert np.linalg.norm(exterior_d(xi).coeffs - ref) <= 1e-12 * np.linalg.norm(ref)
        if p > 0:
            raw = _chi_reference(xi)
            assert np.max(np.abs(chi(xi).coeffs - canonicalize(tower, p + 1, raw))) < 1e-12


def test_tower_without_relations_skips_null_space(monkeypatch):
    """With R = n^2 (a0) P is the identity: no relation null space is computed."""
    G = _catalog_structure("a0", 3)
    n = G.subspace.n
    assert G.R == n * n

    def fail(*args, **kwargs):
        raise AssertionError("rank_nullspace called")

    monkeypatch.setattr(calculus, "rank_nullspace", fail)
    tower = build_tower(G, 3)
    assert tower.relations is None and tower.factors == tower.bases == {}
    assert tower.ranks == {p: n ** p for p in range(4)}


def test_form_arithmetic(pauli_tower, rng):
    a = random_form(pauli_tower, 1, rng)
    b = random_form(pauli_tower, 1, rng)
    assert form_norm((a + b) - b - a) < 1e-12
    assert form_norm(2.0 * a - a - a) < 1e-12
    assert form_norm(-a + a) == 0.0


def test_canonicalize_degree_check(pauli_tower, rng):
    with pytest.raises(DegreeError):
        random_form(pauli_tower, pauli_tower.max_degree + 1, rng)
    with pytest.raises(DegreeError):
        canonicalize(pauli_tower, -1, np.zeros((2, 2)))


def _lift_to_slots(Q, p, q):
    """kron(I_{n^(q-1)}, Q, I_{n^(p-q-1)}): an n^2 x k pair block on slots (q, q+1) of p."""
    n = round(Q.shape[0] ** 0.5)
    return np.kron(np.kron(np.eye(n ** (q - 1)), Q), np.eye(n ** (p - q - 1)))


def _relation_span(G, p):
    """Degree-p relation span: null(P^T) lifted to every adjacent slot pair."""
    left_null = rank_nullspace(G.P.T).nullspace
    return np.hstack([_lift_to_slots(left_null, p, q) for q in range(1, p)])


def _dense_projector(G, p):
    """Pi_p = I - (projector onto the degree-p relation span), formed densely."""
    n = G.subspace.n
    if p < 2:
        return np.eye(n ** p)
    return np.eye(n ** p) - span_projector(_relation_span(G, p))


def _lie_derivative_dense(tower, pi, f, xi):
    """lie_derivative with the insertion, weighted by the contraction tensor conj(Pi_p), added."""
    B, duals = tower.ga.subspace, tower.ga.subspace.dual.duals
    n, m, p = tower.n, tower.m, xi.degree
    first = np.einsum("ij,...jk->...ik", f, xi.coeffs) - np.einsum("...ij,jk->...ik", xi.coeffs, f)
    comm = np.einsum("ij,cjk->cik", f, B.lambdas) - np.einsum("cij,jk->cik", B.lambdas, f)
    W = gram(duals, comm)
    X = np.tensordot(pi.conj(), xi.coeffs.reshape(n ** p, m, m), axes=([0], [0]))
    X = X.reshape(xi.coeffs.shape)
    second = sum((np.moveaxis(np.tensordot(X, W, axes=([q], [0])), -1, q) for q in range(p)),
                 np.zeros_like(X))
    return (pi @ (-first + second).reshape(n ** p, m * m)).reshape(xi.coeffs.shape)


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
        # a basis W_p exists exactly at the degrees with relations: p >= 2 unless P = 1;
        # read before any canonicalize at p, so the top degree's is formed by the accessor
        W = tower.basis(p)
        assert (W is not None) == (p >= 2 and G.R < n * n)
        if W is not None:
            assert W.shape == (n ** p, tower.ranks[p])
            assert np.max(np.abs(W.conj().T @ W - np.eye(W.shape[1])), initial=0.0) < 1e-12
            assert np.max(np.abs(pi @ W - W), initial=0.0) < 1e-12
        else:
            assert np.array_equal(canonicalize(tower, p, raw), raw)
        assert np.max(np.abs(canonicalize(tower, p, raw) - dense)) < 1e-12
        xi = random_form(tower, p, rng)
        T = np.tensordot(pi.conj(), xi.coeffs.reshape(n ** p, m, m), axes=([0], [0]))
        for col, idx in enumerate(np.ndindex((n,) * p)):
            assert np.max(np.abs(xi.coeffs[idx] - T[col])) < 1e-12
        lie = lie_derivative(tower, f, xi).coeffs
        assert np.max(np.abs(lie - _lie_derivative_dense(tower, pi, f, xi))) < 1e-12


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 3), id="su2-m3"),
    pytest.param(lambda: _catalog_structure("clock-shift", 3), id="clock-shift-m3"),
    pytest.param(lambda: _catalog_structure("a0", 2), id="a0-m2"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
])
def test_kernels_match_einsum(make):
    """wedge and degree-0 d against their einsum formulas on random forms."""
    tower = build_tower(make(), 3)
    n, m = tower.n, tower.m
    rng = np.random.default_rng(3)
    f = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    lam = tower.ga.subspace.lambdas
    d0 = np.einsum("aij,jk->aik", lam, f) - np.einsum("ij,ajk->aik", f, lam)
    assert np.max(np.abs(exterior_d(Form(tower, 0, f)).coeffs - d0)) < 1e-12
    for p in range(4):
        xi = random_form(tower, p, rng)
        for q in range(4 - p):
            zeta = random_form(tower, q, rng)
            a = xi.coeffs.reshape(n ** p, m, m)
            b = zeta.coeffs.reshape(n ** q, m, m)
            raw = np.einsum("aij,bjk->abik", a, b).reshape((n,) * (p + q) + (m, m))
            ref = canonicalize(tower, p + q, raw)
            assert np.max(np.abs(wedge(xi, zeta).coeffs - ref)) < 1e-12, (p, q)


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


def _reference_pair_matrix(W, Lr, n, p):
    """M_p = (1_{n^(p-2)} (x) L^dag)(W_{p-1} (x) 1), the (n^(p-2) k) x (D_{p-1} n) relation matrix."""
    D = W.shape[1]
    Wt = W.reshape(n ** (p - 2), 1, n, D).swapaxes(-1, -2)
    return np.matmul(Wt, Lr).reshape(n ** (p - 2) * Lr.shape[0], D * n)


def _reference_tower(G, top, form_top=True, tol=DEFAULT_TOL):
    """Ranks and bases from the n^(p-2) k-row matrices M_p, with every W_p formed eagerly.

    W_p = (W_{p-1} (x) 1) null(M_p), each null space from the SVD of whichever
    of M_p and M_p^dag is tall.  Without ``form_top`` the top rank comes from
    singular values alone and W_top is not formed.
    """
    n = G.subspace.n
    ranks, bases = {p: n ** p for p in range(top + 1)}, {}
    Lr = calculus._relation_pairs(G, tol)
    W = np.eye(n, dtype=complex)
    for p in range(2, top + 1) if Lr is not None else ():
        M = _reference_pair_matrix(W, Lr, n, p)
        tall = M.shape[0] >= M.shape[1]
        if p == top and not form_top:
            s = np.linalg.svd(M if tall else M.T, compute_uv=False)
        elif tall:
            _, s, vh = np.linalg.svd(M, full_matrices=False)
            V = vh.conj().T
        else:
            V, s, _ = np.linalg.svd(M.conj().T)
        rank = int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > tol else 0
        D = ranks[p] = W.shape[1] * n - rank
        if p < top or form_top:
            N = V[:, rank:].reshape(W.shape[1], n, D)
            W = bases[p] = np.einsum("Bj,jct->Bct", W, N).reshape(n ** p, D)
    return ranks, bases


@pytest.mark.parametrize("m, n", [(m, n) for m in range(2, 6) for n in range(2, min(9, m * m))])
def test_factored_ranks_match_relation_matrices_generic(m, n):
    """Every D_p from the D-sized K_p equals the rank the n^(p-2) k-row M_p gives, seeds 0-2."""
    top = 5 if n <= 5 else 4
    for seed in range(3):
        G = _generic_structure(m, n, seed)
        assert build_tower(G, top).ranks == _reference_tower(G, top, form_top=False)[0]


@pytest.mark.parametrize("name", catalog.NAMES)
def test_factored_ranks_match_relation_matrices_catalog(name):
    """Every catalog entry at m = 2..6, with detected and with suggested relations, to degree 4."""
    for m in range(2, 7):
        try:
            e = catalog.build_entry(name, m)
        except ValueError:  # m below the entry's minimum
            continue
        structures = [genalg.detect_structure(e.subspace)]
        if e.suggested_alpha is not None:
            structures.append(genalg.use_relations(e.subspace, e.suggested_alpha))
        for G in structures:
            assert build_tower(G, 4).ranks == _reference_tower(G, 4, form_top=False)[0], (m, G.mode)


@pytest.mark.parametrize("make, top", [
    pytest.param(lambda: _catalog_structure("su2", 4), 4, id="su2-m4-p4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), 4, id="clock-shift-m5-p4"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), 4, id="ellipsoid-m4-p4"),
    pytest.param(lambda: _catalog_structure("a0", 2), 4, id="a0-m2-p4"),
    pytest.param(lambda: _generic_structure(2, 3, 2), 5, id="generic-m2-n3-p5"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 5, id="generic-m3-n4-p5"),
    pytest.param(lambda: _generic_structure(4, 5, 1), 4, id="generic-m4-n5-p4"),
    pytest.param(lambda: _generic_structure(5, 8, 0), 3, id="generic-m5-n8-p3"),
])
def test_factored_bases_match_eager_bases(make, top):
    """W_p formed from the factors spans the eager W_p of the n^p-row path: W W^dag agree."""
    G = make()
    tower = build_tower(G, top)
    ranks, bases = _reference_tower(G, top)
    assert tower.ranks == ranks
    for p in range(top + 1):
        W, ref = tower.basis(p), bases.get(p)
        if ref is None:
            assert W is None
            continue
        assert W.shape == ref.shape
        assert np.max(np.abs(W @ W.conj().T - ref @ ref.conj().T), initial=0.0) < 1e-12


class _Proxy:
    """A stand-in for a module: ``overrides`` first, every other name from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _spy_decompositions(monkeypatch):
    """Record every Cholesky, QR and SVD of the tower's rank decisions, in order.

    That is every one that ``calculus`` runs, and the Cholesky of
    ``linalg._full_rank``.

    Entries: "chol" (succeeded), "chol-fail", "qr-complete", "qr-r", "svd" and
    "svd-values" (compute_uv=False).
    """
    calls = []
    real = np.linalg

    def cholesky(a, *args, **kwargs):
        try:
            out = real.cholesky(a, *args, **kwargs)
        except real.LinAlgError:
            calls.append("chol-fail")
            raise
        calls.append("chol")
        return out

    def qr(a, mode="reduced"):
        calls.append(f"qr-{mode}")
        return real.qr(a, mode=mode)

    def svd(a, *args, compute_uv=True, **kwargs):
        calls.append("svd" if compute_uv else "svd-values")
        return real.svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(calculus, "np",
                        _Proxy(np, linalg=_Proxy(real, cholesky=cholesky, qr=qr, svd=svd)))
    monkeypatch.setattr(ncdiff_linalg, "np", _Proxy(np, linalg=_Proxy(real, cholesky=cholesky)))
    return calls


def _spy_lift(monkeypatch):
    """Record the width of every W_p that ``calculus`` forms from its factors."""
    widths = []
    lift = calculus._lift

    def spy(W, N, n):
        widths.append(N.shape[1])
        return lift(W, N, n)

    monkeypatch.setattr(calculus, "_lift", spy)
    return widths


@pytest.mark.parametrize("top", [2, 3, 4])
def test_top_degree_is_rank_only(monkeypatch, top):
    """build_tower decides D_max from a Cholesky alone and forms no W_p.

    Generic K_p have full rank, so each degree below the top takes a Cholesky
    and the complete QR that gives N_p, and the top degree a Cholesky only.  A
    first projection below the top forms W_p with GEMMs alone; the first at
    the top forms N_max with one complete QR, and then W_max.  Each is formed
    once.  su2(4), whose K_3 is rank-deficient, takes the fallbacks at the top:
    the values-only SVD for D_3, and a QR's R factor and its SVD for N_3.
    """
    G = _generic_structure(3, 4, 0)
    n, m = G.subspace.n, G.subspace.m
    calls = _spy_decompositions(monkeypatch)
    lifts = _spy_lift(monkeypatch)
    tower = build_tower(G, top)
    assert calls == ["chol", "qr-complete"] * (top - 2) + ["chol"]
    assert tower.ranks[top] == (top + 1) * 2 ** top
    assert sorted(tower.factors) == list(range(1, top)) and tower.bases == {} and lifts == []
    calls.clear()
    rng = np.random.default_rng(0)
    if top > 2:
        raw = rng.standard_normal((n,) * (top - 1) + (m, m)).astype(complex)
        canonicalize(tower, top - 1, raw)
        assert calls == [] and sorted(tower.bases) == list(range(2, top))
    raw = rng.standard_normal((n,) * top + (m, m)).astype(complex)
    once = canonicalize(tower, top, raw)
    assert calls == ["qr-complete"] and sorted(tower.bases) == list(range(2, top + 1))
    assert lifts == [tower.ranks[p] for p in range(2, top + 1)]
    assert tower.basis(top).shape == (n ** top, tower.ranks[top])
    assert np.array_equal(canonicalize(tower, top, raw), once)
    assert calls == ["qr-complete"] and len(lifts) == top - 1

    G = _catalog_structure("su2", 4)
    calls.clear()
    tower = build_tower(G, 3)
    assert calls == ["chol", "qr-complete", "chol-fail", "svd-values"]
    assert tower.ranks == {0: 1, 1: 3, 2: 3, 3: 1}
    calls.clear()
    assert tower.basis(3).shape == (27, 1) and calls == ["qr-r", "svd"]


def test_failed_top_basis_is_formed_on_the_next_call(monkeypatch):
    """A forming of W_max that raises, in its SVD or in a GEMM, is done again by the next call."""
    G = _generic_structure(3, 4, 0)
    raw = np.random.default_rng(0).standard_normal((4,) * 3 + (3,) * 2)
    expected = canonicalize(build_tower(G, 3), 3, raw)
    for step in ("_null_factor", "_lift"):
        tower = build_tower(G, 3)
        attempts = []
        real = getattr(calculus, step)

        def flaky(*args, **kwargs):
            attempts.append(None)
            if len(attempts) == 1:
                raise MemoryError("first attempt")
            return real(*args, **kwargs)

        monkeypatch.setattr(calculus, step, flaky)
        with pytest.raises(MemoryError):
            tower.basis(3)
        assert 3 not in tower.bases
        W = tower.basis(3)
        monkeypatch.undo()
        assert len(attempts) >= 2 and 3 in tower.bases and 3 in tower.factors
        assert W.shape == (tower.n ** 3, tower.ranks[3])
        assert np.allclose(canonicalize(tower, 3, raw), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [3, 4])
def test_epsilon_check_factors_each_degree_once(monkeypatch, p):
    """W_p for the chain takes one null-space factorization per degree, from the tower.

    epsilon_check runs the decompositions of ``build_tower(G, p).basis(p)`` and
    no others.  Generic K_q have full rank: a Cholesky and a complete QR each.
    su2(4)'s rank-deficient K_3 fails its Cholesky; below the top it takes the R
    factor of a QR and its SVD, and at the top the tower's values-only SVD for
    D_3 comes first.  Its K_4, tall and of full rank, needs no QR.
    """
    G = _generic_structure(3, 4, 0)
    calls = _spy_decompositions(monkeypatch)
    exists, basis, dim = epsilon_check(G, p)
    assert calls == ["chol", "qr-complete"] * (p - 1)
    assert exists and dim == build_tower(G, p).ranks[p] == (p + 1) * 2 ** p
    assert basis.shape == ((p - 1) * G.subspace.n ** (p - 2) * G.R, dim)
    G = _catalog_structure("su2", 4)
    calls.clear()
    exists, _, dim = epsilon_check(G, p)
    expected = (["chol", "qr-complete", "chol-fail", "svd-values", "qr-r", "svd"] if p == 3
                else ["chol", "qr-complete", "chol-fail", "qr-r", "svd", "chol"])
    assert calls == expected
    assert (exists, dim) == ((True, 1) if p == 3 else (False, 0))
    calls.clear()
    build_tower(G, p).basis(p)
    assert calls == expected


def test_degree_one_tower_has_no_bases(monkeypatch):
    calls = _spy_decompositions(monkeypatch)
    tower = build_tower(_generic_structure(3, 4, 0), 1)
    assert calls == [] and tower.bases == tower.factors == {} and tower.basis(1) is None


def test_forms_never_forms_the_top_basis(monkeypatch, tmp_path, capsys):
    """``forms`` reads every D_p off a Cholesky, takes N_p below the top from a QR, forms no W_p."""
    G = _generic_structure(3, 4, 0)
    B = G.subspace
    path = tmp_path / "generic.json"
    formats.save_algebra(path, B.m, B.label, B.lambdas)
    calls = _spy_decompositions(monkeypatch)
    lifts = _spy_lift(monkeypatch)
    assert cli.main(["forms", str(path), "--max-degree", "4", "--format", "json"]) == 0
    assert calls == ["chol", "qr-complete", "chol", "qr-complete", "chol"] and lifts == []
    ranks = json.loads(capsys.readouterr().out)["sections"][0]["D"]
    assert ranks == {"0": 1, "1": 4, "2": 12, "3": 32, "4": 80}


@pytest.mark.parametrize("make, top, expected", [
    pytest.param(lambda: _catalog_structure("su2", 3), 3, 1, id="su2-m3"),
    pytest.param(lambda: _catalog_structure("su2", 4), 3, 1, id="su2-m4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 3), 3, 0, id="clock-shift-m3"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), 3, 0, id="clock-shift-m5"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), 3, 0, id="ellipsoid-m4"),
    pytest.param(lambda: _catalog_structure("a0", 2), 3, 27, id="a0-m2"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 5, 192, id="generic-m3-n4-p5"),
    pytest.param(lambda: _generic_structure(4, 5, 0), 4, 0, id="generic-m4-n5-p4"),
    # D_4 = 0: the top degree is solved on an empty W_{max-1}
    pytest.param(lambda: _generic_structure(4, 5, 0), 5, 0, id="generic-m4-n5-p5"),
    pytest.param(lambda: _generic_structure(5, 8, 0), 3, 256, id="generic-m5-n8-p3"),
])
def test_deferred_top_basis_matches_a_taller_tower(make, top, expected):
    """W_max formed on demand is orthonormal, D_max wide and spans the W_max of a taller tower.

    The taller tower forms that degree's basis eagerly, with its own rank decision.
    """
    G = make()
    tower = build_tower(G, top)
    assert tower.ranks[top] == expected
    W = tower.basis(top)
    taller = build_tower(G, top + 1).basis(top)
    if W is None:
        assert taller is None and tower.ranks[top] == tower.n ** top
        return
    assert W.shape == (tower.n ** top, tower.ranks[top]) == taller.shape
    assert np.max(np.abs(W.conj().T @ W - np.eye(W.shape[1])), initial=0.0) < 1e-12
    assert np.max(np.abs(W @ W.conj().T - taller @ taller.conj().T), initial=0.0) < 1e-12


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
    pytest.param(3, generic_subspace(3, 4, 0).lambdas, id="generic-m3-n4"),
    pytest.param(4, generic_subspace(4, 5, 1).lambdas, id="generic-m4-n5"),
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


def _stacked(tower, forms):
    return calculus.Form(tower, forms[0].degree, np.stack([f.coeffs for f in forms]))


def _close(stacked, singles):
    """Slice k of a stacked result against the k-th per-form result, to 1e-12 relative."""
    for got, ref in zip(stacked, singles):
        assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("a0", 3), id="a0-m3"),
    pytest.param(lambda: _catalog_structure("su2", 4), id="su2-m4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 8), id="clock-shift-m8"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 6), id="ellipsoid-m6"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
])
def test_stacked_forms_match_per_form(make, count):
    """canonicalize, wedge, d, chi and form_norm on a stack equal the per-form results."""
    tower = build_tower(make(), 3)
    n, m = tower.n, tower.m
    rng = np.random.default_rng(5)
    for p in range(3):
        forms = [random_form(tower, p, rng) for _ in range(count)]
        xi = _stacked(tower, forms)
        assert xi.stack == (count,)
        shape = (count,) + (n,) * p + (m, m)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        _close(canonicalize(tower, p, raw), [canonicalize(tower, p, r) for r in raw])
        _close(exterior_d(xi).coeffs, [exterior_d(f).coeffs for f in forms])
        if p > 0:
            _close(chi(xi).coeffs, [chi(f).coeffs for f in forms])
        norms = form_norm(xi)
        assert norms.shape == (count,)
        _close(norms, [form_norm(f) for f in forms])
        for q in range(3 - p + 1):
            others = [random_form(tower, q, rng) for _ in range(count)]
            zeta = _stacked(tower, others)
            _close(wedge(xi, zeta).coeffs, [wedge(f, g).coeffs for f, g in zip(forms, others)])
            # one form against every form of a stack, on either side
            _close(wedge(forms[0], zeta).coeffs, [wedge(forms[0], g).coeffs for g in others])
            _close(wedge(xi, others[0]).coeffs, [wedge(f, others[0]).coeffs for f in forms])


def test_random_form_stack_keeps_the_stream():
    """A stack of k random forms is the forms of k unstacked calls, from the same stream."""
    tower = build_tower(_catalog_structure("su2", 4), 3)
    stacked_rng, rng = np.random.default_rng(1), np.random.default_rng(1)
    xi = random_form(tower, 2, stacked_rng, 4)
    singles = [random_form(tower, 2, rng).coeffs for _ in range(4)]
    assert np.array_equal(xi.coeffs, np.stack(singles))
    assert stacked_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 4), id="su2-m4"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 6), id="ellipsoid-m6"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
])
def test_structure_equations_match_coframe_loop(make):
    """The stacked co-frame equations against one equation per theta^a."""
    tower = build_tower(make(), 2)
    G, m = tower.ga, tower.m
    th = theta(tower)
    worst = 0.0
    for a in range(tower.n):
        ta = coframe(tower, a)
        comm = wedge(th, ta) + wedge(ta, th)
        rhs = np.einsum("bc,ij->bcij", -G.F[a], np.eye(m))
        rhs = calculus.Form(tower, 2, canonicalize(tower, 2, rhs))
        worst = max(worst, form_norm(exterior_d(ta) - (-1 * comm + rhs)))
    assert abs(check_structure_equations(tower)["dtheta_a"] - worst) < 1e-14


def test_trial_batches_cover_trials(monkeypatch):
    # a0(m=4) and a0(m=3) degree-3 tables: 15^3 * 4^2 and 8^3 * 3^2 entries
    assert calculus.trial_batches(20, 15 ** 3 * 4 ** 2) == [1] * 20
    assert calculus.trial_batches(20, 8 ** 3 * 3 ** 2) == [14, 6]
    monkeypatch.setattr(calculus, "STACK_BYTES", 3 * 16 * 100)
    assert calculus.trial_batches(7, 100) == [3, 3, 1]
    assert calculus.trial_batches(2, 1000) == [1, 1]
    monkeypatch.setattr(calculus, "STACK_BYTES", 250 * 16)
    assert calculus.trial_batches(7, 100) == [2, 2, 2, 1]
    monkeypatch.setattr(calculus, "STACK_BYTES", 10 ** 6 * 16)
    assert calculus.trial_batches(5, 100) == [5]
    monkeypatch.setattr(calculus, "STACK_BYTES", 0)
    assert calculus.trial_batches(3, 100) == [1, 1, 1]


@pytest.mark.parametrize("make, top", [
    pytest.param(lambda: _catalog_structure("a0", 2), 3, id="a0-m2"),
    pytest.param(lambda: _catalog_structure("su2", 4), 3, id="su2-m4"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 4, id="generic-m3-n4"),
])
def test_kernels_into_nan_workspace_match_public_operations(make, top):
    """d written into NaN-filled buffers, and the raw wedge, projected in place, equal the public ops.

    A kernel that read an entry of its buffers before writing it would carry
    a NaN into the table.
    """
    tower = build_tower(make(), top)
    n, m = tower.n, tower.m
    rng = np.random.default_rng(3)

    def nan_buffer(degree):
        return np.full(3 * n ** degree * m * m, np.nan, dtype=complex)

    for p in range(top):
        xi = random_form(tower, p, rng, 3)
        raw = calculus._raw_d(tower, xi.coeffs, p, nan_buffer(p + 1), nan_buffer(p + 1))
        assert np.array_equal(calculus._project(tower, p + 1, raw), exterior_d(xi).coeffs)
        for q in range(top - p + 1):
            zeta = random_form(tower, q, rng, 3)
            raw = calculus._raw_wedge(tower, xi.coeffs, p, zeta.coeffs, q)
            table = calculus._project(tower, p + q, np.ascontiguousarray(raw))
            assert np.array_equal(table, wedge(xi, zeta).coeffs)


@pytest.mark.parametrize("make, top", [
    pytest.param(lambda: _catalog_structure("a0", 3), 3, id="a0-m3"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), 3, id="ellipsoid-m4"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 4, id="generic-m3-n4"),
])
def test_identity_tables_in_nan_workspace_match_public_operations(make, top):
    """verify's generator tables, built in NaN-filled buffers, are the public residuals.

    d(d g) for the E_ij and theta^a, and pi_3 d(L_r (x) 1_m) for the relation
    columns, through ``exterior_d`` and ``canonicalize``.
    """
    tower = build_tower(make(), top)
    n, m = tower.n, tower.m
    one = np.eye(m, dtype=complex)
    Lr = tower.relations if tower.relations is not None else np.empty((0, n, n))
    gens = [(np.eye(m * m, dtype=complex).reshape(-1, m, m), 0, 2),
            (np.eye(n)[:, :, None, None] * one, 1, 2),
            (Lr.conj()[..., None, None] * one, 2, 1)]
    for g, p, steps in gens:
        if not len(g):
            continue
        bufs = [np.full(len(g) * n ** (p + steps) * m * m, np.nan, dtype=complex)
                for _ in range(2)]
        got = calculus._generator_residual(tower, g, p, steps, bufs)
        if steps == 2:
            ref = form_norm(exterior_d(exterior_d(calculus.Form(tower, p, g))))
        else:
            ref = form_norm(calculus.Form(tower, 3, canonicalize(
                tower, 3, calculus._raw_d(tower, g, p))))
        assert np.all(np.abs(got - ref) <= 1e-13)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 3), id="su2-m3"),
    pytest.param(lambda: genalg.detect_structure(catalog.su2(4).subspace), id="su2-m4-auto"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), id="clock-shift-m5"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), id="ellipsoid-m4"),
    pytest.param(lambda: _catalog_structure("a0", 2), id="a0-m2"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
    pytest.param(lambda: _generic_structure(2, 2, 1), id="generic-m2-n2"),
])
def test_raw_d_is_a_graded_derivation(make):
    """The raw d is a graded derivation of T(V) (x) M_m on random raw tables.

    This is the fact that lets ``generator_residuals`` decide d o d = 0 and
    the Leibniz rule on generators; the random-trial residuals of the
    projected forms stay at rounding level too.
    """
    tower = build_tower(make(), 3)
    _, raw_leibniz = random_identity_residuals(tower, 5, np.random.default_rng(7), raw=True)
    dd, leibniz = random_identity_residuals(tower, 5, np.random.default_rng(7))
    scale = max(np.linalg.norm(tower.ga.subspace.lambdas), 1.0)
    assert raw_leibniz < 1e-14 * scale
    assert max(dd, leibniz) < 1e-12
