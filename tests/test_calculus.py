import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (
    WORKLOAD_CATALOG,
    coframe_stack_residual,
    dense_basis,
    dense_nullspace,
    dense_projector,
    generator_engine_residuals,
    generic_subspace,
    random_identity_residuals,
)
from hypothesis import given, settings, strategies as st

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
from ncdiff.linalg import DEFAULT_TOL, _complement, gram, span_projector
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
        assert genalg.verify_ga(tower.ga)["relation_residual"] < 1e-10


def _catalog_structure(name, m):
    e = catalog.build_entry(name, m)
    if e.suggested_alpha is None:
        return genalg.detect_structure(e.subspace)
    return genalg.use_relations(e.subspace, e.suggested_alpha)


def _generic_structure(m, n, seed):
    return genalg.detect_structure(generic_subspace(m, n, seed))


def _workload_structures():
    """Every workload catalog input in each alpha mode it has, and generic (3, 4) and (4, 5)."""
    for name, m in WORKLOAD_CATALOG:
        e = catalog.build_entry(name, m)
        yield pytest.param(lambda e=e: genalg.detect_structure(e.subspace), id=f"{name}-m{m}-auto")
        if e.suggested_alpha is not None:
            yield pytest.param(lambda e=e: genalg.use_relations(e.subspace, e.suggested_alpha),
                               id=f"{name}-m{m}-embedded")
    for m, n in ((3, 4), (4, 5)):
        yield pytest.param(lambda m=m, n=n: _generic_structure(m, n, 0), id=f"generic-m{m}-n{n}")


@pytest.mark.parametrize("make", _workload_structures())
def test_tower_degree2_basis_is_alpha(make):
    """W_2 is the structure's conj(alpha), the same array, and D_2 = R: degree 2 takes no
    decision of its own.  Without relations (a0) neither W_2 nor alpha is formed."""
    G = make()
    tower = build_tower(G, 3)
    assert tower.ranks[2] == G.R
    if G.L.shape[1] == 0:
        assert dense_basis(tower, 2) is None and "alpha" not in G.__dict__
    else:
        assert np.array_equal(dense_basis(tower, 2), G.alpha.conj())


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


@pytest.mark.parametrize("alpha", ["auto", "embedded"])
def test_coframe_from_formula_does_not_scale_its_bound(monkeypatch, alpha):
    """Bugfix: the rebuilt theta^a, which do not scale with B, are judged against 10 tol.

    On su2(m=4) times 1e8 a reference co-frame scaled by 1 + 1e-6 makes the
    theta^a residuals 2e-6 and leaves theta (relative to |lambda|) at 0; a
    bound of 10 tol max(|lambda|, 1) = 3.87 passed them.
    """
    e = catalog.su2(4, kappa=1e8)
    G = (genalg.detect_structure(e.subspace) if alpha == "auto"
         else genalg.use_relations(e.subspace, e.suggested_alpha))
    tower = build_tower(G, 2)
    gam = np.concatenate([np.eye(4, dtype=complex)[None], gell_mann_basis(4)])
    duals = matrix_basis_duals(gam)
    rep = coframe_from_formula(tower, gam, duals)[2]
    assert rep.pop("passed") and max(rep.values()) < 1e-15
    real = calculus.coframe
    monkeypatch.setattr(calculus, "coframe",
                        lambda tower, a: Form(tower, 1, real(tower, a).coeffs * (1 + 1e-6)))
    rep = coframe_from_formula(tower, gam, duals)[2]
    assert not rep["passed"] and rep["theta"] < 1e-15
    for a in range(3):
        assert rep[f"theta_{a}"] == pytest.approx(2e-6, rel=1e-6)


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
    """With R = n^2 (a0) the stored L has no columns: no relation matrix K_p is formed."""
    G = _catalog_structure("a0", 3)
    n = G.subspace.n
    assert G.R == n * n and G.L.shape == (n * n, 0)

    def fail(*args, **kwargs):
        raise AssertionError("relation matrix formed")

    monkeypatch.setattr(calculus, "_pair_matrix", fail)
    tower = build_tower(G, 3)
    assert tower.relations is None and tower.factors == {}
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
    left_null = _dense_L(G)
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
        # read before any canonicalize at p, so the top degree's N_max is formed by ``factor``
        W = dense_basis(tower, p)
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


def _dense_L(G):
    """L = null(P^T) from a full SVD of the dense n^2 x n^2 P = alpha alpha^dag."""
    return dense_nullspace(dense_projector(G.alpha).T)


def _dense_relation_pairs(G):
    """``Lr[r][a, c] = conj(L[(a, c), r])`` for L = null(P^T) of the dense n^2 x n^2 P, or None."""
    n = G.subspace.n
    L = _dense_L(G)
    return L.T.conj().reshape(-1, n, n) if L.shape[1] else None


def _reference_tower(G, top, form_top=True, tol=DEFAULT_TOL):
    """Ranks and bases from the n^(p-2) k-row matrices M_p, with every W_p formed eagerly.

    W_p = (W_{p-1} (x) 1) null(M_p), each null space from the SVD of whichever
    of M_p and M_p^dag is tall.  Without ``form_top`` the top rank comes from
    singular values alone and W_top is not formed.
    """
    n = G.subspace.n
    ranks, bases = {p: n ** p for p in range(top + 1)}, {}
    Lr = _dense_relation_pairs(G)
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


def _stored_L_cases():
    for name in catalog.NAMES:
        for m in range(2, 6):
            try:
                e = catalog.build_entry(name, m)
            except ValueError:  # m below the entry's minimum
                continue
            yield pytest.param(lambda e=e: genalg.detect_structure(e.subspace),
                               id=f"{name}-m{m}-auto")
            if e.suggested_alpha is not None:
                yield pytest.param(lambda e=e: genalg.use_relations(e.subspace, e.suggested_alpha),
                                   id=f"{name}-m{m}-embedded")
    for m, n in ((3, 4), (4, 5), (5, 8)):
        yield pytest.param(lambda m=m, n=n: _generic_structure(m, n, 0), id=f"generic-m{m}-n{n}")


@pytest.mark.parametrize("make", list(_stored_L_cases()))
def test_stored_L_matches_the_dense_reference(make):
    """The stored L is orthonormal, k = n^2 - R wide, in null(P^T) of the derived P, and the
    tower built on it ranks every degree to 4 as the reference built on null(P^T) from a full SVD."""
    G = make()
    n = G.subspace.n
    L = G.L
    assert L.shape == (n * n, n * n - G.R)
    assert np.max(np.abs(L.conj().T @ L - np.eye(L.shape[1])), initial=0.0) < 1e-12
    assert np.max(np.abs(dense_projector(G.alpha).T @ L), initial=0.0) < 1e-12
    assert build_tower(G, 4).ranks == _reference_tower(G, 4, form_top=False)[0]


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
        W, ref = dense_basis(tower, p), bases.get(p)
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

    That is every one that ``calculus`` runs, the Cholesky of
    ``linalg._full_rank`` and the Householder QR of ``linalg._complement``.

    Entries: "chol" (succeeded), "chol-fail", "qr-raw", "qr-r", "svd" and
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
    monkeypatch.setattr(ncdiff_linalg, "np",
                        _Proxy(np, linalg=_Proxy(real, cholesky=cholesky, qr=qr)))
    return calls


def _spy_embeds(monkeypatch):
    """Record (p, Z) for every W_p c that ``calculus`` forms from a stack of D_p x Z coordinates.

    Only an embedding makes n^p rows from the factors.  A projection of
    coefficient tables has Z = m^2; an n^p x D_p basis, W_p I_{D_p}, would
    have Z = D_p.
    """
    embeds = []
    embed = calculus._embed

    def spy(tower, p, c, out=None):
        embeds.append((p, c.shape[-1]))
        return embed(tower, p, c, out=out)

    monkeypatch.setattr(calculus, "_embed", spy)
    return embeds


def _spy_pair_matrix(monkeypatch):
    """Record the shape of every K_p that ``calculus`` builds."""
    shapes = []
    pair_matrix = calculus._pair_matrix

    def spy(N, Lr, n):
        K = pair_matrix(N, Lr, n)
        shapes.append(K.shape)
        return K

    monkeypatch.setattr(calculus, "_pair_matrix", spy)
    return shapes


@pytest.mark.parametrize("top", [2, 3, 4])
def test_top_degree_is_rank_only(monkeypatch, top):
    """build_tower decides D_max from a Cholesky alone and forms no W_p.

    N_2 is the structure's conj(alpha), from the one Householder QR that derives
    alpha from L, with no decision.  Generic K_p have full rank, so each degree
    from 3 below the top takes a Cholesky and the Householder QR whose
    reflectors give N_p, and a top degree above 2 a Cholesky only.  A
    projection below the top runs GEMMs alone; the first at a top above 2
    forms N_max with one such QR, once.  No projection forms an n^p-row
    basis: each embeds the coordinates of its table (Z = m^2).  Every
    Cholesky reads a Gram formed from the factors, so K_p is built only for a
    QR or an SVD: none at a proved top.  su2(4), whose K_3 is rank-deficient,
    takes the fallbacks at the top: the values-only SVD for D_3, and a QR's R
    factor and its SVD for N_3, each on a K_3 it builds.
    """
    G = _generic_structure(3, 4, 0)
    n, m = G.subspace.n, G.subspace.m
    calls = _spy_decompositions(monkeypatch)
    embeds = _spy_embeds(monkeypatch)
    pairs = _spy_pair_matrix(monkeypatch)
    tower = build_tower(G, top)
    assert calls == ["qr-raw"] + ["chol", "qr-raw"] * (top - 3) + ["chol"] * (top > 2)
    assert len(pairs) == max(top - 3, 0)
    assert tower.ranks[top] == (top + 1) * 2 ** top
    below = list(range(1, max(top, 3)))
    assert sorted(tower.factors) == below
    assert embeds == []
    calls.clear()
    rng = np.random.default_rng(0)
    if top > 2:
        raw = rng.standard_normal((n,) * (top - 1) + (m, m)).astype(complex)
        canonicalize(tower, top - 1, raw)
        assert calls == [] and sorted(tower.factors) == below
    raw = rng.standard_normal((n,) * top + (m, m)).astype(complex)
    once = canonicalize(tower, top, raw)
    top_qr = ["qr-raw"] * (top > 2)
    assert calls == top_qr and sorted(tower.factors) == list(range(1, top + 1))
    assert len(pairs) == max(top - 2, 0)
    assert embeds == [(top - 1, m * m)] * (top > 2) + [(top, m * m)]
    assert tower.factor(top).shape == (tower.ranks[top - 1] * n, tower.ranks[top])
    assert np.array_equal(canonicalize(tower, top, raw), once)
    assert calls == top_qr and embeds[-1] == (top, m * m)

    G = _catalog_structure("su2", 4)
    calls.clear()
    pairs.clear()
    tower = build_tower(G, 3)
    assert calls == ["qr-raw", "chol-fail", "svd-values"] and len(pairs) == 1
    assert tower.ranks == {0: 1, 1: 3, 2: 3, 3: 1}
    calls.clear()
    assert tower.factor(3).shape == (9, 1) and calls == ["qr-r", "svd"] and len(pairs) == 2


def test_failed_top_basis_is_formed_on_the_next_call(monkeypatch):
    """A projection onto the top degree that raises, in the SVD of N_max or in a GEMM of the
    embedding, keeps no N_max half formed, and the next call projects as an untouched tower does."""
    G = _generic_structure(3, 4, 0)
    raw = np.random.default_rng(0).standard_normal((4,) * 3 + (3,) * 2)
    expected = canonicalize(build_tower(G, 3), 3, raw)
    for step in ("_null_factor", "_embed"):
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
            canonicalize(tower, 3, raw)
        # the factor is stored only once formed; an embedding that raised ran after it
        assert (3 in tower.factors) == (step == "_embed")
        got = canonicalize(tower, 3, raw)
        monkeypatch.undo()
        assert len(attempts) >= 2 and 3 in tower.factors
        assert tower.factor(3).shape == (tower.ranks[2] * tower.n, tower.ranks[3])
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [3, 4])
def test_epsilon_check_factors_each_degree_once(monkeypatch, p):
    """W_p for the chain takes one null-space factorization per degree, from the tower.

    epsilon_check runs the decompositions of ``build_tower(G, p).factor(p)`` and
    no others: the one Householder QR that derives alpha from L
    (``GAStructure.alpha``, kept on G) gives both the tower's N_2 and the
    chain's left inverse.  Generic K_q, q >= 3, have full rank: a Cholesky and a
    Householder QR each.  su2(4)'s rank-deficient K_3 fails its Cholesky; below
    the top it takes the R factor of a QR and its SVD, and at the top the
    tower's values-only SVD for D_3 comes first.  Its K_4, tall and of full
    rank, has no null space and is never built.  Each other K_q is built once,
    for its QR or SVD, and su2(4)'s K_3 at the top once more for N_3.
    """
    G = _generic_structure(3, 4, 0)
    calls = _spy_decompositions(monkeypatch)
    pairs = _spy_pair_matrix(monkeypatch)
    exists, basis, dim = epsilon_check(G, p)
    assert calls == ["qr-raw"] + ["chol", "qr-raw"] * (p - 2)
    assert len(pairs) == p - 2
    assert exists and dim == build_tower(G, p).ranks[p] == (p + 1) * 2 ** p
    assert basis.shape == ((p - 1) * G.subspace.n ** (p - 2) * G.R, dim)
    G = _catalog_structure("su2", 4)
    calls.clear()
    pairs.clear()
    exists, _, dim = epsilon_check(G, p)
    expected = (["chol-fail", "svd-values", "qr-r", "svd"] if p == 3
                else ["chol-fail", "qr-r", "svd", "chol"])
    assert calls == ["qr-raw"] + expected
    assert len(pairs) == (2 if p == 3 else 1)
    assert (exists, dim) == ((True, 1) if p == 3 else (False, 0))
    calls.clear()
    build_tower(G, p).factor(p)
    assert calls == expected


def test_degree_one_tower_has_no_bases(monkeypatch):
    calls = _spy_decompositions(monkeypatch)
    embeds = _spy_embeds(monkeypatch)
    tower = build_tower(_generic_structure(3, 4, 0), 1)
    raw = np.random.default_rng(0).standard_normal((4, 3, 3)).astype(complex)
    assert np.array_equal(canonicalize(tower, 1, raw), raw)
    assert calls == embeds == [] and tower.factors == {} and dense_basis(tower, 1) is None


def test_forms_never_forms_the_top_basis(monkeypatch, tmp_path, capsys):
    """``forms`` reads D_2 = R off alpha's QR and every later D_p off a Cholesky, takes N_p
    below the top from a QR, forms no W_p, and builds no K_p at its proved top."""
    G = _generic_structure(3, 4, 0)
    B = G.subspace
    path = tmp_path / "generic.json"
    formats.save_algebra(path, B.m, B.label, B.lambdas)
    calls = _spy_decompositions(monkeypatch)
    embeds = _spy_embeds(monkeypatch)
    pairs = _spy_pair_matrix(monkeypatch)
    assert cli.main(["forms", str(path), "--max-degree", "4", "--format", "json"]) == 0
    assert calls == ["qr-raw", "chol", "qr-raw", "chol"] and embeds == []
    # K_3 for its QR; the proved K_4 is never built
    assert pairs == [(4 * 4, 12 * 4)]
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
    W = dense_basis(tower, top)
    taller = dense_basis(build_tower(G, top + 1), top)
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
@settings(max_examples=10, deadline=None, derandomize=True)
@given(frame=st.integers(0, 2 ** 32 - 1), log_kappa=st.floats(-8.0, 8.0),
       log_cond=st.floats(0.0, 3.0))
def test_ranks_invariant_under_presentation(m, lambdas, seed, frame, log_kappa, log_cond):
    """R and D_p do not depend on the scale of B, its basis or a unitary frame of C^m.

    Drawn: an overall scale kappa in [1e-8, 1e8], a basis change A with
    cond A in [1, 1e3] (singular values spread evenly between unitary
    frames), both combined, and a unitary conjugation; ``seed`` and the drawn
    ``frame`` seed the unitaries.
    """
    rng = np.random.default_rng([seed, frame])
    n = lambdas.shape[0]
    kappa = 10.0 ** log_kappa
    A = (_random_unitary(rng, n) @ np.diag(np.linspace(1.0, 10.0 ** log_cond, n))
         @ _random_unitary(rng, n))
    u = _random_unitary(rng, m)
    expected = _rank_invariants(m, lambdas)
    based = np.einsum("ab,bij->aij", A, lambdas)
    for presented in (kappa * lambdas, based, kappa * based, u @ lambdas @ u.conj().T):
        assert _rank_invariants(m, presented) == expected


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


_COFRAME_LOOP_CASES = [
    ("su2-m4", lambda: _catalog_structure("su2", 4)),
    ("ellipsoid-m6", lambda: _catalog_structure("ellipsoid", 6)),
    ("a0-m3", lambda: _catalog_structure("a0", 3)),
    ("generic-m3-n4", lambda: _generic_structure(3, 4, 0)),
]


@pytest.mark.parametrize("make, negate_chi", [
    pytest.param(make, negate, id=name + ("-chi-negated" if negate else ""))
    for negate in (False, True) for name, make in _COFRAME_LOOP_CASES])
def test_structure_equations_match_coframe_loop(monkeypatch, make, negate_chi):
    """dtheta_a on the scalar table against one equation per theta^a and the stacked reference.

    All three read the worst form norm of d theta^a + [theta, theta^a] +
    F^a_bc theta^b theta^c: below the bound on the true calculus, and 2 F^a
    with chi negated, which every case here fails.
    """
    tower = build_tower(make(), 2)
    G, m = tower.ga, tower.m
    if negate_chi:
        raw_chi = calculus._raw_chi
        monkeypatch.setattr(calculus, "_raw_chi", lambda *args: -raw_chi(*args))
    th = theta(tower)
    worst = 0.0
    for a in range(tower.n):
        ta = coframe(tower, a)
        comm = wedge(th, ta) + wedge(ta, th)
        rhs = np.einsum("bc,ij->bcij", -G.F[a], np.eye(m))
        rhs = calculus.Form(tower, 2, canonicalize(tower, 2, rhs))
        worst = max(worst, form_norm(exterior_d(ta) - (-1 * comm + rhs)))
    rep = check_structure_equations(tower)
    scale = max(worst, 1.0)
    assert rep["dtheta_a"] == pytest.approx(worst, rel=0, abs=1e-14 * scale)
    assert coframe_stack_residual(tower) == pytest.approx(worst, rel=0, abs=1e-14 * scale)
    assert rep["dtheta_a_bound"] == DEFAULT_TOL * np.linalg.norm(G.subspace.lambdas)
    assert (worst < rep["dtheta_a_bound"]) != negate_chi


def test_structure_equations_relative_to_lambda():
    """Bugfix: the structure equations are judged against tol |lambda|^2, with no floor at 1.

    su2(m=4) times 1e-3 with its commutator relations perturbed by 1e-6 of
    their norm: the relations leave the kernel of rho by a relative 1e-6,
    so the relation form (``verify_ga``'s relation_residual) and
    dtheta_plus_theta_sq read about 1.9e-11, a thousand times tol |lambda|^2
    = 1.5e-14 but below the 1e-9 that a floor at 1 would allow.  verify fails
    both sections.
    """
    e = catalog.su2(4, kappa=1e-3)
    alpha = e.suggested_alpha
    alpha = alpha + 1e-6 * np.linalg.norm(alpha) * np.random.default_rng(0).standard_normal(
        alpha.shape)
    # use_relations refuses these relations; build the structure past its check
    G = genalg.use_relations(e.subspace, e.suggested_alpha)
    tower = build_tower(dataclasses.replace(G, L=_complement(alpha.conj())), 3)
    rep = check_structure_equations(tower)
    ga = genalg.verify_ga(tower.ga)
    assert not rep["passed"] and not ga["passed"]
    lam2 = np.linalg.norm(e.subspace.lambdas) ** 2
    assert rep["bound"] == ga["relation_bound"] == pytest.approx(DEFAULT_TOL * lam2, rel=1e-15)
    for value in (rep["dtheta_plus_theta_sq"], ga["relation_residual"]):
        assert 100 * rep["bound"] < value < DEFAULT_TOL
    assert rep["dtheta_a"] < rep["dtheta_a_bound"]
    # the unperturbed relations pass at the same scale
    assert check_structure_equations(build_tower(
        genalg.use_relations(e.subspace, e.suggested_alpha), 3))["passed"]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("a0", 4), id="a0-m4"),
    pytest.param(lambda: genalg.detect_structure(catalog.su2(4).subspace), id="su2-m4-auto"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 5), id="ellipsoid-m5"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
])
@pytest.mark.parametrize("negate_chi", [False, True])
def test_generator_residuals_do_not_depend_on_batches(monkeypatch, make, negate_chi):
    """One generator per batch, the default batches and all generators at once read alike.

    With chi negated the residuals are of order one, so a u_a or chi(L_r)
    taken with another generator's offset would show.
    """
    tower = build_tower(make(), 3)
    if negate_chi:
        raw_chi = calculus._raw_chi
        monkeypatch.setattr(calculus, "_raw_chi", lambda *args: -raw_chi(*args))
    default = calculus.generator_residuals(tower)
    for budget in (0, 1 << 40):
        monkeypatch.setattr(calculus, "GENERATOR_BYTES", budget)
        assert calculus.generator_residuals(tower) == pytest.approx(default, rel=1e-12, abs=1e-16)
    assert (max(default) > 1e-8) == negate_chi


@pytest.mark.large
def test_a0_m7_structure_equations_and_generator_residuals_stay_small():
    """check_structure_equations and generator_residuals on a0(7), n = 48, peak below 20 MiB.

    No table of (n,)*3 + (m, m) or n^4 entries is formed: either would alone
    exceed the bound (86 MB and 85 MB complex).  The u_a go in batches under
    ``calculus.GENERATOR_BYTES``.
    """
    tower = build_tower(genalg.detect_structure(catalog.universal_A0(7).subspace), 3)
    n, m = tower.n, tower.m
    bound = 20 * 2 ** 20
    assert 16 * min(n ** 4, n ** 3 * m * m) > bound
    tracemalloc.start()
    try:
        se = check_structure_equations(tower)
        dd, leibniz = calculus.generator_residuals(tower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, peak / 2 ** 20
    assert se["passed"] and max(dd, leibniz) < 1e-13


@pytest.mark.parametrize("make, top", [
    pytest.param(lambda: _catalog_structure("a0", 2), 3, id="a0-m2"),
    pytest.param(lambda: _catalog_structure("su2", 4), 3, id="su2-m4"),
    pytest.param(lambda: _generic_structure(3, 4, 0), 4, id="generic-m3-n4"),
])
def test_kernels_into_nan_workspace_match_public_operations(make, top):
    """The raw d and raw wedge tables, projected in place, equal the public operations bitwise."""
    tower = build_tower(make(), top)
    rng = np.random.default_rng(3)
    for p in range(top):
        xi = random_form(tower, p, rng, 3)
        raw = calculus._raw_d(tower, xi.coeffs, p)
        assert np.array_equal(calculus._project(tower, p + 1, raw), exterior_d(xi).coeffs)
        for q in range(top - p + 1):
            zeta = random_form(tower, q, rng, 3)
            raw = calculus._raw_wedge(tower, xi.coeffs, p, zeta.coeffs, q)
            table = calculus._project(tower, p + q, np.ascontiguousarray(raw))
            assert np.array_equal(table, wedge(xi, zeta).coeffs)


# every catalog entry at m = 2..6 (ellipsoid from 3) in both alpha modes, and the generic grid
_CLOSED_FORM_CASES = [
    *[pytest.param(name, m, mode, id=f"{name}-m{m}-{mode}") for name in catalog.NAMES
      for m in range(2 + (name == "ellipsoid"), 7) for mode in ("auto", "embedded")
      if not (name == "a0" and mode == "embedded")],
    *[pytest.param("generic", (m, n), "auto", id=f"generic-m{m}-n{n}")
      for m, n in ((2, 2), (3, 3), (3, 4), (4, 3), (4, 5), (3, 6))],
]


@pytest.mark.parametrize("name, m, mode", _CLOSED_FORM_CASES)
def test_closed_form_bounds_generator_engine(monkeypatch, name, m, mode):
    """The closed-form residuals bound d applied to each generator, with the same verdicts.

    ``generator_engine_residuals`` applies d to the E_ij, the theta^a and the
    L_r (x) 1.  On every input both pass at rounding level.  With chi negated,
    still an odd derivation, the closed-form d o d bounds the engine's and
    both fail wherever the engine's fails; Leibniz is the engine's residual.
    a0 at m = 6 (n = 35) is left to the closed form alone: the engine's
    degree-3 tables take seconds there.
    """
    if name == "generic":
        G = _generic_structure(*m, 0)
    elif mode == "auto":
        G = genalg.detect_structure(catalog.build_entry(name, m).subspace)
    else:
        G = _catalog_structure(name, m)
    tower = build_tower(G, 3)
    closed = calculus.generator_residuals(tower)
    assert max(closed) < 1e-13
    if tower.n > 24:
        return
    engine = generator_engine_residuals(tower)
    assert max(engine) < 1e-13
    raw_chi = calculus._raw_chi
    monkeypatch.setattr(calculus, "_raw_chi", lambda *args: -raw_chi(*args))
    closed, engine = calculus.generator_residuals(tower), generator_engine_residuals(tower)
    assert engine[0] <= closed[0] * (1 + 1e-12) + 1e-14
    assert closed[1] == pytest.approx(engine[1], rel=1e-9, abs=1e-14)
    assert (closed[0] < 1e-8) == (engine[0] < 1e-8)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 3), id="su2-m3"),
    pytest.param(lambda: genalg.detect_structure(catalog.su2(4).subspace), id="su2-m4-auto"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), id="clock-shift-m5"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), id="ellipsoid-m4"),
    pytest.param(lambda: _catalog_structure("a0", 3), id="a0-m3"),
    pytest.param(lambda: _generic_structure(3, 4, 0), id="generic-m3-n4"),
    pytest.param(lambda: _generic_structure(2, 2, 1), id="generic-m2-n2"),
])
def test_raw_d_squared_is_ad_curvature_plus_chi_squared(make):
    """d(d x) = [C, x] + chi(chi(x)) for the raw d on random raw tables of degree 0 and 1.

    C = theta^2 - chi(theta) = -(d theta + theta^2), the identity that the
    closed-form d o d check rests on; chi(chi(x)) is absent at degree 0.
    """
    tower = build_tower(make(), 3)
    n, m, F = tower.n, tower.m, tower.ga.F
    th = -tower.ga.subspace.lambdas
    C = -(calculus._raw_d(tower, th, 1) + calculus._raw_wedge(tower, th, 1, th, 1))
    assert np.allclose(calculus._curvature(tower), C, rtol=0, atol=1e-13)
    rng = np.random.default_rng(11)
    scale = np.linalg.norm(tower.ga.subspace.lambdas) ** 2
    for p in (0, 1):
        shape = (4,) + (n,) * p + (m, m)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        dd = calculus._raw_d(tower, calculus._raw_d(tower, x, p), p + 1)
        # [C, x] = C x - x C, C even, with C's two slots before x's for C x, after for x C
        ad = (calculus._raw_wedge(tower, C, 2, x, p)
              - calculus._raw_wedge(tower, x, p, C, 2))
        if p:
            ad = ad + calculus._raw_chi(F, calculus._raw_chi(F, x, 1), 2)
        assert np.abs(dd - ad).max() < 1e-13 * scale * np.abs(x).max()


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


def _su3_commutator_structure():
    """a0(3), the traceless M_3, with the 28 commutator relations e_ab - e_ba."""
    B = catalog.universal_A0(3).subspace
    n = B.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    alpha = np.zeros((n * n, len(pairs)), dtype=complex)
    for r, (a, b) in enumerate(pairs):
        alpha[a * n + b, r], alpha[b * n + a, r] = 1, -1
    return genalg.use_relations(B, alpha)


def _check_factor_gram(G, top):
    """``_factor_gram`` at every degree 3..top against the short-side Gram of the built K_p.

    The tall case (rows >= cols) is K^dag K, the wide one K K^dag.  The two
    agree within 1e-13 tr(H), and the stated bound is at least 10x their
    difference.
    """
    tower = build_tower(G, top)
    if tower.relations is None:  # no K_p without relations
        return
    tables = {}
    for p in range(3, top + 1):
        N = tower.factor(p - 1)
        H, bound = calculus._factor_gram(N, tower.relations, tower.n, tables)
        K = calculus._pair_matrix(N, tower.relations, tower.n)
        ref = K @ K.conj().T if K.shape[0] < K.shape[1] else K.conj().T @ K
        assert H.shape == ref.shape
        diff = np.linalg.norm(H - ref)
        assert diff <= 1e-13 * ref.trace().real, (p, diff)
        assert bound >= 10 * diff, (p, bound, diff)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(2, 4), n=st.integers(2, 6), seed=st.integers(0, 2 ** 16))
def test_factor_gram_equals_the_built_gram_generic(m, n, seed):
    _check_factor_gram(_generic_structure(m, min(n, m * m - 1), seed), 4)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _catalog_structure("su2", 4), id="su2-m4"),
    pytest.param(lambda: _catalog_structure("ellipsoid", 4), id="ellipsoid-m4"),
    pytest.param(lambda: _catalog_structure("clock-shift", 5), id="clock-shift-m5"),
    pytest.param(_su3_commutator_structure, id="su3-commutator"),
])
def test_factor_gram_equals_the_built_gram(make):
    _check_factor_gram(make(), 4)


def test_build_tower_generic_m5_n8_memory():
    """build_tower on generic (5, 8) to degree 4 peaks below 30 MiB traced.

    Its proved top forms the 1280-wide Gram of K_4 from N_3 and L; K_4 itself
    (640 x 2048 complex, 20 MiB) and a Gram formed from it are never made.
    """
    G = _generic_structure(5, 8, 0)
    G.alpha
    tracemalloc.start()
    try:
        tower = build_tower(G, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tower.ranks[4] == 1280
    assert peak < 30 * 2 ** 20, peak / 2 ** 20


def test_projection_keeps_no_basis_generic_m5_n8():
    """After a degree-4 canonicalize on generic (5, 8) the tower holds less than one W_4.

    W_4 would be an n^4 x D_4 = 4096 x 1280 complex matrix, 80 MiB; the tower
    keeps only its factors, of which N_4 (2048 x 1280, 40 MiB) is the largest.
    """
    G = _generic_structure(5, 8, 0)
    G.alpha
    raw = np.random.default_rng(0).standard_normal((8,) * 4 + (5, 5))
    tracemalloc.start()
    try:
        tower = build_tower(G, 4)
        canonicalize(tower, 4, raw)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tower.ranks[4] == 1280 and 4 in tower.factors
    assert held < 8 ** 4 * 1280 * 16, held / 2 ** 20


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _generic_structure(4, 6, 0), id="generic-m4-n6"),
    pytest.param(lambda: _catalog_structure("su2", 4), id="su2-m4"),
])
def test_verify_lifts_no_basis_above_degree_two(monkeypatch, tmp_path, capsys, make):
    """verify projects degree 3 as N_3^dag (N_2^dag (x) 1_n) and forms no n^p-row basis.

    Every embedding it forms is of a coefficient table's coordinates (Z = m^2),
    and degree 3 is reached by coordinates of scalar rows (Z = 1) alone.
    """
    G = make()
    B = G.subspace
    m = B.m
    path = tmp_path / "algebra.json"
    embedded = G.mode == "user-supplied"
    formats.save_algebra(path, B.m, B.label, B.lambdas, alpha=G.alpha if embedded else None)
    embeds = _spy_embeds(monkeypatch)
    coords = []
    coordinates = calculus._coordinates
    monkeypatch.setattr(calculus, "_coordinates",
                        lambda tower, p, x: coords.append((p, x.shape[-1]))
                        or coordinates(tower, p, x))
    argv = ["verify", str(path), "--format", "json"] + ["--alpha", "embedded"] * embedded
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert embeds and all(Z == m * m for _, Z in embeds)
    assert (3, 1) in coords and all(Z in (1, m * m) for _, Z in coords)
    assert all(Z == 1 for p, Z in coords if p == 3)


def _lifted_norms(tower, p, rows):
    """|W_p^dag x| for each row, with W_p lifted: the projection before the factored one."""
    if tower.ranks[p] == 0:
        return np.zeros(len(rows))
    W = dense_basis(tower, p)
    return np.linalg.norm(rows if W is None else rows.conj() @ W, axis=1)


@pytest.mark.parametrize("make", list(_workload_structures()))
@pytest.mark.parametrize("negate_chi", [False, True])
def test_generator_residuals_match_the_lifted_projection(monkeypatch, make, negate_chi):
    """d_squared_zero and graded_leibniz read alike through W_3 and through N_3 and W_2.

    Within 1e-14 of the reported (relative) residuals, and within 1e-14 of
    their value when chi is negated, where they are of order one unless F is
    rounding only, as clock-shift's is.
    """
    G = make()
    if negate_chi:
        raw_chi = calculus._raw_chi
        monkeypatch.setattr(calculus, "_raw_chi", lambda *args: -raw_chi(*args))
    factored = calculus.generator_residuals(build_tower(G, 3))
    monkeypatch.setattr(calculus, "_canonical_norms", _lifted_norms)
    lifted = calculus.generator_residuals(build_tower(G, 3))
    for a, b in zip(factored, lifted):
        assert abs(a - b) <= 1e-14 * max(b, 1.0), (factored, lifted)
    if negate_chi and np.abs(G.F).max() > 1e-8:
        assert max(factored) > 1e-8
