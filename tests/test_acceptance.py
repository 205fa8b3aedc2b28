"""Acceptance suite: one test per headline criterion, one pass/fail line each.

Every expected number here is either a closed-form value (dimension counts,
q-relation coefficients) or cross-checked by the exact-rational oracle in
test_oracle.py.
"""

import numpy as np
import pytest
from conftest import dense_projector

from ncdiff import algebra, calculus, genalg, maps, universal
from ncdiff.calculus import (
    Form,
    build_tower,
    canonicalize,
    coframe,
    coframe_from_formula,
    exterior_d,
    form_norm,
    random_form,
    theta,
    wedge,
)
from ncdiff.catalog import (
    clock_shift,
    fuzzy_ellipsoid,
    gell_mann_basis,
    su2,
    universal_A0,
)
from ncdiff.errors import InvalidRelation, TracelessViolation


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def _entry_structures():
    """The four catalog calculi at their reference sizes."""
    out = []
    e = universal_A0(2)
    out.append(("a0", genalg.detect_structure(e.subspace), 3))
    e = su2(2)
    out.append(("su2", genalg.use_relations(e.subspace, e.suggested_alpha), 3))
    e = clock_shift(3)
    out.append(("clock-shift", genalg.detect_structure(e.subspace), 3))
    e = fuzzy_ellipsoid(3)
    out.append(("ellipsoid", genalg.use_relations(e.subspace, e.suggested_alpha), 2))
    return out


def test_criterion_1_clock_shift_q_deformed():
    worst = 0.0
    for m in (3, 4, 5):
        e = clock_shift(m)
        G = genalg.detect_structure(e.subspace)
        assert G.R == 1, f"m={m}: R={G.R}"
        tower = build_tower(G, 2)
        assert tower.ranks[2] == 1, f"m={m}: D_2={tower.ranks[2]}"
        q = np.exp(2j * np.pi / m)
        t1, t2 = coframe(tower, 0), coframe(tower, 1)
        worst = max(worst, form_norm(q * wedge(t1, t2) + wedge(t2, t1)))
        worst = max(worst, form_norm(wedge(t1, t1)), form_norm(wedge(t2, t2)))
        th = theta(tower)
        worst = max(worst, form_norm(exterior_d(th) + wedge(th, th)))
        for a in range(2):
            ta = coframe(tower, a)
            res = exterior_d(ta) + wedge(th, ta) + wedge(ta, th)
            worst = max(worst, form_norm(res))
    _report(1, "clock-shift m=3,4,5: R=1, D_2=1, q-relations and "
               "structure equations", worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_2_universal_a0():
    ok = True
    detail = []
    for m in (2, 3):
        n = m * m - 1
        G = genalg.detect_structure(universal_A0(m).subspace)
        tower = build_tower(G, 3)
        p_err = np.linalg.norm(dense_projector(G.alpha) - np.eye(n * n))
        ok &= G.R == n * n
        ok &= [tower.ranks[p] for p in (1, 2, 3)] == [n, n * n, n ** 3]
        ok &= p_err < 1e-10
        detail.append(f"m={m}: R={G.R}, |P-I|={p_err:.1e}")
    _report(2, "universal A0 m=2,3: R=n^2, D_p=n^p, P=I", ok, "; ".join(detail))


def test_criterion_3_su2_antisymmetric():
    ok = True
    worst = 0.0
    for m in (2, 3, 4):
        e = su2(m)
        G = genalg.use_relations(e.subspace, e.suggested_alpha)
        tower = build_tower(G, 4)
        ok &= [tower.ranks[p] for p in (1, 2, 3, 4)] == [3, 3, 1, 0]
        for a in range(3):
            for b in range(3):
                ta, tb = coframe(tower, a), coframe(tower, b)
                worst = max(worst, form_norm(wedge(ta, tb) + wedge(tb, ta)))
    auto_R = genalg.detect_structure(su2(3).subspace).R
    ok &= auto_R >= 4
    ok &= worst < 1e-9
    _report(3, "su(2) spin-j m=2,3,4: D=[3,3,1,0], anticommuting co-frame, "
               "auto-detection finds the Casimir relation",
            ok, f"sym residual {worst:.2e}, auto R(m=3)={auto_R}")


def test_criterion_4_fuzzy_ellipsoid():
    ok = True
    worst = 0.0
    acoef = np.array([[1.0, 0.7 + 0.2j], [0.4 - 0.3j, 1.3]])
    for m in (3, 4, 5):
        e = fuzzy_ellipsoid(m, acoef=acoef)
        G = genalg.use_relations(e.subspace, e.suggested_alpha)
        tower = build_tower(G, 2)
        ok &= tower.ranks[1] == 3 and tower.ranks[2] == 1
        # theta^a theta^b / a^{ab} all project to the same base 2-form.
        base = wedge(coframe(tower, 0), coframe(tower, 0)).coeffs / acoef[0, 0]
        for a in range(2):
            for b in range(2):
                w = wedge(coframe(tower, a), coframe(tower, b)).coeffs
                worst = max(worst, np.linalg.norm(w / acoef[a, b] - base))
    ok &= worst < 1e-8
    _report(4, "fuzzy ellipsoid m=3,4,5: D_1=3, D_2=1, 2-form components "
               "proportional to acoef", ok, f"ratio residual {worst:.2e}")


def test_criterion_5_coframe_theorem():
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 50:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, min(5, m * m - 1) + 1))
        lam = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m
        try:
            B = algebra.validate_subspace(m, list(lam))
        except Exception:
            continue
        count += 1
        G = genalg.detect_structure(B)
        tower = build_tower(G, 1)
        units = np.eye(m * m, dtype=complex).reshape(m * m, m, m)
        bases = (np.concatenate([np.eye(m, dtype=complex)[None],
                                 gell_mann_basis(m)]), units)
        for gam in bases:
            rebuilt, th, rep = coframe_from_formula(tower, gam, algebra.matrix_basis_duals(gam))
            worst = max(worst, max(v for k, v in rep.items() if k != "passed"))
    _report(5, "co-frame theorem: 50 random subspaces (m<=4, n<=5), "
               "two gamma bases", worst < 1e-8, f"max residual {worst:.2e}")


def test_criterion_6_trace_lemma():
    worst = 0.0
    for m in (2, 3, 4):
        gam = np.concatenate([np.eye(m, dtype=complex)[None], gell_mann_basis(m)])
        rep = universal.verify_trace_lemma(gam, algebra.matrix_basis_duals(gam))
        worst = max(worst, rep["trace_identity"], rep["tensor_commutator"])
    _report(6, "trace lemma at m=2,3,4, exact on the matrix units", worst < 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_7_universal_identity():
    worst = 0.0
    for m in (2, 3):
        gam = np.concatenate([np.eye(m, dtype=complex)[None], gell_mann_basis(m)])
        rep = universal.verify_trace_lemma(gam, algebra.matrix_basis_duals(gam))
        worst = max(worst, rep["universal_identity"])
    _report(7, "universal identity -[theta_u, f] = d_u f at m=2,3, exact on the matrix units",
            worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_8_calculus_laws():
    rng = np.random.default_rng(42)
    worst = 0.0
    for name, G, deg in _entry_structures():
        tower = build_tower(G, deg)
        top = max(p for p, r in tower.ranks.items() if r > 0)
        for _ in range(5):
            for d0 in (0, 1):
                if d0 + 2 > deg:
                    continue
                om = random_form(tower, d0, rng)
                r = form_norm(exterior_d(exterior_d(om)))
                worst = max(worst, r / max(form_norm(om), 1.0))
            for dz in (0, 1, 2):
                for dx in (0, 1, 2):
                    if dz + dx > 2 or dz + dx + 1 > deg:
                        continue
                    z = random_form(tower, dz, rng)
                    x = random_form(tower, dx, rng)
                    lhs = exterior_d(wedge(z, x))
                    rhs = wedge(exterior_d(z), x) + \
                        ((-1.0) ** dz) * wedge(z, exterior_d(x))
                    scale = max(form_norm(z) * form_norm(x), 1.0)
                    worst = max(worst, form_norm(lhs - rhs) / scale)
    _report(8, "d.d = 0 and graded Leibniz (combined degree <= 3) on every "
               "catalog entry", worst < 1e-8, f"max relative residual {worst:.2e}")


def test_criterion_9_equivalence():
    rng = np.random.default_rng(42)
    ok = True
    worst = 0.0
    for name, G, _ in _entry_structures():
        tower = build_tower(G, 2)
        m = G.subspace.m
        for _ in range(10):
            u = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            U = maps.Conjugation.from_matrix(u)
            rep = maps.check_equivalence(U, G.subspace, tower)
            ok &= rep["passed"]
            worst = max(worst, *(rep[k] for k in ("coframe", "theta",
                                                  "products", "d_commutation")))
    _report(9, "equivalence under 10 random invertible u per catalog entry",
            ok and worst < 1e-8, f"max residual {worst:.2e}")


def test_criterion_10_negative_controls():
    ok = True
    try:
        algebra.validate_subspace(2, [np.eye(2, dtype=complex)])
        ok = False
    except TracelessViolation:
        pass
    e = clock_shift(3)
    bad = np.zeros((4, 1), dtype=complex)
    bad[0] = 1.0
    try:
        genalg.use_relations(e.subspace, bad)
        ok = False
    except InvalidRelation:
        pass
    # A generic (non-conjugation) linear map is not a d-homomorphism.
    G = genalg.detect_structure(universal_A0(2).subspace)
    tower = build_tower(G, 2)
    rng = np.random.default_rng(42)
    witnessed = 0.0
    for _ in range(5):
        M = rng.standard_normal((3, 3))
        phi = maps.LinearMap(G.subspace, G.subspace, M)
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f -= np.trace(f) * np.eye(2) / 2
        xi = Form(tower, 0, f)
        res = form_norm(maps.pullback(phi, exterior_d(xi), tower)
                        - exterior_d(maps.pullback(phi, xi, tower)))
        witnessed = max(witnessed, res)
    ok &= witnessed > 1e-3
    _report(10, "negative controls: TracelessViolation, InvalidRelation, "
                "non-conjugation breaks d", ok,
            f"d-homomorphism defect {witnessed:.2e}")


def test_criterion_11_oracle_equivalence():
    from test_oracle import INSTANCES, _float_R, exact_relation_rank
    import sympy as sp
    ok = True
    for name, m, lams in INSTANCES:
        exact = exact_relation_rank([sp.Matrix(L) for L in lams], m)
        got = _float_R(lams, m)
        ok &= got == exact
    _report(11, "floating-point R equals the exact-rational oracle on the "
                "fixed instance set", ok)
