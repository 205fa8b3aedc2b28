import numpy as np
import pytest
from conftest import dense_nullspace, dense_projector, generic_subspace

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
    assert G.L.shape == (9, 0)
    assert np.allclose(dense_projector(G.alpha), np.eye(9), atol=1e-10)
    assert np.allclose(G.alpha.conj().T @ G.alpha, np.eye(9), atol=1e-10)


def test_build_projector_clock_entries():
    G = genalg.detect_structure(clock_shift(3).subspace)
    q = np.exp(2j * np.pi / 3)
    P = dense_projector(G.alpha)
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
    """alpha has orthonormal columns spanning null(L^T), and P = alpha alpha^dag is, to 1e-13,
    the projector onto the null space of the matrix of rho that a full SVD gives."""
    G = genalg.detect_structure(make())
    B = G.subspace
    n, m = B.n, B.m
    a = G.alpha
    assert a.shape == (n * n, G.R)
    assert np.max(np.abs(a.conj().T @ a - np.eye(G.R)), initial=0.0) < 1e-13
    assert np.max(np.abs(G.L.T @ a), initial=0.0) < 1e-13
    ref = dense_nullspace(G.rho.reshape(n * n, m * m).T, rank=n * n - G.R)
    assert np.max(np.abs(a @ a.conj().T - ref @ ref.conj().T), initial=0.0) < 1e-13
    assert genalg.verify_ga(G)["passed"]


@pytest.mark.large
def test_a0_m7_structure_verify_and_tower_stay_small():
    """detect_structure, verify_ga and build_tower(G, 3) on a0(7), n = 48: fast and small.

    The relations are stored by L, here 2304 x 0, so no n^2 x n^2 alpha, beta,
    P or full SVD is formed.  Together the three take under 0.2 s (the best of
    three runs after a warm-up) and peak below 32 MiB traced; an array of n^4
    entries, complex or real, would alone exceed that bound.
    """
    import time
    import tracemalloc

    from ncdiff import calculus

    B = universal_A0(7).subspace
    n = B.n
    bound = 32 * 2 ** 20
    assert 8 * n ** 4 > bound

    def run():
        G = genalg.detect_structure(B)
        return G, genalg.verify_ga(G), calculus.build_tower(G, 3)

    run()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    assert best < 0.2, best
    tracemalloc.start()
    try:
        G, rep, tower = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, peak / 2 ** 20
    assert G.R == n * n and G.L.shape == (n * n, 0) and rep["passed"]
    assert tower.ranks == {p: n ** p for p in range(4)}


class _NumpyLinalgSpy:
    """Record the shape of every 2-d array that a numpy.linalg call takes or returns."""

    NAMES = ("svd", "qr", "solve", "cholesky", "norm", "eigh", "inv")

    def __init__(self, monkeypatch):
        self.shapes = set()
        for name in self.NAMES:
            monkeypatch.setattr(np.linalg, name, self._wrap(getattr(np.linalg, name)))

    def _wrap(self, fn):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            for a in (*args, *(out if isinstance(out, tuple) else (out,))):
                if isinstance(a, np.ndarray) and a.ndim == 2:
                    self.shapes.add(a.shape)
            return out
        return spy


@pytest.mark.parametrize("name, m", [("clock-shift", 5), ("ellipsoid", 4)])
def test_embedded_verify_and_forms_form_no_n2_by_n2_matrix(monkeypatch, tmp_path, capsys, name, m):
    """With --alpha embedded, verify and forms hand numpy.linalg no n^2 x n^2 matrix:
    L = null(alpha^T) comes from the user's n^2 x R alpha.

    (In auto mode an economy SVD of the m^2 x n^2 matrix of rho has an
    n^2 x n^2 right factor whenever m^2 >= n^2, as on these inputs; the a0(7)
    test above pins auto mode.)  Negative control: the dense route to L, the
    null space of P^T, hands the spy an n^2 x n^2 matrix.
    """
    from ncdiff import cli, formats

    e = build_entry(name, m)
    B = e.subspace
    nn = B.n * B.n
    path = str(tmp_path / "algebra.json")
    formats.save_algebra(path, m, B.label, B.lambdas, alpha=e.suggested_alpha)
    P = dense_projector(e.suggested_alpha)
    spy = _NumpyLinalgSpy(monkeypatch)
    for command in ("verify", "forms"):
        assert cli.main([command, path, "--max-degree", "3", "--alpha", "embedded"]) == cli.EXIT_OK
    capsys.readouterr()
    assert spy.shapes and (nn, nn) not in spy.shapes
    dense_nullspace(P.T)
    assert (nn, nn) in spy.shapes


@pytest.mark.parametrize("kappa", [1e-8, 1e-6, 1e-3, 1e3, 1e8])
def test_detected_relations_do_not_depend_on_scale(kappa):
    """Bugfix: su2(m=4) times kappa detects R = 4, as at kappa = 1.

    Significance in the matrix of rho is judged against |Gram|, which scales as
    kappa^2; with a floor at 1 under it, kappa = 1e-6 gave R = 9.
    """
    G = genalg.detect_structure(su2(4, kappa=kappa).subspace)
    assert G.R == genalg.detect_structure(su2(4).subspace).R == 4


@pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
def test_use_relations_judges_columns_relative_to_gram(kappa):
    """Bugfix: a user relation off the kernel of rho by a relative 1e-6 is refused at every scale.

    su2(m=4) times kappa, its commutator alpha plus 1e-6 |alpha| times
    seeded normals: each column is judged against tol |Gram| |alpha_r|, which
    scales as rho does.  With a floor at 1 under the size of rho, kappa = 1e-3
    accepted it.  The unperturbed alpha is accepted at the same scale.
    """
    e = su2(4, kappa=kappa)
    alpha = e.suggested_alpha
    noisy = alpha + 1e-6 * np.linalg.norm(alpha) * np.random.default_rng(0).standard_normal(
        alpha.shape)
    with pytest.raises(InvalidRelation):
        genalg.use_relations(e.subspace, noisy)
    assert genalg.use_relations(e.subspace, alpha).R == alpha.shape[1]
