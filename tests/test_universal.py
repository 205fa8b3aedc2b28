import tracemalloc

import numpy as np
import pytest
from conftest import (
    commutator,
    du,
    matrix_stacks,
    trace_lemma_trials,
    universal_identity_trials,
)
from hypothesis import given, settings, strategies as st

from ncdiff.algebra import matrix_basis_duals
from ncdiff.catalog import gell_mann_basis
from ncdiff.universal import _kron_sum, theta_u, verify_trace_lemma


def _full_basis(m):
    return np.concatenate([np.eye(m, dtype=complex)[None], gell_mann_basis(m)])


def _rand(m, rng):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _stack(k, m, rng):
    return np.array([_rand(m, rng) for _ in range(k)]).reshape(k, m, m)


def test_flatten_kron():
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(_kron_sum(f[None], g[None]), np.kron(f, g))


@pytest.mark.parametrize("k", [0, 1, 5])
def test_flatten_matches_kron_sum(k, rng):
    m = 3
    F, G = _stack(k, m, rng), _stack(k, m, rng)
    ref = sum((np.kron(f, g) for f, g in zip(F, G)), np.zeros((m * m, m * m), dtype=complex))
    out = _kron_sum(F, G)
    assert out.shape == (m * m, m * m)
    assert np.max(np.abs(out - ref)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 65])
def test_actions_match_term_loop(k, rng):
    """[h, X] against kron(h, 1) X - X kron(1, h); 65 terms is theta_u at m = 8."""
    m = 8
    h = _rand(m, rng)
    X = _kron_sum(_stack(k, m, rng), _stack(k, m, rng))
    eye = np.eye(m)
    ref = np.kron(h, eye) @ X - X @ np.kron(eye, h)
    assert np.max(np.abs(commutator(h, X) - ref)) < 1e-10 * max(1.0, np.abs(ref).max())


def test_bimodule_actions(rng):
    # h.(f (x) g) = hf (x) g and (f (x) g).h = f (x) gh.
    m = 3
    f, g, h = _rand(m, rng), _rand(m, rng), _rand(m, rng)
    assert np.allclose(commutator(h, np.kron(f, g)), np.kron(h @ f, g) - np.kron(f, g @ h))


def test_du_leibniz(rng):
    # du(fg) = du(f).g + f.du(g) as bimodule elements.
    m = 3
    f, g = _rand(m, rng), _rand(m, rng)
    eye = np.eye(m)
    rhs = du(f) @ np.kron(eye, g) + np.kron(f, eye) @ du(g)
    assert np.allclose(du(f @ g), rhs, atol=1e-12)


def test_du_kills_identity():
    assert np.allclose(du(np.eye(3)), 0.0)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_trace_lemma(m):
    gam = _full_basis(m)
    rep = verify_trace_lemma(gam, matrix_basis_duals(gam))
    assert rep["passed"], rep
    assert rep["bound"] == 1e-10 * m
    assert max(rep["trace_identity"], rep["tensor_commutator"]) < 1e-10
    assert rep["universal_identity"] == rep["tensor_commutator"] / m


@pytest.mark.parametrize("m", [2, 3, 8])
def test_universal_identity(m, rng):
    # -[theta_u, f] = du(f) for every matrix f.
    gam = _full_basis(m)
    th = theta_u(gam, matrix_basis_duals(gam))
    for _ in range(20):
        f = _rand(m, rng)
        lhs = commutator(f, th)  # f.theta - theta.f = -[theta_u, f]
        assert np.linalg.norm(lhs - du(f)) < 1e-10


def _unit_loop(m, residual):
    """sqrt(sum over the matrix units E_pq of |residual(E_pq)|^2)."""
    total = 0.0
    for k in range(m * m):
        f = np.zeros(m * m, dtype=complex)
        f[k] = 1.0
        total += np.linalg.norm(residual(f.reshape(m, m))) ** 2
    return np.sqrt(total)


def _fake_duals(m):
    """Random "duals": every residual is O(1), so a comparison is not one of rounding noise."""
    rng = np.random.default_rng(11)
    return rng.standard_normal((m * m, m, m)) + 1j * rng.standard_normal((m * m, m, m))


@pytest.mark.parametrize("m", [2, 3])
def test_trace_lemma_matches_loop(m):
    """The closed forms against each identity evaluated on every matrix unit E_pq."""
    gam, fake = _full_basis(m), _fake_duals(m)
    K = sum(np.kron(g, d.conj().T) for g, d in zip(gam, fake))
    eye = np.eye(m)
    trace = _unit_loop(m, lambda f: sum(g @ f @ d.conj().T for g, d in zip(gam, fake))
                       - np.trace(f) * eye)
    tensor = _unit_loop(m, lambda f: np.kron(f, eye) @ K - K @ np.kron(eye, f))
    rep = verify_trace_lemma(gam, fake)
    assert trace > 1.0 and tensor > 1.0
    assert rep["trace_identity"] == pytest.approx(trace, rel=1e-12)
    assert rep["tensor_commutator"] == pytest.approx(tensor, rel=1e-12)
    assert not rep["passed"] and rep["bound"] == 1e-10 * m


@pytest.mark.parametrize("fake_duals", [False, True])
@pytest.mark.parametrize("m", [2, 3])
def test_universal_identity_matches_loop(m, fake_duals):
    """``universal_identity`` is |f -> f.theta_u - theta_u.f - du(f)| summed over the E_pq.

    With random "duals" it is O(1); the true duals compare at rounding level.
    """
    gam = _full_basis(m)
    gdual = _fake_duals(m) if fake_duals else matrix_basis_duals(gam)
    th = theta_u(gam, gdual)
    ref = _unit_loop(m, lambda f: commutator(f, th) - du(f))
    assert (ref > 1.0) == fake_duals
    got = verify_trace_lemma(gam, gdual)["universal_identity"]
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)


def _scaled_dual(gam, mu, factor):
    gdual = matrix_basis_duals(gam)
    gdual[mu] *= factor
    return gdual


@pytest.mark.parametrize("m", range(2, 9))
def test_random_trials_within_exact_bound(m):
    """Each random trial's residual is at most the exact residual times |f|_F (and |g|_2).

    Checked on the true duals, where both are rounding noise, and with the
    last dual scaled by 1 + 1e-3, where both are of order 1e-3.
    """
    gam = _full_basis(m)
    rng = np.random.default_rng(m)
    for gdual in (matrix_basis_duals(gam), _scaled_dual(gam, m * m - 1, 1 + 1e-3)):
        rep = verify_trace_lemma(gam, gdual)
        slack = 1e-13
        for nf, ng, trace, tensor in trace_lemma_trials(gam, gdual, 5, rng):
            assert trace <= (rep["trace_identity"] + slack) * nf
            assert tensor <= (rep["tensor_commutator"] + slack) * nf * ng
        for nf, residual in universal_identity_trials(gam, gdual, 5, rng):
            assert residual <= (rep["universal_identity"] + slack) * nf


@pytest.mark.parametrize("m", range(2, 9))
def test_error_along_the_swap_is_no_commutator_error(m):
    """All duals scaled by 1 + 1e-3 make R = 1e-3 S: the trace identity is off by
    1e-3 |S|_F = 1e-3 m, while S commutes with both actions, so the tensor and
    universal identities hold to rounding (a difference of squares read 6.6e-10 at m = 8)."""
    gam = _full_basis(m)
    rep = verify_trace_lemma(gam, matrix_basis_duals(gam) * (1 + 1e-3))
    assert rep["trace_identity"] == pytest.approx(1e-3 * m, rel=1e-9)
    assert rep["tensor_commutator"] < 1e-13


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrix_stacks(full=True, max_log_cond=4.0), st.data())
def test_trace_lemma_exact_on_random_bases(case, data):
    """Any full basis with Gram condition up to 1e4 passes.  One dual off by 1 + delta gives
    trace_identity = delta |gamma_mu|_F |gamma^mu|_F, since then R is
    delta gamma_mu (x) gamma^{mu dag}.
    """
    gam, _ = case
    m = gam.shape[-1]
    gdual = matrix_basis_duals(gam)
    rep = verify_trace_lemma(gam, gdual)
    assert rep["passed"], rep
    assert rep["universal_identity"] < 1e-10
    mu, delta = data.draw(st.integers(0, m * m - 1)), 1e-6
    expected = delta * np.linalg.norm(gam[mu]) * np.linalg.norm(gdual[mu])
    gdual[mu] *= 1 + delta
    assert verify_trace_lemma(gam, gdual)["trace_identity"] == pytest.approx(expected, rel=0.01)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_lemma_peak_is_a_few_tables():
    """At m = 8 the exact check holds at most six m^2 x m^2 complex tables at once."""
    m = 8
    gam = _full_basis(m)
    gdual = matrix_basis_duals(gam)
    verify_trace_lemma(gam, gdual)  # one-time allocations
    peak = _traced_peak(lambda: verify_trace_lemma(gam, gdual))
    assert peak <= 6 * m ** 4 * 16, peak
