import tracemalloc

import numpy as np
import pytest

from ncdiff import calculus, universal
from ncdiff.algebra import matrix_basis_duals
from ncdiff.catalog import gell_mann_basis
from ncdiff.universal import (
    _kron_sum,
    commutator,
    du,
    theta_u,
    verify_trace_lemma,
)


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
    rep = verify_trace_lemma(gam, matrix_basis_duals(gam), trials=20, seed=7)
    assert rep["passed"], rep
    assert rep["trace_identity"] < 1e-10
    assert rep["tensor_commutator"] < 1e-10


@pytest.mark.parametrize("m", [2, 3, 8])
def test_universal_identity(m, rng):
    # -[theta_u, f] = du(f) for every matrix f.
    gam = _full_basis(m)
    th = theta_u(gam, matrix_basis_duals(gam))
    for _ in range(20):
        f = _rand(m, rng)
        lhs = commutator(f, th)  # f.theta - theta.f = -[theta_u, f]
        assert np.linalg.norm(lhs - du(f)) < 1e-10


def _trace_lemma_loop(gam, gdual, trials, seed):
    """verify_trace_lemma's two residuals, one basis element at a time."""
    m = gam.shape[1]
    rng = np.random.default_rng(seed)
    res_trace = res_comm = 0.0
    for _ in range(trials):
        f = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        total = sum(gam[mu] @ f @ gdual[mu].conj().T for mu in range(m * m))
        res_trace = max(res_trace, np.linalg.norm(total - np.trace(f) * np.eye(m)))
        comm = sum(np.kron(f @ gam[mu] @ g, gdual[mu].conj().T)
                   - np.kron(gam[mu] @ g, gdual[mu].conj().T @ f) for mu in range(m * m))
        res_comm = max(res_comm, np.linalg.norm(comm))
    return res_trace, res_comm


@pytest.mark.parametrize("m", [2, 3])
def test_trace_lemma_matches_loop(m, monkeypatch):
    # Random "duals" make both residuals O(1), so the comparison is not one of rounding noise.
    rng = np.random.default_rng(11)
    fake = rng.standard_normal((m * m, m, m)) + 1j * rng.standard_normal((m * m, m, m))
    gam = _full_basis(m)
    rep = verify_trace_lemma(gam, fake, trials=4, seed=5)
    res_trace, res_comm = _trace_lemma_loop(gam, fake, trials=4, seed=5)
    assert res_trace > 1.0 and res_comm > 1.0
    assert rep["trace_identity"] == pytest.approx(res_trace, rel=1e-12)
    assert rep["tensor_commutator"] == pytest.approx(res_comm, rel=1e-12)
    assert not rep["passed"] and rep["bound"] == 1e-10 * m
    # the same residuals from batches of one trial
    monkeypatch.setattr(calculus, "STACK_BYTES", 1)
    rep = verify_trace_lemma(gam, fake, trials=4, seed=5)
    assert rep["trace_identity"] == pytest.approx(res_trace, rel=1e-12)
    assert rep["tensor_commutator"] == pytest.approx(res_comm, rel=1e-12)


def _universal_identity_loop(gam, gdual, trials, rng):
    """universal_identity_residual one trial at a time: f's real part, then its imaginary part."""
    th = theta_u(gam, gdual)
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(gam.shape[1:]) + 1j * rng.standard_normal(gam.shape[1:])
        worst = max(worst, np.linalg.norm(commutator(f, th) - du(f)))
    return worst


@pytest.mark.parametrize("fake_duals", [False, True])
@pytest.mark.parametrize("m", [2, 3])
def test_universal_identity_matches_loop(m, fake_duals, monkeypatch):
    """The stacked residual is the per-trial loop's, batched or not, and leaves the same stream.

    Random "duals" make the residual O(1), so the comparison is not one of
    rounding noise; the true duals compare at rounding level.
    """
    gam = _full_basis(m)
    gdual = matrix_basis_duals(gam)
    if fake_duals:
        rng = np.random.default_rng(11)
        gdual = rng.standard_normal((m * m, m, m)) + 1j * rng.standard_normal((m * m, m, m))
    ref_rng = np.random.default_rng(5)
    ref = _universal_identity_loop(gam, gdual, 7, ref_rng)
    assert (ref > 1.0) == fake_duals
    for stack_bytes in (calculus.STACK_BYTES, 1):  # 1: batches of one trial
        monkeypatch.setattr(calculus, "STACK_BYTES", stack_bytes)
        rng = np.random.default_rng(5)
        worst = universal.universal_identity_residual(gam, gdual, 7, rng)
        assert worst == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_lemma_memory_does_not_grow_with_trials():
    """The trials run in batches under a byte cap, so 20x the trials keep the peak within 25%."""
    gam = _full_basis(8)
    gdual = matrix_basis_duals(gam)
    _traced_peak(lambda: verify_trace_lemma(gam, gdual, trials=20))  # one-time allocations
    few = _traced_peak(lambda: verify_trace_lemma(gam, gdual, trials=20))
    many = _traced_peak(lambda: verify_trace_lemma(gam, gdual, trials=400))
    assert many <= 1.25 * few, (few, many)
