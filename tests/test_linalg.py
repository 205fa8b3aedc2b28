import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncdiff import calculus
from ncdiff.errors import ShapeError
from ncdiff.linalg import (
    DEFAULT_TOL,
    _fix_phases,
    _full_rank,
    _rank,
    gram,
    inner,
    rank_nullspace,
    span_projector,
)


def test_inner_pauli_norm():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    assert inner(s1, s1) == pytest.approx(2.0)


def test_inner_conjugate_linearity():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert inner(2j * f, g) == pytest.approx(-2j * inner(f, g))
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))


def test_gram_matches_inner():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    ref = np.array([[inner(x, y) for y in b] for x in a])
    assert np.allclose(gram(a, b), ref, atol=1e-12)
    assert np.allclose(gram(a), [[inner(x, y) for y in a] for x in a], atol=1e-12)


def test_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        inner(np.eye(2), np.eye(3))


def test_rank_nullspace_basic():
    M = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = rank_nullspace(M)
    assert res.rank == 1
    assert res.nullspace.shape == (2, 1)
    assert np.allclose(M @ res.nullspace, 0.0)


def test_rank_full():
    res = rank_nullspace(np.eye(4))
    assert res.rank == 4
    assert res.nullspace.shape == (4, 0)


def test_rank_deterministic_phase():
    # The null-space basis must come back with a fixed sign convention.
    M = np.array([[1.0, 1j]])
    res = rank_nullspace(M)
    v = res.nullspace[:, 0]
    lead = v[np.argmax(np.abs(v) > 1e-12)]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0


def _fix_phase_loop(V):
    """Per-column reference for the phase convention of rank_nullspace."""
    V = V.copy()
    for j in range(V.shape[1]):
        v = V[:, j]
        idx = np.flatnonzero(np.abs(v) > 1e-12 * max(np.max(np.abs(v)), 1e-300))
        if idx.size:
            V[:, j] = v * (abs(v[idx[0]]) / v[idx[0]])
    return V


def test_fix_phases_matches_loop():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    V[:2, 1] = [1e-14j, -3e-13]  # below 1e-12 x the column max: the pivot is row 2
    V[:, 3] = 0.0  # no significant entry: left as it is
    V[0, 4] = 1e-11 - 1e-11j  # small but significant: it is the pivot
    fixed = _fix_phases(V)
    assert np.array_equal(fixed, _fix_phase_loop(V))
    assert fixed[2, 1].real > 0 and abs(fixed[2, 1].imag) < 1e-15
    assert fixed[0, 4].real > 0 and abs(fixed[0, 4].imag) < 1e-26
    assert np.array_equal(fixed[:, 3], V[:, 3])
    assert _fix_phases(np.zeros((3, 0), dtype=complex)).shape == (3, 0)


def test_rank_reports_gap():
    M = np.diag([1.0, 1e-3, 1e-14])
    res = rank_nullspace(M)
    assert res.rank == 2
    assert res.gap == pytest.approx(1e-11, rel=1e-6)


def test_span_projector():
    cols = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).T
    P = span_projector(np.array([[1.0], [1.0], [0.0]]))
    assert np.allclose(P, P @ P)
    assert np.allclose(P, P.conj().T)
    assert np.trace(P).real == pytest.approx(1.0)
    v = np.array([1.0, 1.0, 0.0])
    assert np.allclose(P @ v, v)


def test_span_basis():
    # a dependent column drops out of the rank
    P = span_projector(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert np.trace(P).real == pytest.approx(1.0)
    assert np.allclose(P, np.outer([1, 1, 0], [1, 1, 0]) / 2)
    for empty in (np.zeros((3, 2)), np.zeros((3, 0))):
        assert np.array_equal(span_projector(empty), np.zeros((3, 3)))


EPS = np.finfo(float).eps


def _with_singular_values(s, shape, seed):
    """K = U diag(s) V^dag of ``shape``, with Haar-like random U and V of orthonormal columns."""
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((n, len(s), 2)) @ [1, 1j])[0] for n in shape)
    return (U * s) @ V.conj().T


@st.composite
def _certificate_cases(draw):
    """A K of at most 8 x 8 whose singular-value ratios cover [1e-14, 1].

    Besides log-uniform ratios, a ratio may be an exact zero, straddle tol (the
    SVD rule's cut) by 0.1-1%, or straddle the ratio at which the shifted Gram
    stops being positive definite: s_min^2 = sigma (sum of s^2), with sigma as
    ``_full_rank`` takes it.  The whole K is then scaled, so that the absolute
    cut at tol can bind.
    """
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    d, k = min(shape), max(shape)
    kinds = draw(st.lists(st.sampled_from(["zero", "log", "tol", "margin"]),
                          min_size=d - 1, max_size=d - 1))
    s = [1.0]
    for kind in kinds:
        if kind == "zero":
            s.append(0.0)
        elif kind == "log":
            s.append(10.0 ** draw(st.floats(-14, 0)))
        elif kind == "tol":
            sign = draw(st.sampled_from([-1, 1]))
            s.append(DEFAULT_TOL * (1 + sign * draw(st.floats(1e-3, 1e-2))))
        else:
            s.append(np.nan)  # set below, from the other values
    s = np.array(s)
    sigma = max(DEFAULT_TOL, 8 * (d + k) * EPS)
    margin = np.sqrt(sigma * np.nansum(s ** 2) / (1 - sigma * np.isnan(s).sum()))
    for i in np.flatnonzero(np.isnan(s)):
        s[i] = margin * draw(st.floats(0.5, 2.0))
    scale = draw(st.sampled_from([1.0, 1e-3, 3e-9, 3e-10, 1e-12]))
    return _with_singular_values(np.sort(s)[::-1] * scale, shape, draw(st.integers(0, 2 ** 32 - 1)))


def _check_certificate(K, certify, tol=DEFAULT_TOL):
    """A certified K meets the bound in ``_full_rank``'s docstring: all min(shape) values count."""
    s = np.linalg.svd(K, compute_uv=False)
    if certify(K.copy(), tol):
        assert s[-1] >= np.sqrt(tol / 3) * s[0] and s[-1] > tol
        assert _rank(s, tol, floor=tol) == min(K.shape)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_certificate_cases())
def test_full_rank_certificate_agrees_with_svd_rule(K):
    """Every certified K has all its values counted; the tower's rank is the SVD rule's on every K.

    The tower's decision is ``calculus._null_factor`` on K: the certificate and a
    QR, or the SVD.
    """
    _check_certificate(K, _full_rank)
    s = np.linalg.svd(K, compute_uv=False)
    # within rounding of a cut, two SVDs of K (the tower's and this one) may disagree
    band = 1e-4 * DEFAULT_TOL
    assume(abs(s[0] - DEFAULT_TOL) > band and np.all(np.abs(s - DEFAULT_TOL * s[0]) > band * s[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_pair_matrix", lambda N, Lr, n: K.copy())
        N = calculus._null_factor(None, None, None, tol=DEFAULT_TOL)
    assert K.shape[1] - N.shape[1] == calculus._null_rank(s, DEFAULT_TOL)
    assert np.max(np.abs(N.conj().T @ N - np.eye(N.shape[1])), initial=0.0) < 1e-12
    assert np.linalg.norm(K @ N, 2) <= 1.01 * DEFAULT_TOL * max(s[0], 1.0) + 1e-13 * s[0]


def _unshifted_certificate(K, tol):
    """``_full_rank`` with the shift removed: a plain Cholesky of the Gram."""
    X = K.T if K.shape[0] > K.shape[1] else K
    try:
        np.linalg.cholesky(X @ X.conj().T)
    except np.linalg.LinAlgError:
        return False
    return True


def test_full_rank_certificate_needs_its_shift():
    """Negative control: without the shift a K with s_min / s_max in (tol, sqrt(tol)) is certified.

    That breaks the docstring's bound, so ``_check_certificate`` has teeth; the
    shifted certificate turns the same K down and proves a K at ratio 1e-2.
    """
    K = _with_singular_values(np.array([1.0, 1e-6]), (5, 2), 0)
    assert not _full_rank(K.copy(), DEFAULT_TOL)
    _check_certificate(K, _full_rank)
    with pytest.raises(AssertionError):
        _check_certificate(K, _unshifted_certificate)
    assert _full_rank(_with_singular_values(np.array([1.0, 1e-2]), (5, 2), 0), DEFAULT_TOL)
