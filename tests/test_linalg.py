import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncdiff import calculus
from ncdiff.errors import ShapeError
from ncdiff.linalg import (
    DEFAULT_TOL,
    _full_rank,
    _gamma,
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
    assert res.rowspace.shape == (2, 1)
    assert np.allclose(res.rowspace.conj().T @ res.rowspace, 1.0)
    # the row space spans M's rows: M projected onto it is M
    assert np.allclose(M @ res.rowspace @ res.rowspace.conj().T, M)


def test_rank_full():
    res = rank_nullspace(np.eye(4))
    assert res.rank == 4
    assert res.rowspace.shape == (4, 4)


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
    stops being positive definite: s_min^2 = sigma (sum of s^2), with sigma the
    shift ``_full_rank`` takes over the trace for the bound ``_short_gram``
    states.  The whole K is then scaled, so that the absolute cut at tol can bind.
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
    sigma = max(DEFAULT_TOL, (2 * (k + 2) + 4 * (d + 2)) * EPS)
    margin = np.sqrt(sigma * np.nansum(s ** 2) / (1 - sigma * np.isnan(s).sum()))
    for i in np.flatnonzero(np.isnan(s)):
        s[i] = margin * draw(st.floats(0.5, 2.0))
    scale = draw(st.sampled_from([1.0, 1e-3, 3e-9, 3e-10, 1e-12]))
    return _with_singular_values(np.sort(s)[::-1] * scale, shape, draw(st.integers(0, 2 ** 32 - 1)))


def _short_gram(K):
    """The Gram of K on its short side, one product of inner length max(K.shape), and the
    bound on its rounding that ``linalg._gamma`` gives."""
    X = K.T if K.shape[0] > K.shape[1] else K
    return X @ X.conj().T, _gamma(X.shape[1]) * np.linalg.norm(K) ** 2


def _check_certificate(K, certify, tol=DEFAULT_TOL):
    """A certified K meets the bound in ``_full_rank``'s docstring: all min(shape) values count."""
    s = np.linalg.svd(K, compute_uv=False)
    if certify(*_short_gram(K), tol):
        assert s[-1] >= np.sqrt(tol / 3) * s[0] and s[-1] > tol
        assert _rank(s, tol, floor=tol) == min(K.shape)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_certificate_cases())
def test_full_rank_certificate_agrees_with_svd_rule(K):
    """Every certified K has all its values counted; the tower's rank is the SVD rule's on every K.

    The tower's decision is ``calculus._null_factor`` on K: the certificate on
    K's Gram, which reaches it through ``calculus._factor_gram``, and a QR, or
    the SVD.
    """
    _check_certificate(K, _full_rank)
    s = np.linalg.svd(K, compute_uv=False)
    # within rounding of a cut, two SVDs of K (the tower's and this one) may disagree
    band = 1e-4 * DEFAULT_TOL
    assume(abs(s[0] - DEFAULT_TOL) > band and np.all(np.abs(s - DEFAULT_TOL * s[0]) > band * s[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_factor_gram", lambda N, Lr, n, tables: _short_gram(K))
        mp.setattr(calculus, "_pair_matrix", lambda N, Lr, n: K.copy())
        # placeholders of K's shape: D_{p-2} k = rows and D_{p-1} n = cols with n = k = 1
        N = calculus._null_factor(np.empty(K.shape), np.empty((1, 1, 1)), 1, tol=DEFAULT_TOL)
    assert K.shape[1] - N.shape[1] == calculus._null_rank(s, DEFAULT_TOL)
    assert np.max(np.abs(N.conj().T @ N - np.eye(N.shape[1])), initial=0.0) < 1e-12
    assert np.linalg.norm(K @ N, 2) <= 1.01 * DEFAULT_TOL * max(s[0], 1.0) + 1e-13 * s[0]


def _unshifted_certificate(H, bound, tol):
    """``_full_rank`` with the shift removed: a plain Cholesky of the Gram."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def test_full_rank_certificate_needs_its_shift():
    """Negative control: without the shift a K with s_min / s_max in (tol, sqrt(tol)) is certified.

    That breaks the docstring's bound, so ``_check_certificate`` has teeth; the
    shifted certificate turns the same K down and proves a K at ratio 1e-2.
    """
    K = _with_singular_values(np.array([1.0, 1e-6]), (5, 2), 0)
    assert not _full_rank(*_short_gram(K), DEFAULT_TOL)
    _check_certificate(K, _full_rank)
    with pytest.raises(AssertionError):
        _check_certificate(K, _unshifted_certificate)
    K = _with_singular_values(np.array([1.0, 1e-2]), (5, 2), 0)
    assert _full_rank(*_short_gram(K), DEFAULT_TOL)


def _at_slot_general(M, t, q):
    """``_at_slot``'s stacked GEMM for any trailing axes: a product of M with each slice."""
    shape = t.shape
    lead, rest = int(np.prod(shape[:q])), int(np.prod(shape[q + 1:]))
    res = np.matmul(M, t.reshape(lead, shape[q], rest))
    return res.reshape(shape[:q] + (M.shape[0],) + shape[q + 1:])


@pytest.mark.parametrize("name", ["a0", "su2"])
def test_at_slot_one_entry_trailing_axes_match_general_path(name):
    """Trailing axes of one entry, as generator_residuals calls chi, take one GEMM: same result.

    The tables are the unit vectors e_a with (1, 1) trailing axes and their
    first and second chi, on every slot, and one with no leading axes.
    """
    from ncdiff.catalog import build_entry
    from ncdiff.genalg import structure_constants

    F = structure_constants(build_entry(name, 4).subspace)[0]
    n = F.shape[0]
    Fm = F.reshape(n, n * n).T
    e = np.eye(n, dtype=complex)[..., None, None]
    chi1 = calculus._raw_chi(F, e, 1)
    tables = [(e, 1), (chi1, 1), (chi1, 2), (calculus._raw_chi(F, chi1, 2), 3),
              (np.ones((n, 1, 1), dtype=complex), 0)]
    for t, q in tables:
        ref = _at_slot_general(-Fm, t, q)
        out = calculus._at_slot(-Fm, t, q)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref), initial=0.0) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_complement_is_the_trailing_part_of_the_complete_q():
    """``_complement`` equals the last M - N columns of numpy's complete Q, with no M x M matrix.

    The first column is e_0, whose reflector has tau = 0 (the identity).
    """
    from ncdiff.linalg import _complement

    rng = np.random.default_rng(5)
    for M, N in ((9, 6), (4, 1), (9, 9), (5, 0), (40, 12)):
        A = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        if N:
            A[:, 0] = 0.0
            A[0, 0] = 2.0
        Q, _ = np.linalg.qr(A, mode="complete")
        out = _complement(A)
        assert out.shape == (M, M - N)
        assert np.max(np.abs(out - Q[:, N:]), initial=0.0) < 1e-13
