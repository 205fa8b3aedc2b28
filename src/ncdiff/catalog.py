"""Constructors for the four worked examples, with their conventional
relation choices and expected ranks."""

from dataclasses import dataclass, field

import numpy as np

from .algebra import validate_subspace
from .errors import DependentBasis
from .linalg import DEFAULT_TOL

__all__ = [
    "CatalogEntry",
    "gell_mann_basis",
    "spin_matrices",
    "universal_A0",
    "su2",
    "clock_shift",
    "fuzzy_ellipsoid",
    "NAMES",
    "build_entry",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict
    subspace: object
    suggested_alpha: np.ndarray | None = field(repr=False, default=None)
    expected: dict = field(default_factory=dict)


def gell_mann_basis(m):
    """Traceless orthogonal Hermitian basis of M_m(C), n = m^2 - 1 matrices.

    Symmetric and antisymmetric off-diagonal pairs first, then the diagonal
    ladder, in deterministic order.
    """
    mats = []
    for j in range(m):
        for k in range(j + 1, m):
            s = np.zeros((m, m), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            mats.append(s)
            a = np.zeros((m, m), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            mats.append(a)
    for l in range(1, m):
        d = np.zeros((m, m), dtype=complex)
        d[:l, :l] = np.eye(l)
        d[l, l] = -l
        mats.append(d * np.sqrt(2.0 / (l * (l + 1))))
    return np.array(mats)


def spin_matrices(m):
    """Hermitian spin-j matrices (J1, J2, J3), j = (m-1)/2, [Ji,Jj] = i eps Jk."""
    j = (m - 1) / 2.0
    mz = np.arange(j, -j - 1, -1.0)
    Jz = np.diag(mz).astype(complex)
    Jp = np.zeros((m, m), dtype=complex)
    for k in range(m - 1):
        mm = mz[k + 1]
        Jp[k, k + 1] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    Jm = Jp.conj().T
    Jx = (Jp + Jm) / 2.0
    Jy = (Jp - Jm) / 2.0j
    return Jx, Jy, Jz


def _pair_column(entries, n):
    """Column vector over row-major pairs with {(a, b): value} entries (0-based)."""
    col = np.zeros(n * n, dtype=complex)
    for (a, b), v in entries.items():
        col[n * a + b] = v
    return col


def universal_A0(m, tol=DEFAULT_TOL):
    """B = all traceless matrices; the maximal relations give P = identity."""
    if m < 2:
        raise ValueError("m must be at least 2")
    basis = gell_mann_basis(m)
    n = m * m - 1
    B = validate_subspace(m, basis, tol=tol, label=f"a0(m={m})")
    return CatalogEntry(
        name="a0",
        parameters={"m": m},
        subspace=B,
        suggested_alpha=None,
        expected={
            "R": n * n,
            "D": {p: n ** p for p in range(1, 4)},
            "P_is_identity": True,
        },
    )


def su2(m, kappa=1.0, tol=DEFAULT_TOL):
    """Spin-j representation of su(2) with anti-Hermitian lambda = -i kappa J.

    The suggested relations keep only the three commutator columns, ignoring
    the Casimir."""
    if m < 2:
        raise ValueError("m must be at least 2")
    lams = [-1j * kappa * Ji for Ji in spin_matrices(m)]
    B = validate_subspace(m, lams, tol=tol, label=f"su2(m={m})")
    cols = []
    for c in range(3):
        for d in range(c + 1, 3):
            cols.append(_pair_column({(c, d): 1.0, (d, c): -1.0}, 3))
    alpha = np.column_stack(cols)
    return CatalogEntry(
        name="su2",
        parameters={"m": m, "kappa": kappa},
        subspace=B,
        suggested_alpha=alpha,
        expected={
            "R_used": 3,
            "D": {1: 3, 2: 3, 3: 1, 4: 0},
            "auto_R_at_least": 4 if m >= 3 else 9,
            "anticommuting_coframe": True,
        },
    )


def clock_shift(m, tol=DEFAULT_TOL):
    """The Weyl pair x (cyclic shift) and y = diag(1, q, ..., q^{m-1}) with
    q = exp(2 pi i / m), satisfying x y = q y x."""
    if m < 2:
        raise ValueError("m must be at least 2")
    q = np.exp(2j * np.pi / m)
    x = np.zeros((m, m), dtype=complex)
    for i in range(m - 1):
        x[i, i + 1] = 1.0
    x[m - 1, 0] = 1.0
    y = np.diag(q ** np.arange(m))
    B = validate_subspace(m, [x, y], tol=tol, label=f"clock-shift(m={m})")
    alpha = np.column_stack([_pair_column({(0, 1): 1.0, (1, 0): -q}, 2)])
    return CatalogEntry(
        name="clock-shift",
        parameters={"m": m, "q": q},
        subspace=B,
        suggested_alpha=alpha,
        expected={
            "R": 1 if m >= 3 else 3,
            "D": {1: 2, 2: 1},
            "chi_vanishes": True,
            "dtheta_eq_minus_theta_sq": True,
        },
    )


def fuzzy_ellipsoid(m, kappa=1.0, acoef=None, tol=DEFAULT_TOL):
    """Rank-1 deformation of the fuzzy sphere.

    lambda_1 = -i kappa J1, lambda_2 = -i kappa J2, and i lambda_3 is the
    traceless part of sum_{a,b in {1,2}} acoef[a,b] lambda_a lambda_b.  The
    scalar subtraction is computed as tr/m so that lambda_3 is traceless by
    construction; the entry records this alongside the closed-form spin trace
    tr(J_a^2) = m(m^2-1)/12 it involves.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    if acoef is None:
        acoef = np.array([[1.0, 0.7 + 0.2j], [0.4 - 0.3j, 1.3]])
    acoef = np.asarray(acoef, dtype=complex)
    J1, J2, _ = spin_matrices(m)
    lam1 = -1j * kappa * J1
    lam2 = -1j * kappa * J2
    pair = [lam1, lam2]
    S = sum(
        acoef[a, b] * pair[a] @ pair[b] for a in range(2) for b in range(2)
    )
    subtraction = np.trace(S) / m
    lam3 = -1j * (S - subtraction * np.eye(m))
    try:
        B = validate_subspace(m, [lam1, lam2, lam3], tol=tol, label=f"ellipsoid(m={m})")
    except DependentBasis:
        raise DependentBasis("acoef makes lambda_3 dependent on lambda_1, lambda_2")
    entries = {(a, b): acoef[a, b] for a in range(2) for b in range(2)}
    alpha = np.column_stack([_pair_column(entries, 3)])
    return CatalogEntry(
        name="ellipsoid",
        parameters={"m": m, "kappa": kappa, "acoef": acoef},
        subspace=B,
        suggested_alpha=alpha,
        expected={
            "R_used": 1,
            "D": {1: 3, 2: 1},
            "component_ratios": "canonical 2-form components proportional to acoef",
            "spin_trace": m * (m * m - 1) / 12.0,
            "computed_subtraction": complex(subtraction),
        },
    )


_CONSTRUCTORS = {"a0": universal_A0, "su2": su2, "clock-shift": clock_shift,
                 "ellipsoid": fuzzy_ellipsoid}
NAMES = tuple(_CONSTRUCTORS)


def build_entry(name, m):
    """Dispatch by catalog name."""
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown catalog entry {name!r}; choose from {NAMES}")
    return _CONSTRUCTORS[name](m)
