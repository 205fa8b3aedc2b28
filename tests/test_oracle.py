"""Exact-rational cross-check of relation detection.

The floating-point kernel rank R from detect_structure is compared against
an independent sympy implementation of the same construction carried out in
exact arithmetic (rationals, roots of unity, square roots).
"""

import numpy as np
import pytest
import sympy as sp

from ncdiff import algebra, genalg
from ncdiff.catalog import clock_shift, spin_matrices


def exact_relation_rank(lams, m):
    """Kernel dimension of the pair map v^{ab} -> sum v^{ab} eta_perp(l_a l_b)."""
    n = len(lams)
    lams = [sp.Matrix(L) for L in lams]
    dag = lambda M: M.conjugate().T
    gram = sp.Matrix(n, n, lambda a, b: sp.trace(dag(lams[a]) * lams[b]))
    ginv = gram.inv()
    duals = [sum((ginv[b, a] * lams[b] for b in range(n)), sp.zeros(m, m))
             for a in range(n)]
    cols = []
    for a in range(n):
        for b in range(n):
            prod = lams[a] * lams[b]
            res = prod - sp.trace(prod) * sp.eye(m) / m
            for c in range(n):
                res -= sp.trace(dag(duals[c]) * prod) * lams[c]
            cols.append(sp.simplify(res).reshape(m * m, 1))
    M = sp.Matrix.hstack(*cols)
    return n * n - M.rank()


def _float_R(lams, m):
    B = algebra.validate_subspace(m, [np.array(L, dtype=complex) for L in lams])
    return genalg.detect_structure(B).R


SX = [[0, 1], [1, 0]]
SY = [[0, -sp.I], [sp.I, 0]]
SZ = [[1, 0], [0, -1]]
E12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
E21 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
E12_E23 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

INSTANCES = [
    ("pauli-full", 2, [SX, SY, SZ]),
    ("pauli-xy", 2, [SX, SY]),
    ("pauli-xz", 2, [SX, SZ]),
    ("pauli-single", 2, [SX]),
    ("nilpotent-single", 3, [E12]),
    ("nilpotent-pair", 3, [E12, E21]),
    ("nilpotent-chain", 3, [E12_E23]),
    ("diag-pair", 3, [sp.diag(1, -1, 0).tolist(), sp.diag(1, 1, -2).tolist()]),
]


@pytest.mark.parametrize("name,m,lams", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_rank_matches_exact_oracle(name, m, lams):
    exact = exact_relation_rank([sp.Matrix(L) for L in lams], m)
    assert _float_R(lams, m) == exact


def test_clock_shift_m3_symbolic_q():
    q = sp.exp(2 * sp.pi * sp.I / 3)
    x = sp.Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    y = sp.diag(1, q, q ** 2)
    exact = exact_relation_rank([x, y], 3)
    assert exact == 1
    e = clock_shift(3)
    assert genalg.detect_structure(e.subspace).R == 1


def test_spin1_symbolic():
    jx, jy, jz = spin_matrices(3)
    s2 = sp.sqrt(2)
    JX = sp.Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / s2
    JY = sp.Matrix([[0, -sp.I, 0], [sp.I, 0, -sp.I], [0, sp.I, 0]]) / s2
    JZ = sp.diag(1, 0, -1)
    assert np.allclose(np.array(JX, dtype=complex), jx)
    assert np.allclose(np.array(JY, dtype=complex), jy)
    exact = exact_relation_rank([-sp.I * JX, -sp.I * JY, -sp.I * JZ], 3)
    # The three antisymmetric relations plus the Casimir relation.
    assert exact == 4
    lams = [-1j * jx, -1j * jy, -1j * jz]
    B = algebra.validate_subspace(3, lams)
    assert genalg.detect_structure(B).R == 4
