"""The differential calculus over a generalised algebra: co-frame 1-forms,
the tower of canonical p-form spaces, wedge product, the insertion map chi,
the exterior derivative d = -[theta, .] + chi, and the checks of its
identities.

Omega^p is the space of p-fold co-frame tensors modulo the degree-p part of
the ideal generated by the quadratic relations: the structure's stored L,
the n^2 x k orthonormal complement null(alpha^T), lifted to every
adjacent slot pair; no n^2 x n^2 matrix is formed.  Its
complement, the canonical space W_p, is W_{p-1} (x) C^n cut down by L^perp
on the newest slot pair, so the tower stores W_p only as the factors N_p of
W_p = (W_{p-1} (x) 1_n) N_p, each the null space of a D-sized matrix K_p:
no step builds an n^p-row basis.  N_2 is the relation span, conj(alpha).
Each later rank decision first tries to prove that K_p has full rank, with a
shifted Cholesky (``linalg._full_rank``) of its Gram on the short side, which
``_factor_gram`` contracts from two slot Grams, one of N_{p-1} and one of L,
with a stated rounding bound, so no K_p is built for it; then N_p
comes from the Householder reflectors of a QR of K_p (``linalg._complement``),
and a proved top degree builds no K_p at all.  Only a K_p that the proof does
not cover takes an SVD.  Projections go through the factors, by
W_p^dag x = N_p^dag (W_{p-1}^dag (x) 1_n) x (``_coordinates``) and W_p c
(``_embed``), so ``forms``, which reads only the ranks, forms no N_max.
A degree-p form is stored by its canonical coefficient table: an array of
shape (n,)*p + (m, m) whose pair-index content lies in range(W_p),
so two coefficient tables describe the same form iff they canonicalize
identically.  Evaluating a canonical form on derivations (e_b1, ..., e_bp)
reads its coefficient at (b1, ..., bp).  A table may carry one leading
stack axis of same-degree forms; ``canonicalize``, ``wedge``, ``chi``,
``exterior_d``, ``random_form`` and ``form_norm`` act on every form of a
stack with the GEMMs they use for a single form, so a check on many
generators runs as a few stacked calls.
Projection is linear, so each operation builds its whole raw table first
and projects it once.  The raw tables come from private kernels:
``_raw_d`` sums the two theta products and the chi insertions
(``_raw_chi``) in one table, ``_raw_wedge`` is one pair-product GEMM, and
``_project`` projects a table its caller owns in place.
``generator_residuals`` decides d o d = 0 and the graded Leibniz rule
exactly, in closed form from d^2 = ad_C + chi^2 (``_curvature``), on one
(n, n, m, m) table C and scalar tables of n^3 entries per generator, projected
through the factors (``_canonical_norms``);
``check_structure_equations`` decides d theta^a on one scalar (n, n, n) table.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeError
from .linalg import (DEFAULT_TOL, _at_slot, _complement, _full_rank, _gamma, _pair_products,
                     _rank)

__all__ = [
    "FormTower",
    "Form",
    "build_tower",
    "coframe",
    "theta",
    "wedge",
    "chi",
    "exterior_d",
    "form_norm",
    "epsilon_check",
    "check_structure_equations",
    "coframe_from_formula",
    "random_form",
    "generator_residuals",
]

# Bytes one batch of generator_residuals keeps: 5 of the 15 u_a of a0(m=4) ran fastest.
GENERATOR_BYTES = 7 << 17


@dataclass(frozen=True)
class FormTower:
    """Per-degree canonical ranks and the factors of the canonical bases of one calculus.

    Degree p has the orthonormal basis W_p = (W_{p-1} (x) 1_n) N_p, with
    W_1 = N_1 = I_n.  Where the structure's L has columns, ``factors`` holds
    N_p, (D_{p-1} n) x D_p, for p = 1..max_degree - 1 and N_2 = conj(alpha),
    and ``relations`` holds L^dag as ``_pair_matrix`` reads it; else
    ``relations`` is None and every tensor is canonical.  ``ranks[p]`` is D_p
    for p = 0..max_degree.  Every D_p above 2 was decided on a Gram formed from
    N_{p-1} and L (``_factor_gram``), so a top degree proved of full rank
    formed no K_max.  ``factor(max_degree)`` forms N_max on first use and
    keeps it.  N_max comes from a Householder QR of K_max when D_max says
    K_max has full rank, else from an SVD (``_null_factor``).  No W_p is
    stored.  Copies made by ``dataclasses.replace`` share ``factors``.
    """

    ga: object
    max_degree: int
    ranks: dict
    relations: object = field(repr=False)
    factors: dict = field(repr=False)

    def factor(self, p):
        """N_p, p >= 1, of a tower with relations; N_max is formed on first use."""
        if p not in self.factors:  # the top degree, whose rank is decided already
            self.factors[p] = _null_factor(self.factors[p - 1], self.relations, self.n,
                                           width=self.ranks[p])
        return self.factors[p]

    @property
    def n(self):
        return self.ga.subspace.n

    @property
    def m(self):
        return self.ga.subspace.m


@dataclass(frozen=True)
class Form:
    """Degree-p element of Omega^p_B with canonicalized coefficients.

    ``coeffs`` has shape (n,)*p + (m, m), or (k,) + (n,)*p + (m, m) for a
    stack of k forms of the same degree.
    """

    tower: FormTower
    degree: int
    coeffs: np.ndarray = field(repr=False)

    @property
    def stack(self):
        """The leading stack shape: () for one form, (k,) for a stack of k."""
        return _stack(self.coeffs, self.degree)

    def __add__(self, other):
        self._compat(other)
        return Form(self.tower, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._compat(other)
        return Form(self.tower, self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return Form(self.tower, self.degree, -self.coeffs)

    def __rmul__(self, c):
        if np.isscalar(c):
            return Form(self.tower, self.degree, c * self.coeffs)
        return NotImplemented

    def _compat(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            raise DegreeError("form degrees do not match")


def _stack(coeffs, degree):
    """The stack shape of a degree-``degree`` coefficient table: its axes before the slots."""
    return coeffs.shape[:max(coeffs.ndim - degree - 2, 0)]


def _pair_matrix(N, Lr, n):
    """K_p = (1_{D_{p-2}} (x) L^dag)(N_{p-1} (x) 1_n), a (D_{p-2} k) x (D_{p-1} n) matrix.

    ``Lr[r][a, c] = conj(L[(a, c), r])`` for the k columns of L.  The
    newest slot pair's relation matrix M_p = (1_{n^(p-2)} (x) L^dag)
    (W_{p-1} (x) 1_n) is (W_{p-2} (x) 1_k) K_p, an isometry times K_p, so
    K_p has the singular values and right singular vectors of M_p.
    """
    blocks, D = N.shape[0] // n, N.shape[1]
    # K[(i, r), (j, c)] = sum_a conj(L[(a, c), r]) N[(i, a), j]: one (D x n) @ (n x n)
    # product per (i, r), written straight into K's layout
    Nt = N.reshape(blocks, 1, n, D).swapaxes(-1, -2)
    return np.matmul(Nt, Lr).reshape(blocks * Lr.shape[0], D * n)


def _slot_gram(T):
    """G[x, (a, a'), x'] = sum_y T[x, a, y] conj(T[x', a', y]) for T of shape (X, n, Y).

    One product of inner length Y per a', written straight into G's layout,
    an (X, n^2, X) array.
    """
    X, n, Y = T.shape
    T = np.ascontiguousarray(T)
    G = np.empty((X * n, n, X), dtype=complex)
    np.matmul(T.reshape(X * n, Y), T.conj().transpose(1, 2, 0), out=G.swapaxes(0, 1))
    return G.reshape(X, n * n, X)


def _factor_gram(N, Lr, n, tables=None):
    """The Gram of K_p on its short side, from N = N_{p-1} and L, with no K_p formed.

    ``Lr`` is L^dag as ``_pair_matrix`` reads it, with k rows.  K_p is
    (D_{p-2} k) x (D_{p-1} n).  Where it is wide, H = K K^dag:

        H[(i, r), (i', r')] = sum_{a, a'} P[(i, a), (i', a')] M[(a, r), (a', r')],

    with P = N N^dag and M[(a, r), (a', r')] = sum_c conj(L[(a, c), r]) L[(a', c), r'];
    else H = K^dag K:

        H[(j, c), (j', c')] = sum_{a, a'} Q[(a, a'), (j, j')] Pi[(a, c), (a', c')],

    with Q[(a, a'), (j, j')] = sum_i conj(N[(i, a), j]) N[(i, a'), j'] and
    Pi = L L^dag.  Each of the two tables is one ``_slot_gram`` of its factor;
    the tall case takes the conjugates of Q and Pi, so its product is conj(H),
    conjugated in place.  M and Pi depend only on L: ``tables``, a dict the
    caller keeps for one tower, holds each once formed.  H is one product of
    inner length n^2 per row of H, written straight into H's layout.

    Returns (H, bound): each of the three products, of inner length q, is
    within ``linalg._gamma(q)`` times the Frobenius norms of its two factors,
    which are at most |N|_F^2 and |L|_F^2 (D_{p-1} and k, read off the
    factors), so |H - K K^dag|_2 (or K^dag K) is at most

        (gamma(n^2) + gamma(q_N) + gamma(q_L)) (1 + gamma(q_N)) (1 + gamma(q_L)) |N|_F^2 |L|_F^2,

    with q_N = D_{p-1} and q_L = n when K_p is wide, q_N = D_{p-2} and q_L = k
    when it is tall.
    """
    blocks, D, k = N.shape[0] // n, N.shape[1], Lr.shape[0]
    wide = blocks * k < D * n
    Nt, Lt = N.reshape(blocks, n, D), Lr
    if not wide:
        Nt, Lt = Nt.transpose(2, 1, 0), Lr.transpose(2, 1, 0)
    tables = {} if tables is None else tables
    if wide not in tables:
        tables[wide] = _slot_gram(Lt)
    X, T = _slot_gram(Nt), tables[wide]
    d, t = X.shape[0], T.shape[0]
    H = np.empty((d * t, d * t), dtype=complex)
    np.matmul(X.swapaxes(1, 2)[:, None], T, out=H.reshape(d, t, d, t))
    del X
    if not wide:
        np.conjugate(H, out=H)
    gN, gL = _gamma(Nt.shape[2]), _gamma(Lt.shape[2])
    bound = ((_gamma(n * n) + gN + gL) * (1 + gN) * (1 + gL)
             * np.linalg.norm(N) ** 2 * np.linalg.norm(Lr) ** 2)
    return H, float(bound)


def _null_factor(N, Lr, n, tol=None, width=None, tables=None):
    """N_p = null(K_p), orthonormal, from the factor ``N`` of degree p-1.

    The rank of K_p is decided at ``tol``; with ``width`` (a D_p decided
    before) given instead, N_p is ``width`` columns wide.  A K_p of full rank
    d = min(shape), proved by ``_full_rank`` on its ``_factor_gram`` (with
    ``tables``) or given as width cols - d, has N_p = the trailing cols - d
    columns of the complete Q of a QR of K_p^dag, formed from its reflectors
    (``linalg._complement``), none when K_p is tall.  Any other K_p takes the
    SVD: of the R factor of a QR when K_p is tall, else of K_p^dag, and N_p is
    its last right singular vectors; a rank counts the values above tol s_max
    and tol, the rule ``_full_rank`` proves.  K_p is built only for that QR or
    SVD, after the Gram is gone.
    """
    rows, cols = N.shape[0] // n * Lr.shape[0], N.shape[1] * n
    full_width = cols - min(rows, cols)
    if width is None and _full_rank(*_factor_gram(N, Lr, n, tables), tol) or width == full_width:
        if full_width == 0:
            return np.empty((cols, 0), dtype=complex)
        # conjugated in place, K.T is K^dag
        K = _pair_matrix(N, Lr, n)
        return _complement(np.conjugate(K, out=K).T)
    K = _pair_matrix(N, Lr, n)
    # V from the SVD of a tall matrix with K's right singular vectors (a wide SVD
    # gives the vectors of a near-zero singular value less accurately): R of K = QR,
    # a cols x cols triangle, or K^dag, whose left singular vectors are K's right ones
    if rows >= cols:
        _, s, vh = np.linalg.svd(np.linalg.qr(K, mode="r"))
        V = vh.conj().T
    else:
        V, s, _ = np.linalg.svd(np.conjugate(K, out=K).T)
    if width is None:
        width = cols - _rank(s, tol, floor=tol)
    # a copy, so that the factor does not keep all of V alive
    return V[:, cols - width:].copy()


def _coordinates(tower, p, x):
    """W_p^dag x, shape stack + (D_p, Z), for x of shape stack + (n^p, Z), p >= 2, with relations.

    Step q = 2..p is one GEMM of N_q^T, a view, with the leading (D_{q-1}, n)
    index of conj(x), conjugated in place (a stack of rows, Z = 1, is one
    GEMM at q = p, as in ``linalg._at_slot``); the result is conjugated back.
    """
    stack, Z, n = x.shape[:-2], x.shape[-1], tower.n
    c = np.conjugate(x, out=x)
    for q in range(2, p + 1):
        N, rest = tower.factor(q), n ** (p - q) * Z
        c = (np.matmul(c.reshape(stack + N.shape[:1]), N) if rest == 1
             else np.matmul(N.T, c.reshape(stack + (N.shape[0], rest))))
    c = c.reshape(stack + (N.shape[1], Z))
    return np.conjugate(c, out=c)


def _embed(tower, p, c, out=None):
    """W_p c, shape stack + (n^p, Z), for c of shape stack + (D_p, Z), p >= 2, with relations.

    Step q = p..2 is one GEMM of N_q with the leading D_q index; the last
    writes into ``out``, a C-contiguous array of the result's size, if given.
    """
    stack, Z, n = c.shape[:-2], c.shape[-1], tower.n
    for q in range(p, 1, -1):
        N = tower.factor(q)
        c = c.reshape(stack + (N.shape[1], n ** (p - q) * Z))
        target = None if out is None or q > 2 else out.reshape(stack + (N.shape[0], c.shape[-1]))
        c = np.matmul(N, c, out=target)
    return c.reshape(stack + (n ** p, Z))


def build_tower(G, max_degree, tol=DEFAULT_TOL):
    """Canonical ranks and factors up to ``max_degree``.

    K_2 = L^dag has orthonormal rows, so N_2 = conj(alpha) and D_2 = R need no
    decision.  A degree from 3 below the top forms N_p (``_null_factor``: a Cholesky and a
    Householder QR when the Cholesky proves K_p of full rank, else an SVD), since
    K_{p+1} is built on N_p.  At a top above 2, D_max = D_{max-1} n -
    rank(K_max) comes from the Cholesky alone when it proves full rank, else
    from singular values alone, counted as ``_null_factor`` counts them.
    D_p is the width of N_p, or n^p at a degree without relations.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    n = G.subspace.n
    ranks = {p: n ** p for p in range(max_degree + 1)}
    factors = {}
    # Lr[r][a, c] = conj(L[(a, c), r]) for the k columns of the stored L; None when k = 0
    Lr = G.L.T.conj().reshape(-1, n, n) if max_degree >= 2 and G.L.shape[1] else None
    if Lr is not None:
        factors = {1: np.eye(n, dtype=complex), 2: G.alpha.conj()}
        tables = {}
        for p in range(3, max_degree):
            factors[p] = _null_factor(factors[p - 1], Lr, n, tol, tables=tables)
        ranks.update((p, N.shape[1]) for p, N in factors.items())
    if Lr is not None and max_degree > 2:
        N = factors[max_degree - 1]
        rows, cols = N.shape[0] // n * Lr.shape[0], N.shape[1] * n
        if _full_rank(*_factor_gram(N, Lr, n, tables), tol):
            rank = min(rows, cols)
        else:  # values only, of whichever of K and K^T is tall
            K = _pair_matrix(N, Lr, n)
            rank = _rank(np.linalg.svd(K if rows >= cols else K.T, compute_uv=False), tol, tol)
        ranks[max_degree] = cols - rank
    return FormTower(ga=G, max_degree=max_degree, ranks=ranks, relations=Lr, factors=factors)


def canonicalize(tower, degree, coeffs):
    """Project a raw coefficient table, or a stack of them, onto the canonical space: W_p W_p^dag.

    The projection acts on a copy.  Below degree 2, or in a tower without
    relations, every table is canonical and is returned as it is.
    """
    _check_degree(tower, degree)
    coeffs = np.asarray(coeffs, dtype=complex)
    shape = _stack(coeffs, degree) + (tower.n,) * degree + (tower.m, tower.m)
    if tower.relations is None or degree < 2:
        return coeffs.reshape(shape)
    return _project(tower, degree, np.array(coeffs, order="C").reshape(shape))


def _project(tower, degree, table):
    """Project the raw ``table`` (or stack), which the caller owns, onto the canonical space.

    W_p W_p^dag t is ``_embed`` of ``_coordinates``, which conjugates the
    table in place, written back into a contiguous table.  Returns the table.
    """
    if tower.relations is None or degree < 2:
        return table
    flat = table.reshape(_stack(table, degree) + (tower.n ** degree, -1))
    return _embed(tower, degree, _coordinates(tower, degree, flat), out=flat).reshape(table.shape)


def _check_degree(tower, p):
    if p > tower.max_degree:
        raise DegreeError(f"degree {p} exceeds tower max_degree {tower.max_degree}")
    if p < 0:
        raise DegreeError("negative degree")


def coframe(tower, a):
    """The basis 1-form theta^a: coefficient 1 at index a."""
    n, m = tower.n, tower.m
    if not (0 <= a < n):
        raise IndexError(f"co-frame index {a} out of range 0..{n - 1}")
    c = np.zeros((n, m, m), dtype=complex)
    c[a] = np.eye(m)
    return Form(tower, 1, c)


def theta(tower):
    """theta = -lambda_a theta^a, the generator of d on degree 0."""
    return Form(tower, 1, -tower.ga.subspace.lambdas.copy())


def wedge(xi, zeta):
    """Product of forms; coefficients multiply since the co-frame is central.

    Two stacks multiply form by form; a single form multiplies every form
    of a stack.
    """
    p, q = xi.degree, zeta.degree
    tower = xi.tower
    if p + q > tower.max_degree:
        raise DegreeError(f"wedge degree {p + q} exceeds max_degree {tower.max_degree}")
    raw = np.ascontiguousarray(_raw_wedge(tower, xi.coeffs, p, zeta.coeffs, q))
    return Form(tower, p + q, _project(tower, p + q, raw))


def _raw_wedge(tower, a, p, b, q):
    """The raw table of the product of degree-p ``a`` and degree-q ``b`` (tables or stacks).

    One pair-product GEMM (``_pair_products``); returns a table-shaped view
    of the GEMM's result.
    """
    n, m = tower.n, tower.m
    a = a.reshape(_stack(a, p) + (n ** p, m, m))
    b = b.reshape(_stack(b, q) + (n ** q, m, m))
    prod = _pair_products(a, b)
    return prod.reshape(prod.shape[:-4] + (n,) * (p + q) + (m, m))


def _raw_chi(F, coeffs, p):
    """The raw (uncanonicalized) chi table of a degree-p coefficient table or stack, p >= 1.

    Slot q = 1..p of ``coeffs`` (axis q - 1 after the stack axis) is
    replaced by the pair slots (b, c) weighted by (-1)^q F^a_bc: one
    stacked GEMM of F as an (n^2 x n) matrix per slot, summed.  The trailing
    (m, m) axes may have any shape, since chi acts on the slots only.
    """
    n = F.shape[0]
    s = len(_stack(coeffs, p))
    shape = coeffs.shape[:s] + (n,) * (p + 1) + coeffs.shape[-2:]
    Fm = F.reshape(n, n * n).T  # Fm[(b, c), a] = F^a_bc
    table = _at_slot(-Fm, coeffs, s).reshape(shape)
    for q in range(2, p + 1):
        table += _at_slot((-1) ** q * Fm, coeffs, s + q - 1).reshape(shape)
    return table


def chi(xi):
    """The A-bilinear insertion map raising degree by one.

    chi(f theta^{a1}..theta^{ap}) inserts <lambda^{aq}, lambda_b lambda_c>
    theta^b theta^c at slot q with sign (-1)^q.
    """
    tower = xi.tower
    p = xi.degree
    if p == 0:
        raise DegreeError("chi is defined on degree >= 1")
    _check_degree(tower, p + 1)
    return Form(tower, p + 1, _project(tower, p + 1, _raw_chi(tower.ga.F, xi.coeffs, p)))


def exterior_d(xi):
    """Exterior derivative: -[theta, xi] (graded) + chi(xi).

    On degree 0 this is the commutator form df = [lambda_a, f] theta^a.  On
    degree p >= 1, with theta = -lambda_a theta^a, the raw table is
    lambda_a xi_B at (a, B), minus (-1)^p xi_B lambda_a at (B, a), plus the
    raw chi table: one table (``_raw_d``), built from the two pair-product
    GEMMs of ``wedge`` and the slot GEMMs of ``chi``, and projected once.
    Into a zero-rank target space the result is the zero form.  A stack of
    forms gives the stack of their derivatives.
    """
    tower = xi.tower
    p = xi.degree
    _check_degree(tower, p + 1)
    shape = xi.stack + (tower.n,) * (p + 1) + (tower.m, tower.m)
    if tower.ranks[p + 1] == 0:
        return Form(tower, p + 1, np.zeros(shape, dtype=complex))
    return Form(tower, p + 1, _project(tower, p + 1, _raw_d(tower, xi.coeffs, p)))


def _raw_d(tower, coeffs, p):
    """The raw (unprojected) table of d on a degree-p table or stack.

    Projection is linear and d maps the relations' ideal into itself, so
    any sum of raw tables may be projected once.
    """
    lam = tower.ga.subspace.lambdas
    n, m = tower.n, tower.m
    stack = _stack(coeffs, p)
    shape = stack + (n,) * (p + 1) + (m, m)
    a = coeffs.reshape(stack + (n ** p, m, m))
    if p == 0:  # no chi term; with one index a, lambda_a f is in table order as computed
        table = _pair_products(lam, a).reshape(shape)
    else:
        table = _raw_chi(tower.ga.F, coeffs, p)
        table += _pair_products(lam, a).reshape(shape)
    table += _pair_products(a, (-1) ** (p + 1) * lam).reshape(shape)
    return table


def form_norm(xi):
    """Frobenius norm of the full coefficient table; an array of one norm per form of a stack.

    Each norm is the square root of one real dot product of the table's
    float view with itself, so no table-sized temporary is made.
    """
    flat = np.ascontiguousarray(xi.coeffs, dtype=complex).reshape(xi.stack + (1, -1)).view(float)
    norms = np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2)))[..., 0, 0]
    return norms if xi.stack else float(norms)


def epsilon_check(G, p, tol=DEFAULT_TOL):
    """Solvability of the higher-form coefficient chain at degree p.

    The chain asks for eps_t, t = 0..p-2, whose lifts X = (1 (x) alpha (x) 1)
    eps_t at adjacent slot pair (t, t+1) all agree.  alpha is injective, so
    the solutions are the X in every lifted range(alpha): conj(W_p), the
    canonical space of dimension D_p (X is every tensor at a degree without
    relations).  W_p is ``_embed`` of I_{D_p} on ``build_tower(G, p, tol)``, so
    D_p is decided as for ``forms``.  Each eps_t = (1 (x) alpha^dag (x) 1) X.
    Returns (exists, basis, dim) where ``exists`` means a nonzero solution
    exists at tolerance; basis columns use the unknown layout x[t, A, r]
    with A in n^(p-2) row-major.
    """
    if p < 3:
        raise ValueError("epsilon_check requires p >= 3")
    n = G.subspace.n
    R = G.R
    if R == 0:
        return False, None, 0
    tower = build_tower(G, p, tol)
    dim = tower.ranks[p]
    if dim == 0:
        return False, None, 0
    X = np.eye(dim, dtype=complex)
    if tower.relations is not None:
        X = _embed(tower, p, X)
    Xr = np.conjugate(X, out=X).reshape((n,) * p + (dim,))
    beta = G.alpha.conj().T.reshape(R, n, n)  # alpha's left inverse
    eps = [np.moveaxis(np.tensordot(beta, Xr, axes=([1, 2], [t, t + 1])), 0, -2)
           .reshape(n ** (p - 2) * R, dim) for t in range(p - 1)]
    return True, np.vstack(eps), dim


def check_structure_equations(tower, tol=DEFAULT_TOL):
    """Residuals of the two co-frame structure equations.

    d theta + theta^2 = -(1/m) t_ab theta^a theta^b goes through the public
    ``exterior_d`` and ``wedge``.  d theta^a + [theta, theta^a] = chi(theta^a) on
    raw tables, so d theta^a = -[theta, theta^a] - F^a_bc theta^b theta^c iff
    pi_2(chi(e_a) + F^a) = 0, one scalar (n, n, n) table.  ``dtheta_a``, linear
    in F, is judged against tol |lambda|, the other against tol |lambda|^2.
    """
    if tower.max_degree < 2:
        raise ValueError("structure equations need max_degree >= 2")
    G, n, m = tower.ga, tower.n, tower.m
    th = theta(tower)
    rhs = Form(tower, 2, canonicalize(tower, 2, np.einsum("ab,ij->abij", -G.t / m, np.eye(m))))
    chi_e = _raw_chi(G.F, np.eye(n, dtype=complex)[..., None, None], 1)[..., 0, 0] + G.F
    lam = np.linalg.norm(G.subspace.lambdas)
    rep = {
        "dtheta_plus_theta_sq": form_norm(exterior_d(th) + wedge(th, th) - rhs),
        "dtheta_a": float(np.sqrt(m) * _canonical_norms(tower, 2, chi_e.reshape(n, n * n)).max()),
        "bound": float(tol * lam ** 2),
        "dtheta_a_bound": float(tol * lam),
    }
    rep["passed"] = bool(rep["dtheta_plus_theta_sq"] < rep["bound"]
                         and rep["dtheta_a"] < rep["dtheta_a_bound"])
    return rep


def coframe_from_formula(tower, basis_gamma, duals, tol=DEFAULT_TOL):
    """Rebuild theta^a and theta from d on degree-0 elements.

    theta^a = sum_nu (gamma_nu lambda^{a dag}) d(gamma^{nu dag}) and
    theta = (1/m) sum_mu gamma_mu d(gamma^{mu dag}), for any basis gamma of
    M_m(C) with trace duals ``duals`` (``algebra.matrix_basis_duals``).  The
    d(gamma^{nu dag}) are one stacked ``exterior_d`` call, and every sum over
    nu is one GEMM: the rows (a, i) and columns (nu, j) of (gamma_nu X_a)[i, j],
    for X_a = lambda^{a dag} and X_n = 1/m, against the rows (nu, j) and
    columns (b, l) of d(gamma^{nu dag})_b[j, l].  Returns the rebuilt forms and
    a residual report against the co-frame of the tower: each |theta^a rebuilt
    - theta^a|, which does not scale with B, and |theta rebuilt - theta| /
    |lambda|, all judged against 10 tol.
    """
    B = tower.ga.subspace
    n, m = B.n, B.m
    gam = np.asarray(basis_gamma, dtype=complex)
    gdual_dag = np.asarray(duals).conj().transpose(0, 2, 1)
    X = np.concatenate([B.dual.duals.conj().transpose(0, 2, 1), np.eye(m)[None] / m])
    # left[(a, i), (nu, j)] = (gamma_nu X_a)[i, j]
    left = _pair_products(gam, X).transpose(1, 2, 0, 3).reshape((n + 1) * m, m ** 3)
    # right[(nu, j), (b, l)] = d(gamma^{nu dag})_b[j, l]
    dg = exterior_d(Form(tower, 0, gdual_dag)).coeffs
    right = dg.transpose(0, 2, 1, 3).reshape(m ** 3, n * m)
    coeffs = (left @ right).reshape(n + 1, m, n, m).transpose(0, 2, 1, 3)
    rebuilt = [Form(tower, 1, c) for c in coeffs[:n]]
    acc = Form(tower, 1, coeffs[n])
    report = {f"theta_{a}": form_norm(rebuilt[a] - coframe(tower, a)) for a in range(n)}
    report["theta"] = float(form_norm(acc - theta(tower)) / np.linalg.norm(B.lambdas))
    report["passed"] = bool(max(report.values()) < 10 * tol)
    return rebuilt, acc, report


def random_form(tower, degree, rng, count=None):
    """Canonicalized form with i.i.d. standard complex normal coefficients.

    A form draws the real parts of its table, then the imaginary parts.
    With ``count``, a stack of that many forms, drawn in one
    ``rng.standard_normal((count, 2, n^p m^2))`` call, which reads the
    numbers that many calls without it would read.  ``rng`` is a numpy
    Generator.
    """
    _check_degree(tower, degree)
    stack = () if count is None else (count,)
    z = rng.standard_normal(stack + (2, tower.n ** degree * tower.m ** 2))
    coeffs = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    shape = stack + (tower.n,) * degree + (tower.m, tower.m)
    return Form(tower, degree, _project(tower, degree, coeffs.reshape(shape)))


def _curvature(tower):
    """C = theta^2 - chi(theta), the raw (n, n, m, m) table with d^2 = ad_C + chi^2 for the raw d.

    theta is odd and chi an odd derivation acting on the co-frame slots
    only, so (-ad_theta + chi)^2 = ad_{theta^2} - ad_{chi(theta)} + chi^2.
    C is also -(d theta + theta^2), minus the left side of the first
    structure equation.
    """
    th = -tower.ga.subspace.lambdas
    C = np.ascontiguousarray(_raw_wedge(tower, th, 1, th, 1))
    C -= _raw_chi(tower.ga.F, th, 1)
    return C


def _canonical_norms(tower, p, rows):
    """|pi_p x| = |W_p^dag x| for each row x of ``rows``, a (k, n^p) stack of scalar tables, p >= 2.

    W_p^dag x is ``_coordinates``, which conjugates ``rows`` in place.  Each
    norm is a real dot product of a projected row's float view with itself.
    """
    if tower.ranks[p] == 0:
        return np.zeros(len(rows))
    if tower.relations is None:
        flat = np.ascontiguousarray(rows)
    else:
        flat = _coordinates(tower, p, rows[..., None])[..., 0]
    flat = flat.view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def generator_residuals(tower):
    """The d o d = 0 and graded Leibniz residuals of the calculus, decided exactly in closed form.

    The raw d is a graded derivation of T(V) (x) M_m, since the co-frame is
    central, and d^2 = ad_C + chi^2 (``_curvature``).  With c = tr(C) / m,
    C' = C - c (x) 1 and I the relation ideal (I_3 = L (x) V + V (x) L):

    - degree 0: d d f = [pi_2 C', f], so d o d = 0 on M_m iff pi_2 C' = 0;
    - degree 1: given that, d d theta^a = u_a (x) 1 modulo I_3, with the
      scalar u_a = c (x) e_a - e_a (x) c + chi^2(e_a);
    - Leibniz holds on Omega iff d maps I into itself, iff pi_3 d(L_r (x) 1)
      = 0 for the k columns L_r of the stored L; the theta terms of that
      d lie in I_3, so it is pi_3 chi(L_r) (x) 1.

    Then d o d, an even derivation, vanishes on all of Omega iff it vanishes
    on the generators E_ij and theta^a.  Every table but C is scalar, n^3
    entries per generator, a batch at a time under ``GENERATOR_BYTES``.  The
    residuals, relative to the scale of d, are (2 |pi_2 C'| + max_a |pi_3 u_a|)
    / |lambda|^2, a bound on |d d E_ij| and |d d theta^a| / |theta^a| since
    |[X, E_ij]| <= 2 |X|, and, for the orthonormal L_r, max_r |pi_3 chi(L_r)|
    / |lambda|, the worst |pi_3 d(L_r (x) 1)| / |L_r (x) 1|.  The tower must
    reach degree 3.
    Returns (d o d residual, Leibniz residual).
    """
    if tower.max_degree < 3:
        raise DegreeError(f"generator checks need max_degree >= 3, got {tower.max_degree}")
    n, m, F = tower.n, tower.m, tower.ga.F
    C = _curvature(tower)
    c = np.trace(C, axis1=-2, axis2=-1) / m
    C -= c[..., None, None] * np.eye(m)
    curvature = 2 * np.linalg.norm(_canonical_norms(tower, 2, C.reshape(n * n, m * m).T))
    # chi of chi(e_a), then of L_r; a batch keeps a chi table and the larger of a slot
    # GEMM and the rows' two projections, D_2 n and D_3 entries each
    X = _raw_chi(F, np.eye(n, dtype=complex)[..., None, None], 1)
    if tower.relations is not None:  # the L_r are orthonormal
        X = np.concatenate([X, tower.relations.conj()[..., None, None]])
    norms = np.empty(len(X))
    rows = n ** 3 + max(n ** 3, tower.ranks[2] * n + tower.ranks[3])
    size = max(1, GENERATOR_BYTES // np.dtype(complex).itemsize // rows)
    for s in range(0, len(X), size):
        t = _raw_chi(F, X[s:s + size], 2)[..., 0, 0]
        a = np.arange(s, min(s + size, n))  # u_a = chi^2(e_a) + c (x) e_a - e_a (x) c
        t[a - s, :, :, a] += c
        t[a - s, a] -= c
        norms[s:s + size] = _canonical_norms(tower, 3, t.reshape(len(t), -1))
    worst_u, leibniz = norms[:n].max(), norms[n:].max(initial=0.0)
    lam = np.linalg.norm(tower.ga.subspace.lambdas)
    return float((curvature + worst_u) / lam ** 2), float(leibniz / lam)
