"""Built-in example pairs, the basis changes, matched pairs and bialgebras
they are built from, and deterministic random fixture generators.

Random pairs are produced by conjugating a catalogued pair with a seeded
block-triangular unimodular basis change, so the Jacobi identity holds by
construction while the complement (and hence every splitting tensor) varies.
"""

from __future__ import annotations

import random

from .atiyah import nullspace_basis, rank, solve
from .ce import Connection, extend_by_zero
from .lie_core import (
    GAlgebra,
    GModule,
    LieAlgebra,
    LiePair,
    Report,
    SubalgebraNotClosed,
    dual_module,
    make_pair,
    tensor_module,
    trivial_module,
    validate_lie_algebra,
)
from .linalg import Matrix, basis_vec, vec_is_zero, zero_vec
from .scalars import GaussScalar, ONE, ZERO, as_scalar


# -- basis changes and matched pairs ------------------------------------------


class NotASubalgebra(Exception):
    """A span handed to adapt_basis is dependent or not bracket-closed."""


class MatchedPairAxiomsFail(Exception):
    """Matched-pair compatibility identities do not hold."""


class NotABialgebra(Exception):
    """A cobracket fails the Lie bialgebra conditions."""


def adapt_basis(d: LieAlgebra, span_g):
    """Conjugate d into a basis whose first vectors are span_g.

    Returns (adapted LieAlgebra, transition Matrix T) with new coordinates
    related to old ones by old = T . new.  Raises NotASubalgebra when span_g is
    dependent or not closed under the bracket.
    """
    n = d.dim
    m = len(span_g)
    span = [[as_scalar(x) for x in v] for v in span_g]
    span_matrix = Matrix.from_rows([[v[i] for v in span] for i in range(n)]) \
        if span else Matrix(0, n, [])
    if span and rank(span_matrix) != m:
        raise NotASubalgebra("dependent vectors in the given span")
    # Closure: each pairwise bracket must solve against the span.
    for i in range(m):
        for j in range(m):
            br = d.bracket(span[i], span[j])
            if solve(span_matrix, br) is None:
                raise NotASubalgebra(
                    "bracket of span vectors (%d, %d) leaves the span" % (i, j)
                )
    # Complete to a basis with standard vectors, deterministically.
    cols = [list(v) for v in span]
    for e in range(n):
        if len(cols) == n:
            break
        candidate = cols + [basis_vec(n, e)]
        mat = Matrix.from_rows([[v[i] for v in candidate] for i in range(n)])
        if rank(mat) == len(candidate):
            cols.append(basis_vec(n, e))
    t = Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])
    return change_basis(d, t), t


def change_basis(d: LieAlgebra, t: Matrix) -> LieAlgebra:
    """Structure constants in the basis whose old coordinates are t's columns:
    c'(i, j) = T^-1 [T e_i, T e_j]."""
    n = d.dim
    cols = [t.col(j) for j in range(n)]
    new_c = []
    for i in range(n):
        row = []
        for j in range(n):
            br = d.bracket(cols[i], cols[j])
            coords = solve(t, br)
            if coords is None:
                raise ValueError("basis change matrix is singular")
            row.append(coords)
        new_c.append(row)
    return LieAlgebra(n, new_c)


class MatchedPairData:
    """Two Lie algebras acting on each other: nabla = A on B, delta = B on A."""

    __slots__ = ("a", "b", "nabla", "delta")

    def __init__(self, a: LieAlgebra, b: LieAlgebra, nabla, delta):
        self.a = a
        self.b = b
        self.nabla = list(nabla)
        self.delta = list(delta)
        if len(self.nabla) != a.dim or len(self.delta) != b.dim:
            raise ValueError("action count mismatch")
        for mats, n, what in ((self.nabla, b.dim, "nabla"),
                              (self.delta, a.dim, "delta")):
            if any(m.rows != n or m.cols != n for m in mats):
                raise ValueError("%s matrices must be %d x %d" % (what, n, n))


def _sum_algebra(m: MatchedPairData) -> LieAlgebra:
    """The bracket on A + B (A first): [X, Y] = -delta_Y X + nabla_X Y for X
    in A and Y in B, and the brackets of A and of B on their own blocks.  A
    zero coordinate is kept as it is, not negated."""
    na, nb = m.a.dim, m.b.dim
    n = na + nb
    c = [[None] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            c[i][j] = m.a.c[i][j] + [ZERO] * nb
    for i in range(nb):
        for j in range(nb):
            c[na + i][na + j] = [ZERO] * na + m.b.c[i][j]
    for i in range(na):
        for j in range(nb):
            vec = [-x if x else x for x in m.delta[j].col(i)] \
                + m.nabla[i].col(j)
            c[i][na + j] = vec
            c[na + j][i] = [-x if x else x for x in vec]
    return LieAlgebra(n, c)


# The law a Jacobi violation of the sum breaks, keyed by how many of the
# triple's indices lie in A and whether the residual coordinate lies in A.
# For X, X' in A and Y, Y' in B the A-part of Jacobi(X, X', Y) is the mixed
# delta law and its B-part the flatness of nabla; Jacobi(X, Y, Y') likewise.
_SUM_LAWS = {
    (3, True): "a_jacobi",
    (2, True): "mixed_delta",
    (2, False): "nabla_flatness",
    (1, True): "delta_flatness",
    (1, False): "mixed_nabla",
    (0, False): "b_jacobi",
}


def _law_report(d: LieAlgebra, na: int) -> Report:
    """validate_lie_algebra on a sum algebra, each entry named by the law it
    breaks; locations are sum indices."""
    report = Report("matched_pair")
    for entry in validate_lie_algebra(d).entries:
        loc = entry["location"]
        if entry["check"] == "antisymmetry":
            law = "a_antisymmetry" if loc[0] < na else "b_antisymmetry"
        else:
            law = _SUM_LAWS[sum(x < na for x in loc[:3]), loc[3] < na]
        report.add(law, loc, entry["residual"])
    return report


def check_matched_pair(m: MatchedPairData) -> Report:
    """The matched-pair laws, checked as the Jacobi identity of the sum.

    Both brackets are Lie, both actions are flat and the two mixed
    compatibility laws hold exactly when the bracket on A + B is a Lie
    bracket (Majid, Pacific J. Math. 141 (1990); Mokri, Glasgow Math. J. 39
    (1997)), so the sum is validated once and each violation is named by
    the law its block belongs to.
    """
    return _law_report(_sum_algebra(m), m.a.dim)


def matched_sum(m: MatchedPairData) -> LiePair:
    """The Lie algebra on A + B defined by a matched pair, as a pair with g = A."""
    d = _sum_algebra(m)
    report = _law_report(d, m.a.dim)
    if not report.ok:
        raise MatchedPairAxiomsFail(report.entries[0])
    return LiePair(d, m.a.dim)


def pair_to_matched(pair: LiePair) -> MatchedPairData:
    """Split a pair whose complement is itself a subalgebra into matched data."""
    na, nb = pair.dim_g, pair.dim_b
    d = pair.d
    for i in range(nb):
        for j in range(nb):
            head = d.c[na + i][na + j][:na]
            if not vec_is_zero(head):
                raise SubalgebraNotClosed(
                    "complement bracket (%d, %d) has a subalgebra component" % (i, j)
                )
    a_alg = pair.g_algebra()
    b_c = [[d.c[na + i][na + j][na:] for j in range(nb)] for i in range(nb)]
    b_alg = LieAlgebra(nb, b_c)
    nabla = [d.ad(x, na, d.dim) for x in range(na)]
    delta = [d.ad(na + y, 0, na) for y in range(nb)]
    return MatchedPairData(a_alg, b_alg, nabla, delta)


def bialgebra_pair(g: LieAlgebra, cobracket) -> MatchedPairData:
    """Matched pair (g, g*) from a cobracket delta: g -> Lambda^2 g.

    ``cobracket[i]`` is an antisymmetric dim x dim Matrix M with
    delta(x_i) = sum_{j<k} M[j,k] x_j ^ x_k.  The dual bracket must satisfy
    Jacobi and the two actions (both coadjoint) must satisfy the matched-pair
    laws; otherwise NotABialgebra is raised.
    """
    n = g.dim
    if len(cobracket) != n:
        raise ValueError("need one cobracket matrix per basis vector")
    for m in cobracket:
        if m.rows != n or m.cols != n:
            raise NotABialgebra("cobracket matrices must be dim x dim")
        if not (m + m.transpose()).is_zero():
            raise NotABialgebra("cobracket matrices must be antisymmetric")
    # Dual bracket: [x*_j, x*_k] = sum_i cobracket[i][j,k] x*_i.
    dual_c = [[[cobracket[i][j, k] for i in range(n)] for k in range(n)]
              for j in range(n)]
    g_star = LieAlgebra(n, dual_c)
    # nabla_X = coadjoint action of g on g*; delta_alpha = coadjoint of g* on
    # g.  The sum's g*-block triples are the Jacobi identity of g*.
    nabla = [-g.ad(i).transpose() for i in range(n)]
    delta = [-g_star.ad(i).transpose() for i in range(n)]
    data = MatchedPairData(g, g_star, nabla, delta)
    report = check_matched_pair(data)
    if not report.ok:
        raise NotABialgebra(report.entries[0])
    return data


# -- hand-built pairs ----------------------------------------------------------


def sl2_pair():
    """The rank-one pair on the 3-dim simple algebra, basis (h, e, f), g = <h, e>.

    Returns (pair, modules) with modules B, B* and Hom(B (x) B, B).
    """
    c = {
        (0, 1): [0, 2, 0],    # [h, e] = 2e
        (0, 2): [0, 0, -2],   # [h, f] = -2f
        (1, 2): [1, 0, 0],    # [e, f] = h
    }
    d = LieAlgebra.from_brackets(3, c)
    pair = make_pair(d, 2)
    b = pair.quotient_module()
    modules = {
        "B": b,
        "B_dual": dual_module(b),
        "hom_bb_b": tensor_module(dual_module(b), dual_module(b), b),
    }
    return pair, modules


def sl2_pair_swapped():
    """Same algebra ordered (h, f, e) with g = <h, f>, so B is spanned by e."""
    c = {
        (0, 1): [0, -2, 0],   # [h, f] = -2f
        (0, 2): [0, 0, 2],    # [h, e] = 2e
        (1, 2): [-1, 0, 0],   # [f, e] = -h
    }
    d = LieAlgebra.from_brackets(3, c)
    return make_pair(d, 2)


def sl2_borel_pair():
    """The 3-dim simple algebra with the 1-dim Cartan subalgebra <h>."""
    c = {
        (0, 1): [0, 2, 0],
        (0, 2): [0, 0, -2],
        (1, 2): [1, 0, 0],
    }
    d = LieAlgebra.from_brackets(3, c)
    return make_pair(d, 1)


def heisenberg_pair():
    """3-dim two-step nilpotent algebra, basis (z, x, y), [x, y] = z, g = <z>."""
    c = {(1, 2): [1, 0, 0]}
    d = LieAlgebra.from_brackets(3, c)
    return make_pair(d, 1)


def affine_pair():
    """2-dim non-abelian algebra [x, y] = y with g = <x>."""
    d = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    return make_pair(d, 1)


# -- unitary / triangular matched pair ----------------------------------------


def _upper(n):
    """The positions (k, l) above the diagonal of an n x n matrix."""
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def _unit_basis(n):
    """The bases of u(n), then t(n), each matrix as its nonzero entries
    [(row, col, re, im)], at most two: i E_kk, E_kl - E_lk, i (E_kl + E_lk),
    then E_kk, E_kl, i E_kl, for k < l."""
    upper = _upper(n)
    return ([[(k, k, 0, 1)] for k in range(n)]
            + [[(k, l, 1, 0), (l, k, -1, 0)] for k, l in upper]
            + [[(k, l, 0, 1), (l, k, 0, 1)] for k, l in upper]
            + [[(k, k, 1, 0)] for k in range(n)]
            + [[(k, l, 1, 0)] for k, l in upper]
            + [[(k, l, 0, 1)] for k, l in upper])


def _product(x, y, sign=1, z=None):
    """z + sign * xy for matrices x, y given by their entries (see
    _unit_basis), z a map (row, col) -> [re, im] (empty by default) that is
    updated in place."""
    z = {} if z is None else z
    for r, m, xr, xi in x:
        for m2, c, yr, yi in y:
            if m == m2:
                part = z.setdefault((r, c), [0, 0])
                part[0] += sign * (xr * yr - xi * yi)
                part[1] += sign * (xr * yi + xi * yr)
    return z


def _ut_coords(n, z):
    """The coordinates of a matrix z (see _product) in the basis of
    u(n) + t(n): z = U + T with U anti-Hermitian and T upper triangular with
    a real diagonal.  The u(n) part takes Im z_kk and, for k < l, -Re z_lk
    and Im z_lk; the t(n) part takes Re z_kk, Re (z_kl + z_lk) and
    Im (z_kl - z_lk)."""
    nn = n * n
    p = n * (n - 1) // 2
    q = {kl: n + at for at, kl in enumerate(_upper(n))}
    out = [0] * (2 * nn)
    for (r, c), (re, im) in z.items():
        if r == c:
            out[r] += im
            out[nn + r] += re
        elif r < c:
            out[nn + q[r, c]] += re
            out[nn + p + q[r, c]] += im
        else:
            at = q[c, r]
            out[at] -= re
            out[p + at] += im
            out[nn + at] += re
            out[nn + p + at] -= im
    return [GaussScalar(x) if x else ZERO for x in out]


class UnitaryTriangularPair:
    """Matched pair of the unitary and triangular real forms, plus the
    multiplication connection nabla_X Y = XY on the triangular side."""

    __slots__ = ("matched", "pair", "module_b", "conn_mult", "conn_zero")

    def __init__(self, matched, pair, conn_mult):
        self.matched = matched
        self.pair = pair
        self.module_b = pair.quotient_module()
        self.conn_mult = conn_mult
        self.conn_zero = extend_by_zero(pair, self.module_b)


def gl_un_tn(n: int) -> UnitaryTriangularPair:
    """Real matched pair decomposing the n x n complex matrix algebra.

    The bracket on u(n) + t(n) is the matrix commutator split into its two
    parts, formed on the basis matrices' nonzero entries; the matched-pair
    data are read off that table."""
    if n not in (2, 3):
        raise ValueError("pinned to n in {2, 3}")
    basis = _unit_basis(n)
    nn = n * n
    c = [[_ut_coords(n, _product(y, x, -1, _product(x, y))) for y in basis]
         for x in basis]
    matched = pair_to_matched(LiePair(LieAlgebra(len(basis), c), nn))
    pair = matched_sum(matched)
    module_b = pair.quotient_module()
    # gamma_y z = yz on t(n): its t(n) coordinates, the last n^2
    tb = basis[nn:]
    gamma = []
    for y in tb:
        cols = [_ut_coords(n, _product(y, z))[nn:] for z in tb]
        gamma.append(Matrix.from_rows(
            [[cols[z][k] for z in range(nn)] for k in range(nn)]))
    conn = Connection(pair, module_b, list(module_b.action) + gamma)
    return UnitaryTriangularPair(matched, pair, conn)


# -- bialgebras ----------------------------------------------------------------


def affine_bialgebra() -> MatchedPairData:
    """2-dim algebra [x, y] = y with the standard nontrivial cobracket
    delta(x) = 0, delta(y) = x ^ y."""
    g = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    m_x = Matrix.zeros(2, 2)
    m_y = Matrix.from_rows([[ZERO, ONE], [GaussScalar(-1), ZERO]])
    return bialgebra_pair(g, [m_x, m_y])


def zero_cobracket_bialgebra(g: LieAlgebra) -> MatchedPairData:
    """Semidirect-type matched pair: the dual is abelian, one action coadjoint."""
    zero = Matrix.zeros(g.dim, g.dim)
    return bialgebra_pair(g, [zero] * g.dim)


# -- coefficient algebras -------------------------------------------------------


def unit_algebra(dim_g: int) -> GAlgebra:
    """The ground field as a one-dimensional algebra with zero action."""
    return GAlgebra(trivial_module(dim_g, 1), {(0, 0): [(0, ONE)]})


def dual_numbers_algebra(dim_g: int) -> GAlgebra:
    """Basis (1, eps) with eps^2 = 0 and zero action."""
    return GAlgebra(trivial_module(dim_g, 2), {
        (0, 0): [(0, ONE)], (0, 1): [(1, ONE)], (1, 0): [(1, ONE)]})


def weighted_dual_numbers(pair: LiePair, weights) -> GAlgebra:
    """Dual numbers where the subalgebra scales eps by a character.

    The character must kill the derived subalgebra for the action to be flat;
    the GAlgebra validators re-check everything downstream.
    """
    action = [Matrix.from_rows([[ZERO, ZERO], [ZERO, GaussScalar(weights[a])]])
              for a in range(pair.dim_g)]
    return GAlgebra(GModule(2, action),
                    dual_numbers_algebra(pair.dim_g).mult)


# -- seeded random fixtures ------------------------------------------------------


def _unimodular(rng, n):
    """Product of seeded integer shears and signed swaps; determinant +-1."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        kind = rng.randint(0, 2)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind < 2 and i != j:
            f = GaussScalar(rng.randint(-2, 2))
            for c in range(n):
                m.data[i * n + c] = m.data[i * n + c] + f * m.data[j * n + c]
        elif i != j:
            for c in range(n):
                m.data[i * n + c], m.data[j * n + c] = \
                    -m.data[j * n + c], m.data[i * n + c]
    return m


def _catalog():
    entries = [
        ("sl2", lambda: sl2_pair()[0]),
        ("sl2_swapped", sl2_pair_swapped),
        ("sl2_borel", sl2_borel_pair),
        ("heisenberg", heisenberg_pair),
        ("affine", affine_pair),
        ("affine_bialgebra_sum", lambda: matched_sum(affine_bialgebra())),
        ("sl2_plus_center", _sl2_plus_center),
    ]
    return entries


def _sl2_plus_center():
    c = {
        (0, 1): [0, 2, 0, 0],
        (0, 2): [0, 0, -2, 0],
        (1, 2): [1, 0, 0, 0],
    }
    return make_pair(LieAlgebra.from_brackets(4, c), 2)


def random_pair(seed: int) -> LiePair:
    """Deterministic valid pair: catalogue template + seeded basis scramble."""
    rng = random.Random(seed)
    name, builder = _catalog()[rng.randrange(len(_catalog()))]
    pair = builder()
    n, m = pair.dim_d, pair.dim_g
    p_block = _unimodular(rng, m) if m else Matrix(0, 0, [])
    q_block = _unimodular(rng, n - m) if n - m else Matrix(0, 0, [])
    t = Matrix.identity(n)
    for i in range(m):
        for j in range(m):
            t.data[i * n + j] = p_block[i, j]
    for i in range(n - m):
        for j in range(n - m):
            t.data[(m + i) * n + (m + j)] = q_block[i, j]
    for i in range(m):
        for j in range(n - m):
            t.data[i * n + (m + j)] = GaussScalar(rng.randint(-2, 2))
    return LiePair(change_basis(pair.d, t), m)


def random_extension(pair: LiePair, module: GModule, seed: int) -> Connection:
    """Connection whose complement slots carry seeded small Gaussian entries."""
    rng = random.Random(seed)
    mats = list(module.action)
    for _ in range(pair.dim_b):
        entries = [GaussScalar(rng.randint(-2, 2), rng.randint(-1, 1))
                   for _ in range(module.dim * module.dim)]
        mats.append(Matrix(module.dim, module.dim, entries))
    return Connection(pair, module, mats)


def random_module(pair: LiePair, dim: int, seed: int) -> GModule:
    """Flat module built from characters annihilating the derived subalgebra."""
    rng = random.Random(seed)
    m = pair.dim_g
    g = pair.g_algebra()
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            rows.append(g.c[i][j])
    if rows:
        char_space = nullspace_basis(Matrix.from_rows(rows))
    else:
        char_space = [[ONE if t == s else ZERO for s in range(m)]
                      for t in range(m)]
    weights = []
    for _ in range(dim):
        w = zero_vec(m)
        if char_space:
            for basis_vec_ in char_space:
                c = GaussScalar(rng.randint(-2, 2))
                w = [x + c * y for x, y in zip(w, basis_vec_)]
        weights.append(w)
    action = []
    for a in range(m):
        mat = Matrix.zeros(dim, dim)
        for t in range(dim):
            mat.data[t * dim + t] = weights[t][a]
        action.append(mat)
    return GModule(dim, action)
