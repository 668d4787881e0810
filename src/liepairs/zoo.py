"""Built-in example pairs and deterministic random fixture generators.

Random pairs are produced by conjugating a catalogued pair with a seeded
block-triangular unimodular basis change, so the Jacobi identity holds by
construction while the complement (and hence every splitting tensor) varies.
"""

from __future__ import annotations

import random

from .atiyah import Connection, extend_by_zero
from .lie_core import (
    GAlgebra,
    GModule,
    LieAlgebra,
    LiePair,
    MatchedPairData,
    bialgebra_pair,
    change_basis,
    dual_module,
    make_pair,
    matched_sum,
    pair_to_matched,
    tensor_module,
    trivial_module,
)
from .linalg import Matrix, nullspace_basis, zero_vec
from .scalars import GaussScalar, ONE, ZERO


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


def _matrix_units(n):
    def unit(r, c, scalar=ONE):
        m = Matrix.zeros(n, n)
        m.data[r * n + c] = scalar
        return m
    return unit


def _upper(n):
    """The positions (k, l) above the diagonal of an n x n matrix."""
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def _u_basis(n):
    unit = _matrix_units(n)
    i = GaussScalar(0, 1)
    return ([unit(k, k, i) for k in range(n)]
            + [unit(k, l) - unit(l, k) for k, l in _upper(n)]
            + [unit(k, l, i) + unit(l, k, i) for k, l in _upper(n)])


def _t_basis(n):
    unit = _matrix_units(n)
    i = GaussScalar(0, 1)
    return ([unit(k, k) for k in range(n)]
            + [unit(k, l) for k, l in _upper(n)]
            + [unit(k, l, i) for k, l in _upper(n)])


def _split_anti_hermitian(z: Matrix):
    """Z = U + T with U anti-Hermitian and T upper triangular, real diagonal."""
    n = z.rows
    u = Matrix.zeros(n, n)
    for k in range(n):
        for l in range(n):
            if k > l:
                u.data[k * n + l] = z[k, l]
            elif k < l:
                u.data[k * n + l] = -(z[l, k].conjugate())
            else:
                u.data[k * n + l] = GaussScalar(0, z[k, k].im)
    return u, z - u


def _u_coords(n, u: Matrix):
    return [GaussScalar(u[k, k].im) for k in range(n)] + _upper_coords(n, u)


def _t_coords(n, t: Matrix):
    return [GaussScalar(t[k, k].re) for k in range(n)] + _upper_coords(n, t)


def _upper_coords(n, m: Matrix):
    """The real parts of m's entries above the diagonal, then their
    imaginary parts: the off-diagonal coordinates in either basis."""
    return ([GaussScalar(m[k, l].re) for k, l in _upper(n)]
            + [GaussScalar(m[k, l].im) for k, l in _upper(n)])


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
    parts; the matched-pair data are read off that table."""
    if n not in (2, 3):
        raise ValueError("pinned to n in {2, 3}")
    tb = _t_basis(n)
    nb = len(tb)
    basis = _u_basis(n) + tb
    c = [[_u_coords(n, u) + _t_coords(n, t)
          for u, t in (_split_anti_hermitian(x.commutator(y)) for y in basis)]
         for x in basis]
    matched = pair_to_matched(LiePair(LieAlgebra(len(basis), c), n * n))
    pair = matched_sum(matched)
    module_b = pair.quotient_module()
    gamma = []
    for y in range(nb):
        cols = [_t_coords(n, tb[y] @ tb[z]) for z in range(nb)]
        gamma.append(Matrix.from_rows(
            [[cols[z][k] for z in range(nb)] for k in range(nb)]))
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
