import random

from fractions import Fraction

import pytest

from liepairs.atiyah import (
    cohomology_dim,
    diff_matrix,
    nullspace_basis,
    rank,
    rref,
    solve,
)
from liepairs.lie_core import end_module
import liepairs.linalg as linalg
from liepairs.linalg import Matrix, vec_is_zero
from liepairs.scalars import GaussScalar, I, ONE, ZERO, as_scalar
from liepairs.zoo import (
    affine_bialgebra,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    random_module,
    random_pair,
    sl2_pair,
)
from oracles import augmented, rref_rank, rref_solve


def mat(rows):
    return Matrix.from_rows([[GaussScalar(x) if not isinstance(x, GaussScalar) else x
                              for x in row] for row in rows])


def column_space_contains(m, vec):
    """Exact membership certificate: rank([m | vec]) == rank(m) (test oracle)."""
    return rank(augmented(m, list(vec))) == rank(m)


def rand_matrix(rng, r, c):
    return Matrix(r, c, [GaussScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                     Fraction(rng.randint(-2, 2)))
                         for _ in range(r * c)])


def test_rref_identity():
    m = Matrix.identity(2)
    red, pivots, rk = rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rk == 2


def test_rref_zero():
    m = Matrix.zeros(3, 3)
    red, pivots, rk = rref(m)
    assert red == m
    assert pivots == ()
    assert rk == 0


def test_rref_complex_rank_one():
    # Hand elimination: row2 - i*row1 kills the second row.
    m = mat([[ONE, I], [I, GaussScalar(-1)]])
    red, pivots, rk = rref(m)
    assert rk == 1
    assert pivots == (0,)
    assert red.row(0) == [ONE, I]
    assert vec_is_zero(red.row(1))


def test_solve_identity():
    v = [GaussScalar(3), GaussScalar(-1, 2)]
    assert solve(Matrix.identity(2), v) == v


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), [ONE, ZERO]) is None


def test_solve_free_variables_deterministic():
    m = mat([[2, 0], [0, 0]])
    assert solve(m, [ONE, ZERO]) == [GaussScalar(Fraction(1, 2)), ZERO]


def test_nullspace_examples():
    assert nullspace_basis(Matrix.identity(3)) == []
    basis = nullspace_basis(Matrix.zeros(2, 2))
    assert basis == [[ONE, ZERO], [ZERO, ONE]]
    basis = nullspace_basis(mat([[1, 1]]))
    assert basis == [[GaussScalar(-1), ONE]]


def test_rank_nullity_on_random_matrices():
    rng = random.Random(13)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert rank(m) + len(nullspace_basis(m)) == c
        for v in nullspace_basis(m):
            assert vec_is_zero(m.apply(v))


def test_solve_certificate_on_random_systems():
    rng = random.Random(17)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = rand_matrix(rng, r, c)
        rhs = [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(r)]
        x = solve(m, rhs)
        if x is None:
            assert not column_space_contains(m, rhs)
        else:
            assert m.apply(x) == rhs


def test_matrix_products_and_trace():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b) == mat([[2, 1], [4, 3]])
    assert a.commutator(b) == mat([[-1, -3], [3, 1]])
    assert a.trace() == GaussScalar(5)
    assert a.transpose() == mat([[1, 3], [2, 4]])


def test_arithmetic_results_match_the_coercing_constructor():
    # the arithmetic paths skip as_scalar on entries that are GaussScalars
    # already; each result must equal the matrix the public constructor
    # builds from the same entries, and hold GaussScalars only
    rng = random.Random(11)
    a, b = rand_matrix(rng, 3, 4), rand_matrix(rng, 3, 4)
    c = rand_matrix(rng, 4, 2)
    results = [a + b, a - b, -a, a.scale(2), a.scale(GaussScalar(0, 1)),
               a @ c, Matrix.zeros(2, 3), Matrix.identity(3), rref(a)[0],
               rref(Matrix(0, 3, []))[0]]
    for m in results:
        assert all(isinstance(x, GaussScalar) for x in m.data)
        assert m == Matrix(m.rows, m.cols, list(m.data))
    assert (a + b) - b == a and -(-a) == a
    assert a.scale(2) == a + a


def dense_rref(m):
    """Oracle: the dense-row elimination that rref's zero-skipping loop replaced."""
    work = [list(m.row(r)) for r in range(m.rows)]
    pivots = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for r in range(lead, m.rows):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        inv = ONE / work[lead][col]
        work[lead] = [inv * x for x in work[lead]]
        for r in range(m.rows):
            if r != lead and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    flat = [x for row in work for x in row]
    out = Matrix(m.rows, m.cols, flat) if m.rows else Matrix(0, m.cols, [])
    return out, tuple(pivots), len(pivots)


def _diff_cases():
    """(pair, module, k, l) for every differential the rref oracles check."""
    pair, modules = sl2_pair()
    cases = [(pair, modules[name]) for name in ("B", "B_dual", "hom_bb_b")]
    u2t2 = gl_un_tn(2).pair
    cases += [(u2t2, u2t2.quotient_module())]
    cases += [(u2t2, end_module(random_module(u2t2, dim, 1))) for dim in (2, 3)]
    heis = heisenberg_pair()
    cases.append((heis, heis.quotient_module()))
    bialg = matched_sum(affine_bialgebra())
    cases.append((bialg, bialg.quotient_module()))
    for seed in (1, 2, 6, 7):
        rpair = random_pair(seed)
        cases += [(rpair, rpair.quotient_module()),
                  (rpair, end_module(random_module(rpair, 2, seed)))]
    for pair, module in cases:
        for k in range(pair.dim_g + 1):
            for l in (0, 1):
                yield pair, module, k, l


def _diff_matrices():
    for case in _diff_cases():
        yield diff_matrix(*case)


def _sparse_entry(rng):
    if rng.random() < 0.6:
        return ZERO
    return GaussScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _deficient_matrix(rng):
    """A sparse Gaussian-rational product of rank <= inner, with zero rows."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    inner = rng.randint(0, min(rows, cols))
    left = Matrix(rows, inner, [_sparse_entry(rng) for _ in range(rows * inner)])
    right = Matrix(inner, cols, [_sparse_entry(rng) for _ in range(inner * cols)])
    m = left @ right
    for r in rng.sample(range(rows), rng.randint(0, rows // 2)):
        m.data[r * cols:(r + 1) * cols] = [ZERO] * cols
    return m


def test_rref_matches_dense_oracle_on_diff_matrices():
    cells = 0
    for m in _diff_matrices():
        assert rref(m) == dense_rref(m)
        cells = max(cells, m.rows * m.cols)
    assert cells >= 216 * 144


def test_rref_matches_dense_oracle_on_random_matrices():
    rng = random.Random(29)
    ranks = set()
    for _ in range(300):
        m = _deficient_matrix(rng)
        got = rref(m)
        assert got == dense_rref(m)
        ranks.add(got[2] < min(m.rows, m.cols))
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rref(m) == dense_rref(m)
    assert ranks == {True, False}


def test_rref_and_cohomology_match_sympy_over_gaussian_rationals():
    # an independent exact engine: SymPy's matrices over QQ_I (test-only)
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def sympy_rref(m):
        rows = [[QQ_I(x.re, x.im) for x in m.row(r)] for r in range(m.rows)]
        return DomainMatrix(rows, (m.rows, m.cols), QQ_I).rref()[1]

    rank_below = {}  # l -> rank of d_(k-1) on the current (pair, module)
    checked = 0
    for pair, module, k, l in _diff_cases():
        m = diff_matrix(pair, module, k, l)
        pivots = tuple(sympy_rref(m)) if m.rows else ()
        assert rref(m)[1:] == (pivots, len(pivots)), (k, l)
        expected = m.cols - len(pivots) - (rank_below[l] if k else 0)
        assert cohomology_dim(pair, module, k, l) == expected, (k, l)
        rank_below[l] = len(pivots)
        checked += 1
    assert checked == 102


def _sparse_system(rng):
    """A sparse Gaussian-rational matrix, rank-deficient or random, with zero
    rows and repeated rows, and two right-hand sides: one in its column
    space and one random."""
    if rng.random() < 0.5:
        m = _deficient_matrix(rng)
    else:
        rows, cols = rng.randint(3, 10), rng.randint(3, 10)
        m = Matrix(rows, cols, [_sparse_entry(rng) for _ in range(rows * cols)])
        m.data[:cols] = [ZERO] * cols
    for _ in range(rng.randint(0, 2)):
        src, dst = rng.randrange(m.rows), rng.randrange(m.rows)
        m.data[dst * m.cols:(dst + 1) * m.cols] = m.row(src)
    exact = m.apply([_sparse_entry(rng) for _ in range(m.cols)])
    return m, exact, [_sparse_entry(rng) for _ in range(m.rows)]


def test_sparse_eliminator_matches_rref_on_random_sparse_systems():
    # rank and solve against the rref-based pair they replaced, on 50 seeded
    # systems with Gaussian and non-integral entries, zero and repeated rows
    rng = random.Random(41)
    inconsistent = repeated = 0
    for _ in range(50):
        m, exact, other = _sparse_system(rng)
        assert rank(m) == rref_rank(m)
        assert solve(m, exact) == rref_solve(m, exact) is not None
        x = solve(m, other)
        assert x == rref_solve(m, other)
        inconsistent += x is None
        rows = [tuple(m.row(r)) for r in range(m.rows)]
        repeated += len(set(rows)) < len(rows)
    assert inconsistent >= 10 and repeated >= 10, (inconsistent, repeated)


def test_constructor_keeps_scalars_and_coerces_the_rest(monkeypatch):
    # an entry that is a GaussScalar already is taken as it is, without a
    # call to as_scalar; ints and Fractions are coerced, and anything else
    # is refused
    coerced = []
    monkeypatch.setattr(linalg, "as_scalar", lambda x: coerced.append(x)
                        or as_scalar(x))
    entries = [GaussScalar(2, -1), ZERO, GaussScalar(Fraction(1, 3))]
    m = Matrix(1, 3, entries)
    assert all(x is y for x, y in zip(m.data, entries))
    assert m.data is not entries and coerced == []
    m = Matrix(1, 3, [2, Fraction(-1, 2), Fraction(4, 2)])
    assert m.data == [GaussScalar(2), GaussScalar(Fraction(-1, 2)),
                      GaussScalar(2)]
    assert all(x.__class__ is GaussScalar for x in m.data)
    for bad in (1.5, "1", None, 1j):
        with pytest.raises(TypeError):
            Matrix(1, 2, [ONE, bad])
