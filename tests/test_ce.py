import random

from fractions import Fraction
from math import comb

import pytest

from liepairs.atiyah import (
    coboundary_primitive,
    cohomology_dim,
    cohomology_representatives,
    diff_matrix,
    rank,
    solve,
)
from liepairs.ce import Cochain, _add_permuted, ce_diff, is_cocycle
from liepairs.homotopy import build_tower, symmetry_report
from liepairs.lie_core import (
    LieAlgebra,
    dual_module,
    end_module,
    make_pair,
    trivial_module,
)
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import (
    affine_bialgebra,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    random_module,
    random_pair,
    sl2_borel_pair,
    sl2_pair,
    sl2_pair_swapped,
)
from oracles import (
    apply,
    augmented,
    dense_ce_diff,
    dense_diff_matrix,
    replaced_cohomology_representatives,
    rref_rank,
    rref_solve,
    scatter_into,
)


def euler_characteristic(pair, module, l=0):
    """Alternating sum of the cohomology dimensions (test oracle)."""
    return sum((-1) ** k * cohomology_dim(pair, module, k, l)
               for k in range(pair.dim_g + 1))


def rand_cochain(rng, pair, module, k, l):
    w = Cochain(pair, module, k, l)
    return Cochain(pair, module, k, l,
                   [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in w.data])


def test_zero_cochain_over_abelian_trivial():
    pair = make_pair(LieAlgebra.zero(3), 2)
    w = Cochain(pair, trivial_module(2, 1), 0, 0, [ONE])
    assert ce_diff(w).is_zero()


def test_sl2_theta_differential_golden():
    pair, modules = sl2_pair()
    hom = modules["hom_bb_b"]
    theta = Cochain(pair, hom, 0, 0, [ONE])
    d_theta = ce_diff(theta)
    # d(theta) = 2 h* (x) theta: the h-component is 2, the e-component is 0
    assert d_theta.get((0,), (), 0) == GaussScalar(2)
    assert d_theta.get((1,), (), 0) == ZERO


def test_d_squared_zero_everywhere():
    rng = random.Random(3)
    cases = []
    pair, modules = sl2_pair()
    cases.append((pair, modules["hom_bb_b"], 0, 0))
    cases.append((pair, modules["B"], 0, 2))
    cases.append((pair, modules["B_dual"], 1, 1))
    fixture = gl_un_tn(2)
    cases.append((fixture.pair, fixture.module_b, 1, 1))
    for seed in (1, 2):
        rpair = random_pair(seed)
        cases.append((rpair, rpair.quotient_module(), 0, 1))
        cases.append((rpair, random_module(rpair, 2, seed), 1, 0))
    for pair_, module, k, l in cases:
        for _ in range(3):
            w = rand_cochain(rng, pair_, module, k, l)
            assert ce_diff(ce_diff(w)).is_zero()


def test_sl2_cocycles_and_primitives():
    pair, modules = sl2_pair()
    hom = modules["hom_bb_b"]
    # w = h* (x) theta has primitive theta / 2
    w = Cochain(pair, hom, 1, 0)
    w.set((0,), (), 0, ONE)
    phi = coboundary_primitive(w)
    assert phi is not None
    assert phi.get((), (), 0) == GaussScalar(1) / GaussScalar(2)
    assert ce_diff(phi) == w
    # w = e* (x) theta is a cocycle with no primitive
    w2 = Cochain(pair, hom, 1, 0)
    w2.set((1,), (), 0, ONE)
    assert is_cocycle(w2)
    assert coboundary_primitive(w2) is None
    # rank certificate for the failure: w2 is outside the column space
    mat = diff_matrix(pair, hom, 0, 0)
    assert rank(augmented(mat, list(w2.data))) > rank(mat)


def test_primitive_of_zero():
    pair, modules = sl2_pair()
    z = Cochain(pair, modules["B"], 1, 0)
    phi = coboundary_primitive(z)
    assert phi is not None and phi.is_zero()


def test_cohomology_dims_trivial_module_abelian():
    for n in (1, 2, 3):
        pair = make_pair(LieAlgebra.zero(n), n)
        for k in range(n + 1):
            assert cohomology_dim(pair, trivial_module(n, 1), k) == comb(n, k)


def test_cohomology_vanishes_above_the_top_degree():
    # no cochains above degree dim g, so no cohomology; a negative degree is
    # still an error
    for n in (0, 1, 2):
        pair = make_pair(LieAlgebra.zero(n + 1), n)
        module = trivial_module(n, 1)
        for l in (0, 1):
            assert cohomology_dim(pair, module, n + 1, l) == 0
            assert cohomology_dim(pair, module, n + 2, l) == 0
        with pytest.raises(ValueError):
            cohomology_dim(pair, module, -1)


def test_sl2_obstruction_cohomology_golden():
    pair, modules = sl2_pair()
    hom = modules["hom_bb_b"]
    assert cohomology_dim(pair, hom, 0) == 0
    assert cohomology_dim(pair, hom, 1) == 1
    dim, reps = cohomology_representatives(pair, hom, 1)
    assert dim == 1
    assert is_cocycle(reps[0])
    assert coboundary_primitive(reps[0]) is None


def test_euler_characteristic_vanishes():
    pair, modules = sl2_pair()
    assert euler_characteristic(pair, modules["hom_bb_b"]) == 0
    hpair = heisenberg_pair()
    assert euler_characteristic(hpair, hpair.quotient_module()) == 0
    # matches the alternating binomial sum identity
    expected = sum((-1) ** k * comb(pair.dim_g, k) * 1
                   for k in range(pair.dim_g + 1))
    assert expected == 0


def test_permute_b_args():
    rng = random.Random(9)
    fixture = gl_un_tn(2)
    w = rand_cochain(rng, fixture.pair, fixture.module_b, 1, 2)
    swapped = w.permute_b_args((1, 0))
    for gt, bt, e, c in w.iter_nonzero():
        assert swapped.get(gt, (bt[1], bt[0]), e) == c
    assert swapped.permute_b_args((1, 0)) == w


def test_data_is_a_dense_view_of_the_entries():
    rng = random.Random(4)
    fixture = gl_un_tn(2)
    pair, module = fixture.pair, fixture.module_b
    size = pair.dim_g * pair.dim_b ** 2 * module.dim
    fresh = Cochain(pair, module, 1, 2)
    assert len(fresh.data) == size and fresh.entries == {}
    assert all(fresh.data[pos] is ZERO for pos in range(size))
    # writes in scrambled order read back, and iterate, in flat order
    dense = [ZERO] * size
    w = Cochain(pair, module, 1, 2)
    for pos in rng.sample(range(size), size // 3):
        dense[pos] = GaussScalar(rng.randint(1, 3), rng.randint(-1, 1))
        w.data[pos] = dense[pos]
    assert list(w.data) == dense and w.data == dense
    assert [w.data[pos] for pos in range(size)] == dense
    assert w == Cochain(pair, module, 1, 2, dense)
    for pos in (size, size + 7, -1):
        with pytest.raises(IndexError):
            w.data[pos]
        with pytest.raises(IndexError):
            w.data[pos] = ONE
    assert list(w.data) == dense


def test_stored_zeros_are_ignored():
    fixture = gl_un_tn(2)
    pair, module = fixture.pair, fixture.module_b
    fresh = Cochain(pair, module, 1, 2)
    w = Cochain(pair, module, 1, 2)
    v = GaussScalar(2, -1)
    w.data[5] = w.data[5] + v
    assert w != fresh
    w.data[5] = w.data[5] - v
    assert 5 in w.entries  # a stored zero
    assert w == fresh and hash(w) == hash(fresh)
    assert w.is_zero() and w.first_nonzero() is None
    # a kernel sum that cancels stores nothing, and neither does +
    u = rand_cochain(random.Random(5), pair, module, 1, 2)
    u.data[0] = ONE
    assert not (u - u).entries
    scatter_into(u, _add_permuted, -u, (0, 1))
    assert not u.entries and u == fresh and hash(u) == hash(fresh)
    # the symmetry scan passes over them: a stored zero at the first flat
    # position of every level leaves its verdicts and witnesses unchanged
    tower = build_tower(pair, fixture.conn_mult, depth=4)
    expected = symmetry_report(tower)
    for level in tower.r.values():
        assert 0 not in level.entries
        level.data[0] = level.data[0] + v
        level.data[0] = level.data[0] - v
    assert symmetry_report(tower) == expected


def _oracle_cases():
    pair, modules = sl2_pair()
    cases = [(pair, modules[name]) for name in ("B", "B_dual", "hom_bb_b")]
    fixture = gl_un_tn(2)
    cases.append((fixture.pair, fixture.module_b))
    heis = heisenberg_pair()
    cases += [(heis, heis.quotient_module()), (heis, trivial_module(heis.dim_g, 1))]
    bialg = matched_sum(affine_bialgebra())
    cases.append((bialg, bialg.quotient_module()))
    for seed in (1, 2, 6, 7):
        rpair = random_pair(seed)
        cases += [(rpair, rpair.quotient_module()),
                  (rpair, random_module(rpair, 2, seed))]
    return cases


def test_sparse_differential_matches_dense_oracle():
    # Every column goes through ce_diff and diff_matrix; at most 64 random
    # columns per (k, l) also go through the slow oracle, and random dense
    # inputs compare the whole operator.
    rng = random.Random(17)
    for pair, module in _oracle_cases():
        for k in range(pair.dim_g + 1):
            for l in range(3):
                mat = diff_matrix(pair, module, k, l)
                size = len(Cochain(pair, module, k, l).data)
                assert mat.cols == size
                assert mat.rows == len(Cochain(pair, module, k + 1, l).data)
                checked = set(rng.sample(range(size), min(size, 64)))
                for col in range(size):
                    basis = Cochain(pair, module, k, l)
                    basis.data[col] = ONE
                    image = ce_diff(basis).data
                    assert mat.col(col) == image
                    if col in checked:
                        assert image == dense_ce_diff(basis).data
                for _ in range(2):
                    w = rand_cochain(rng, pair, module, k, l)
                    expected = dense_ce_diff(w).data
                    assert ce_diff(w).data == expected
                    assert apply(mat, w.data) == expected


# The dense path below runs on the 389 differentials of at most this many
# cells, and on the two every u2t2 atiyah --module B job eliminates: d_0 and
# d_1 with values in B* (x) End(B), 256 x 64 and 384 x 256.  On the larger
# ones, mostly wide, the dense rref takes 0.3-2 s each.
DENSE_PATH_CELLS = 12_000


def _dense_path_cases():
    """(name, pair, module) for every zoo pair but gl(3), each with B, B*,
    End(B), a trivial module and a random flat module."""
    pairs = [("sl2", sl2_pair()[0]), ("sl2_borel", sl2_borel_pair()),
             ("sl2_swapped", sl2_pair_swapped()),
             ("heisenberg", heisenberg_pair()), ("u2t2", gl_un_tn(2).pair),
             ("affine", matched_sum(affine_bialgebra()))]
    pairs += [("random%d" % seed, random_pair(seed)) for seed in (1, 2, 6)]
    for name, pair in pairs:
        b = pair.quotient_module()
        for mname, module in (("B", b), ("B*", dual_module(b)),
                              ("End(B)", end_module(b)),
                              ("trivial", trivial_module(pair.dim_g, 1)),
                              ("random", random_module(pair, 2, 3))):
            yield "%s/%s" % (name, mname), pair, module


def test_cohomology_representatives_match_the_dense_kernel_path():
    # the kernel basis is eliminated from the sparse columns of the
    # differential, not read off the dense diff_matrix by nullspace_basis:
    # the same representatives, entry for entry, on every zoo pair but
    # gl(3), with B, B* and the trivial module, in every degree k <= dim g
    # on up to one B-slot: 162 cohomology groups, 152 representatives
    found = 0
    for name, pair, module in _dense_path_cases():
        if name.endswith(("/End(B)", "/random")):
            continue
        for k in range(pair.dim_g + 1):
            for l in range(2):
                dim, reps = cohomology_representatives(pair, module, k, l)
                expected = replaced_cohomology_representatives(pair, module,
                                                               k, l)
                assert (dim, [w.entries for w in reps]) == \
                    (expected[0], [w.entries for w in expected[1]]), \
                    (name, k, l)
                found += dim
    assert found == 152


def _gaussian_cochain(rng, pair, module, k, l):
    """A random cochain with Gaussian and non-integral values, a third of
    them zero."""
    size = Cochain(pair, module, k, l).size
    return Cochain(pair, module, k, l, [
        GaussScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    rng.randint(-1, 1)) if rng.random() < 0.67 else ZERO
        for _ in range(size)])


def test_sparse_cohomology_matches_the_replaced_dense_path():
    # the assembled differential, its rank, solve, the primitive and the
    # cohomology dimension against the dense loop and rref they replaced,
    # for k <= dim g and l <= 2; solve and the primitive see an exact and a
    # random right-hand side, which is inconsistent on most differentials
    rng = random.Random(23)
    checked = inconsistent = 0
    for name, pair, module in _dense_path_cases():
        rank_below = {}
        for k in range(pair.dim_g + 1):
            for l in range(3):
                rows = Cochain(pair, module, k + 1, l).size
                cols = Cochain(pair, module, k, l).size
                w = _gaussian_cochain(rng, pair, module, k, l)
                image = ce_diff(w)
                assert image == dense_ce_diff(w), (name, k, l)
                if rows * cols > DENSE_PATH_CELLS and not (
                        name == "u2t2/End(B)" and k < 2 and l == 1):
                    rank_below.pop(l, None)
                    continue
                mat = diff_matrix(pair, module, k, l)
                assert mat == dense_diff_matrix(pair, module, k, l)
                rk = rref_rank(mat)
                assert rank(mat) == rk, (name, k, l)
                for rhs in (image, _gaussian_cochain(rng, pair, module,
                                                     k + 1, l)):
                    x = rref_solve(mat, list(rhs.data))
                    assert solve(mat, list(rhs.data)) == x, (name, k, l)
                    assert coboundary_primitive(rhs) == (
                        None if x is None
                        else Cochain(pair, module, k, l, x)), (name, k, l)
                    inconsistent += x is None
                if k == 0 or l in rank_below:
                    assert cohomology_dim(pair, module, k, l) == \
                        cols - rk - rank_below.get(l, 0), (name, k, l)
                rank_below[l] = rk
                checked += 1
    assert checked >= 200 and inconsistent >= 50, (checked, inconsistent)
