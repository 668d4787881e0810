import random

from math import comb

import pytest

from liepairs.ce import (
    Cochain,
    ce_diff,
    coboundary_primitive,
    cohomology_dim,
    cohomology_representatives,
    diff_matrix,
    is_cocycle,
)
from liepairs.lie_core import LieAlgebra, make_pair, matched_sum, trivial_module
from liepairs.linalg import rank
from liepairs.multilinear import (
    exterior_basis,
    exterior_index,
    insert_with_sign,
    tensor_index,
    tensor_tuples,
)
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import (
    affine_bialgebra,
    gl_un_tn,
    heisenberg_pair,
    random_module,
    random_pair,
    sl2_pair,
)


def euler_characteristic(pair, module, l=0):
    """Alternating sum of the cohomology dimensions (test oracle)."""
    return sum((-1) ** k * cohomology_dim(pair, module, k, l)
               for k in range(pair.dim_g + 1))


def rand_cochain(rng, pair, module, k, l):
    w = Cochain(pair, module, k, l)
    w.data = [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1))
              for _ in w.data]
    return w


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
    assert rank(mat.augment(list(w2.data))) > rank(mat)


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


def dense_ce_diff(w: Cochain) -> Cochain:
    """Reference differential: for every output J, visit every input entry.

    This is the dense loop the sparse-input ce_diff replaced; it stays here
    as the oracle the fast path is checked against."""
    pair = w.pair
    n, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    out = Cochain(pair, w.module, w.k + 1, w.l)
    if w.k + 1 > n:
        return out
    rho_b = pair.quotient_module().action
    in_index = exterior_index(n, w.k)
    bts = tensor_tuples(nb, w.l)
    b_radix = nb ** w.l

    for J in exterior_basis(n, w.k + 1):
        out_gi = exterior_index(n, w.k + 1)[J]
        for m, a in enumerate(J):
            rest = J[:m] + J[m + 1 :]
            gi = in_index[rest]
            sign = -1 if m % 2 else 1
            rho_e = w.module.action[a]
            for bi, bt in enumerate(bts):
                base_in = (gi * b_radix + bi) * dim_e
                base_out = (out_gi * b_radix + bi) * dim_e
                # action on the value
                for e_out in range(dim_e):
                    acc = ZERO
                    row = e_out * dim_e
                    for e_in in range(dim_e):
                        x = rho_e.data[row + e_in]
                        if not x.is_zero():
                            v = w.data[base_in + e_in]
                            if not v.is_zero():
                                acc = acc + x * v
                    if not acc.is_zero():
                        out.data[base_out + e_out] = out.data[base_out + e_out] + \
                            (acc if sign > 0 else -acc)
                # minus the action routed through each B-slot
                for slot in range(w.l):
                    old = bt[slot]
                    for new in range(nb):
                        x = rho_b[a][new, old]
                        if x.is_zero():
                            continue
                        bt2 = bt[:slot] + (new,) + bt[slot + 1 :]
                        src = (gi * b_radix + tensor_index(bt2, nb)) * dim_e
                        for e in range(dim_e):
                            v = w.data[src + e]
                            if not v.is_zero():
                                term = x * v
                                out.data[base_out + e] = out.data[base_out + e] - \
                                    (term if sign > 0 else -term)
        # bracket terms
        for m in range(len(J)):
            for p in range(m + 1, len(J)):
                sign_mp = -1 if (m + p) % 2 else 1
                rest = tuple(x for idx, x in enumerate(J) if idx not in (m, p))
                br = pair.d.c[J[m]][J[p]]
                for s in range(n):  # only subalgebra components can be nonzero
                    coeff = br[s]
                    if coeff.is_zero():
                        continue
                    ins = insert_with_sign(rest, s)
                    if ins is None:
                        continue
                    sgn, key = ins
                    gi = in_index[key]
                    total = sign_mp * sgn
                    for bi in range(b_radix):
                        src = (gi * b_radix + bi) * dim_e
                        dst = (out_gi * b_radix + bi) * dim_e
                        for e in range(dim_e):
                            v = w.data[src + e]
                            if not v.is_zero():
                                term = coeff * v
                                out.data[dst + e] = out.data[dst + e] + \
                                    (term if total > 0 else -term)
    return out


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
                    assert mat.apply(w.data) == expected
