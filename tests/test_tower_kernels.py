"""Differential tests for the nonzero-driven tower kernels, against dense
oracles and against the kernels the flat-position ones replaced, the shared
contraction kernel behind the brackets, the degree skip in the
homotopy-witness loops, the two sides of the unary bracket, the sweeps (one
sweep loop, one differential path), the factoring of the sweeps and witness
loops through the wedge, with the two lemma checks it rests on, the sparse
tensor-level proof identities, the tensors the sweeps read their degree-0
residuals off, entry by entry against the per-tuple residuals, the state one
verify run shares between its three checks, against the same checks each
called alone, the homotopy witnesses read off the run's tensors, against the
per-tuple loops they replaced, brackets on a tower edited in place, the
symmetry scan, against dense permuted copies, and the bracket layer on flat
positions, against the tuple-keyed layer it replaced.

The loops the kernels replaced are kept here, or in oracles.py, as oracles:
the dense ones visit every entry of their output or their input, as the
library once did, the five bracket loops each keep their own sign and algebra
bookkeeping, the Leibniz and module residuals and sweeps keep their separate
loops, and the tensor-level residuals are summed as dense cochains.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import liepairs.ce as ce
import liepairs.homotopy as homotopy
from liepairs.atiyah import diff_matrix
from liepairs.ce import (
    Cochain,
    _ce_into,
    _summed,
    atiyah_cocycle,
    ce_diff,
    end_connection,
    extend_by_zero,
)
from liepairs.cli import main
from liepairs.homotopy import (
    BracketTower,
    GradedElement,
    VerifyReport,
    _add_permuted,
    _chain_into,
    _compose_into,
    _degree0_residuals,
    _nabla_into,
    _slices,
    _unfold_end,
    _wedge,
    build_tower,
    check_proof_identities,
    compose_cochains,
    graded_diff,
    lambda_k,
    mu_k,
    partial_nabla,
    symmetry_report,
    tensor_residuals,
    theta_witness,
    two_bracket,
    verify_leibniz,
    verify_module,
    xi_witness,
)
from liepairs.lie_core import (
    check_g_algebra,
    end_module,
    tensor_module,
    trivial_module,
)
from liepairs.multilinear import (
    enumerate_shuffles,
    exterior_basis,
    exterior_index,
    merge_sign,
    tensor_index,
    tensor_tuples,
)
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import (
    affine_bialgebra,
    dual_numbers_algebra,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    random_extension,
    random_pair,
    sl2_pair,
    unit_algebra,
    weighted_dual_numbers,
)

from oracles import (
    FlushingPath,
    acting_sign_flip,
    algebra_from_table,
    dense_graded_diff,
    dense_mult,
    dense_partial_nabla,
    dense_product,
    digit_table_off_by_one,
    fixture_set,
    merge_table_sign_flip,
    oracle_basis,
    oracle_leibniz_residual,
    oracle_module_residual,
    own_table_nabla_into,
    TupleKeyedElement,
    replaced_add_permuted,
    replaced_ce_image,
    replaced_ce_into,
    replaced_ce_table,
    replaced_chain_into,
    replaced_compose_into,
    replaced_diff,
    replaced_first_nonzero,
    replaced_nabla_into,
    replaced_slices,
    replaced_unfold_end,
    scatter_into,
    tuple_keyed_contract,
    tuple_keyed_decorated,
    tuple_keyed_diff,
    tuple_keyed_slices,
    tuple_keyed_wedge,
)


# -- dense oracles -----------------------------------------------------------------


def dense_permute_b_args(w, perm):
    out = Cochain(w.pair, w.module, w.k, w.l)
    nb = w.pair.dim_b
    for gi in range(w.g_count()):
        for bi, bt in enumerate(tensor_tuples(nb, w.l)):
            src = tensor_index(tuple(bt[p] for p in perm), nb)
            for e in range(w.module.dim):
                out.data[out.flat_index(gi, bi, e)] = \
                    w.data[w.flat_index(gi, src, e)]
    return out


def dense_add_permuted(total, part, perm):
    nb = total.pair.dim_b
    b_radix = nb ** total.l
    dim_e = total.module.dim
    for gi in range(total.g_count()):
        for bi, bt in enumerate(tensor_tuples(nb, total.l)):
            src_bt = tuple(bt[p] for p in perm)
            src = (gi * b_radix + tensor_index(src_bt, nb)) * dim_e
            dst = (gi * b_radix + bi) * dim_e
            for e in range(dim_e):
                total.data[dst + e] = total.data[dst + e] + part.data[src + e]


def dense_compose_cochains(outer, inner, slot):
    """Rescans all of inner for every nonzero of outer."""
    pair = outer.pair
    k, l = outer.k + inner.k, outer.l + inner.l - 1
    out = Cochain(pair, outer.module, k, l)
    nb = pair.dim_b
    out_index = exterior_index(pair.dim_g, k)
    for g1, t1, e, c1 in outer.iter_nonzero():
        pre, mid, post = t1[: slot - 1], t1[slot - 1], t1[slot:]
        for g2, t2, m, c2 in inner.iter_nonzero():
            if m != mid:
                continue
            step = merge_sign(g1, g2)
            if step is None:
                continue
            sign, merged = step
            idx = (out_index[merged] * (nb ** l)
                   + tensor_index(pre + t2 + post, nb)) * outer.module.dim + e
            term = c1 * c2
            out.data[idx] = out.data[idx] + (term if sign > 0 else -term)
    return out


def dense_chain(outer, inner, dim_e):
    """outer . inner for End(E)-valued cochains (values out * dim_e + in):
    every pair of dense entries whose forms are disjoint, over every middle
    index, with the b-tuples joined outer block first."""
    pair = outer.pair
    nb = pair.dim_b
    k, l = outer.k + inner.k, outer.l + inner.l
    out_index = exterior_index(pair.dim_g, k)
    a, b = list(outer.data), list(inner.data)
    acc = [ZERO] * len(Cochain(pair, outer.module, k, l).data)
    for (g1i, g1), (g2i, g2) in product(enumerate(outer.g_basis()),
                                        enumerate(inner.g_basis())):
        step = merge_sign(g1, g2)
        if step is None:
            continue
        for i1, i2 in product(range(nb ** outer.l), range(nb ** inner.l)):
            dst = (out_index[step[1]] * nb ** l + i1 * nb ** inner.l + i2) \
                * dim_e * dim_e
            for e_out, mid, e_in in product(range(dim_e), repeat=3):
                x = a[outer.flat_index(g1i, i1, e_out * dim_e + mid)] \
                    * b[inner.flat_index(g2i, i2, mid * dim_e + e_in)]
                pos = dst + e_out * dim_e + e_in
                acc[pos] = acc[pos] + (x if step[0] > 0 else -x)
    return Cochain(pair, outer.module, k, l, acc)


# -- bracket oracles -----------------------------------------------------------------


def oracle_slices(w):
    """b-tuple -> list of (a, out, coeff) nonzeros of a (1, l) cochain."""
    slices = {}
    for (a,), bt, e, c in w.iter_nonzero():
        slices.setdefault(bt, []).append((a, e, c))
    return slices


def oracle_algebra_product(algebra, cvec1, cvec2):
    return dense_product(dense_mult(algebra), cvec1, cvec2)


class OracleBrackets:
    """The five bracket loops the contraction kernel replaced, over slices
    built once per tower in their old (a, out, coeff) form."""

    def __init__(self, tower):
        self.tower = tower
        self.r = {n: oracle_slices(w) for n, w in tower.r.items()}
        self.s = {n: oracle_slices(w) for n, w in (tower.s or {}).items()}

    def lambda_k(self, args, algebra=None):
        k = len(args)
        cdim = algebra.dim if algebra is not None else None
        pair = self.tower.pair
        out = GradedElement(pair, pair.dim_b, cdim)
        slices = self.r[k]
        for combo in product(*[arg.terms.items() for arg in args]):
            keys = [key for key, _ in combo]
            coeff = combo[0][1]
            for _, val in combo[1:]:
                coeff = coeff * val
            total_deg = sum(len(key[0]) for key in keys)
            sign = -1 if total_deg % 2 else 1
            merged = ()
            dead = False
            for key in keys:
                step = merge_sign(merged, key[0])
                if step is None:
                    dead = True
                    break
                s, merged = step
                sign *= s
            if dead:
                continue
            bt = tuple(key[1] for key in keys)
            hits = slices.get(bt)
            if not hits:
                continue
            if cdim is not None:
                cvec = [ONE if t == keys[0][2] else ZERO for t in range(cdim)]
                for key in keys[1:]:
                    unit = [ONE if t == key[2] else ZERO for t in range(cdim)]
                    cvec = oracle_algebra_product(algebra, cvec, unit)
            for a, b_out, rc in hits:
                ins = merge_sign(merged, (a,))
                if ins is None:
                    continue
                s2, final = ins
                term = coeff * rc
                if sign * s2 < 0:
                    term = -term
                if cdim is None:
                    out.add_term((final, b_out), term)
                else:
                    for t, cv in enumerate(cvec):
                        if not cv.is_zero():
                            out.add_term((final, b_out, t), term * cv)
        return out

    def mu_k(self, vargs, w, algebra=None):
        k = len(vargs) + 1
        cdim = algebra.dim if algebra is not None else None
        pair = self.tower.pair
        dim_e = self.tower.module.dim
        out = GradedElement(pair, dim_e, cdim)
        slices = self.s[k]
        for combo in product(*([arg.terms.items() for arg in vargs]
                               + [w.terms.items()])):
            keys = [key for key, _ in combo]
            coeff = combo[0][1]
            for _, val in combo[1:]:
                coeff = coeff * val
            total_deg = sum(len(key[0]) for key in keys)
            sign = -1 if total_deg % 2 else 1
            merged = ()
            dead = False
            for key in keys:
                step = merge_sign(merged, key[0])
                if step is None:
                    dead = True
                    break
                s, merged = step
                sign *= s
            if dead:
                continue
            bt = tuple(key[1] for key in keys[:-1])
            e_in = keys[-1][1]
            hits = slices.get(bt)
            if not hits:
                continue
            if cdim is not None:
                cvec = [ONE if t == keys[0][2] else ZERO for t in range(cdim)]
                for key in keys[1:]:
                    unit = [ONE if t == key[2] else ZERO for t in range(cdim)]
                    cvec = oracle_algebra_product(algebra, cvec, unit)
            for a, f, sc in hits:
                e_out, e_col = divmod(f, dim_e)
                if e_col != e_in:
                    continue
                ins = merge_sign(merged, (a,))
                if ins is None:
                    continue
                s2, final = ins
                term = coeff * sc
                if sign * s2 < 0:
                    term = -term
                if cdim is None:
                    out.add_term((final, e_out), term)
                else:
                    for t, cv in enumerate(cvec):
                        if not cv.is_zero():
                            out.add_term((final, e_out, t), term * cv)
        return out

    def two_bracket(self, v1, v2):
        pair = self.tower.pair
        out = GradedElement(pair, pair.dim_b)
        slices = self.r[2]
        for (g1, b1), c1 in v1.terms.items():
            for (g2, b2), c2 in v2.terms.items():
                step = merge_sign(g1, g2)
                if step is None:
                    continue
                sign, merged = step
                if len(g2) % 2:
                    sign = -sign
                hits = slices.get((b1, b2))
                if not hits:
                    continue
                coeff = c1 * c2
                for a, b_out, rc in hits:
                    ins = merge_sign(merged, (a,))
                    if ins is None:
                        continue
                    s2, final = ins
                    term = coeff * rc
                    if sign * s2 < 0:
                        term = -term
                    out.add_term((final, b_out), term)
        return out

    def theta_witness(self, v1, v2):
        pair = self.tower.pair
        nb = pair.dim_b
        out = GradedElement(pair, nb)
        for (g1, b1), c1 in v1.terms.items():
            for (g2, b2), c2 in v2.terms.items():
                step = merge_sign(g1, g2)
                if step is None:
                    continue
                sign, merged = step
                if len(g1) % 2:
                    sign = -sign
                coeff = c1 * c2
                vec = self.tower.st.beta[b1][b2]
                for b_out in range(nb):
                    x = vec[b_out]
                    if not x.is_zero():
                        term = coeff * x
                        out.add_term((merged, b_out),
                                     term if sign > 0 else -term)
        return out

    def xi_witness(self, v0, v1, v2):
        pair = self.tower.pair
        out = GradedElement(pair, pair.dim_b)
        slices = self.r[3]
        for (g0, b0), c0 in v0.terms.items():
            for (g1, b1), c1 in v1.terms.items():
                step1 = merge_sign(g0, g1)
                if step1 is None:
                    continue
                s1, merged1 = step1
                for (g2, b2), c2 in v2.terms.items():
                    step2 = merge_sign(merged1, g2)
                    if step2 is None:
                        continue
                    s2, merged = step2
                    sign = s1 * s2
                    if (len(g0) + len(g2)) % 2:
                        sign = -sign
                    hits = slices.get((b0, b1, b2))
                    if not hits:
                        continue
                    coeff = c0 * c1 * c2
                    for a, b_out, rc in hits:
                        ins = merge_sign(merged, (a,))
                        if ins is None:
                            continue
                        s3, final = ins
                        term = coeff * rc
                        if sign * s3 < 0:
                            term = -term
                        out.add_term((final, b_out), term)
        return out


# -- fixtures ------------------------------------------------------------------------


def rand_cochain(rng, pair, module, k, l):
    w = Cochain(pair, module, k, l)
    return Cochain(pair, module, k, l,
                   [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in w.data])


FIXTURES = fixture_set()
IDS = [f[0] for f in FIXTURES]


# -- kernels against their oracles -----------------------------------------------------


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_partial_nabla_matches_dense_oracle(fixture):
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/nabla")
    tower = build_tower(pair, conn_b, depth=3, module=module, conn_e=conn_e)
    st = tower.st
    b = pair.quotient_module()
    end_e = end_module(module)
    conn_end = end_connection(conn_e)
    cases = [(w, conn_b) for w in tower.r.values()]
    cases += [(w, conn_end) for w in tower.s.values()]
    for k in range(min(pair.dim_g, 2) + 1):
        for l in range(3):
            cases.append((rand_cochain(rng, pair, b, k, l), conn_b))
        for l in range(2):
            cases.append((rand_cochain(rng, pair, end_e, k, l), conn_end))
    for w, conn_coeff in cases:
        assert partial_nabla(w, conn_coeff, conn_b, st) == \
            dense_partial_nabla(w, conn_coeff, conn_b, st), (w.k, w.l)


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_permutation_kernels_match_dense_oracle(fixture):
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/permute")
    tower = build_tower(pair, conn_b, depth=4, module=module, conn_e=conn_e)
    b = pair.quotient_module()
    for l in range(5):
        # dense random inputs at k = 0 and 1; at arity 4 only k = 0, to keep
        # the dense oracle's 24 passes short
        inputs = [rand_cochain(rng, pair, b, k, l) for k in (0, 1)
                  if k == 0 or l < 4]
        inputs += [w for w in list(tower.r.values()) + list(tower.s.values())
                   if w.l == l]
        for w in inputs:
            for perm in permutations(range(l)):
                assert w.permute_b_args(perm) == dense_permute_b_args(w, perm)
                total = rand_cochain(rng, pair, w.module, w.k, l)
                expected = total.copy()
                scatter_into(total, _add_permuted, w, list(perm))
                dense_add_permuted(expected, w, perm)
                assert total == expected, (w.k, l, perm)


def test_permute_b_args_rejects_non_permutations():
    fx = gl_un_tn(2)
    w = Cochain(fx.pair, fx.module_b, 1, 2)
    for perm in ((0,), (0, 0), (1, 2), (0, 1, 2)):
        with pytest.raises(ValueError):
            w.permute_b_args(perm)
    # in any position of a set of permutations, before anything is added
    w = rand_cochain(random.Random(3), fx.pair, fx.module_b, 1, 2)
    total = Cochain(fx.pair, fx.module_b, 1, 2)
    for perms in (((0, 1), (1, 2)), ((1, 0), (0,)), ((0, 1), (0, 1, 2))):
        with pytest.raises(ValueError):
            scatter_into(total, _add_permuted, w, *perms)
    assert total.entries == {}


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_compose_cochains_matches_dense_oracle(fixture):
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/compose")
    tower = build_tower(pair, conn_b, depth=4)
    b = pair.quotient_module()
    end_e = end_module(module)
    levels = list(tower.r.values())
    inners = levels + [rand_cochain(rng, pair, b, k, l)
                       for k in (0, 1) for l in (1, 2)]
    outers = levels + [rand_cochain(rng, pair, m, k, l)
                       for m in (b, end_e) for k in (0, 1) for l in (1, 2)]
    for oi, outer in enumerate(outers):
        for ii, inner in enumerate(inners):
            # tower levels meet up to arity 4, as in the proof identities;
            # dense random inputs, whose oracle cost is quadratic, up to 3
            both_levels = oi < len(levels) and ii < len(levels)
            if outer.l + inner.l > (5 if both_levels else 3):
                continue
            for slot in range(1, outer.l + 1):
                assert compose_cochains(outer, inner, slot) == \
                    dense_compose_cochains(outer, inner, slot), \
                    (outer.k, outer.l, inner.k, inner.l, slot)


def golden_algebra(dim_g):
    """Basis (1, x) with x^2 = 1 + x and zero action: every product of two or
    more x's has both coordinates nonzero, so the kernel's algebra products
    accumulate."""
    mult = [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ONE, ONE]]]
    return algebra_from_table(trivial_module(dim_g, 2), mult)


def combinations_of(rng, basis, count):
    """Random sums of two to four same-degree basis elements with small
    Gaussian coefficients."""
    by_degree = {}
    for el in basis:
        by_degree.setdefault(el.degree(), []).append(el)
    groups = [g for g in by_degree.values() if len(g) > 1]
    out = []
    for _ in range(count if groups else 0):
        group = rng.choice(groups)
        total = group[0].scale(ZERO)
        for el in rng.sample(group, min(len(group), rng.randint(2, 4))):
            total = total + el.scale(GaussScalar(rng.choice([-2, -1, 1, 3]),
                                                 rng.choice([0, 0, 1])))
        out.append(total)
    return out


def argument_pools(rng, basis, diff, bracket):
    """Basis elements, multi-term elements (random combinations and the
    differentials of basis elements and combinations) and nested brackets."""
    combos = combinations_of(rng, basis, 8)
    multi = [el for el in combos + [diff(el) for el in basis + combos]
             if len(el.terms) > 1]
    nested = []
    for _ in range(12):
        el = bracket(rng.choice(basis + multi))
        if not el.is_zero():
            nested.append(el)
    return basis, multi, nested


def v_pool(tower, rng, algebra=None):
    pair = tower.pair
    basis = oracle_basis(pair, pair.dim_b, 1, algebra)

    def bracket(el):
        other = rng.choice(basis)
        return two_bracket(tower, el, other) if algebra is None \
            else lambda_k(tower, [el, other], algebra)

    return argument_pools(
        rng, basis,
        lambda el: graded_diff(pair, pair.quotient_module(), el, algebra),
        bracket)


def w_pool(tower, rng, algebra=None):
    pair = tower.pair
    vs = oracle_basis(pair, pair.dim_b, 1, algebra)
    return argument_pools(
        rng, oracle_basis(pair, tower.module.dim, 1, algebra),
        lambda el: graded_diff(pair, tower.module, el, algebra),
        lambda el: mu_k(tower, [rng.choice(vs)], el, algebra))


def draw(rng, pools, n, count):
    """count argument tuples of length n; each argument comes from a randomly
    chosen non-empty pool, so basis, multi-term and nested arguments mix."""
    pools = [p for p in pools if p]
    return [[rng.choice(rng.choice(pools)) for _ in range(n)]
            for _ in range(count)]


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_brackets_and_witnesses_match_their_oracles(fixture):
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/contract")
    tower = build_tower(pair, conn_b, depth=4, module=module, conn_e=conn_e)
    oracle = OracleBrackets(tower)
    pools = v_pool(tower, rng)
    wpools = w_pool(tower, rng)
    assert pools[1] and wpools[1]
    nonzero = 0
    for v1, v2 in draw(rng, pools, 2, 400):
        for ours, theirs in ((two_bracket(tower, v1, v2),
                              oracle.two_bracket(v1, v2)),
                             (theta_witness(tower, v1, v2),
                              oracle.theta_witness(v1, v2))):
            assert ours.terms == theirs.terms
            nonzero += not ours.is_zero()
    for args in draw(rng, pools, 3, 300):
        ours = xi_witness(tower, *args)
        assert ours.terms == oracle.xi_witness(*args).terms
        nonzero += not ours.is_zero()
    for k in range(2, 5):
        for args in draw(rng, pools, k, 200):
            ours = lambda_k(tower, args)
            assert ours.terms == oracle.lambda_k(args).terms, k
            nonzero += not ours.is_zero()
        for args, (w,) in zip(draw(rng, pools, k - 1, 200),
                              draw(rng, wpools, 1, 200)):
            ours = mu_k(tower, args, w)
            assert ours.terms == oracle.mu_k(args, w).terms, k
            nonzero += not ours.is_zero()
    # the heisenberg pair has dim g = 1, so its tower and torsion vanish
    assert nonzero >= 50 or name == "heisenberg"


@pytest.mark.parametrize("algebra_of", [unit_algebra, dual_numbers_algebra,
                                        golden_algebra],
                         ids=["unit", "dual_numbers", "golden"])
@pytest.mark.parametrize("fixture", [f for f in FIXTURES
                                     if f[0] in ("u2t2_mult", "random2")],
                         ids=["u2t2_mult", "random2"])
def test_algebra_brackets_match_their_oracles(fixture, algebra_of):
    # the u2t2 module B has dim 4 and the random module dim 2, so the module
    # input index in the S_n slice keys is exercised as well
    name, pair, conn_b, module, conn_e = fixture
    assert module.dim > 1
    algebra = algebra_of(pair.dim_g)
    rng = random.Random(name + "/algebra")
    tower = build_tower(pair, conn_b, depth=3, module=module, conn_e=conn_e)
    oracle = OracleBrackets(tower)
    pools = v_pool(tower, rng, algebra)
    wpools = w_pool(tower, rng, algebra)
    nonzero = 0
    for k in (2, 3):
        for args in draw(rng, pools, k, 200):
            ours = lambda_k(tower, args, algebra)
            assert ours.terms == oracle.lambda_k(args, algebra).terms, k
            nonzero += not ours.is_zero()
        for args, (w,) in zip(draw(rng, pools, k - 1, 200),
                              draw(rng, wpools, 1, 200)):
            ours = mu_k(tower, args, w, algebra)
            assert ours.terms == oracle.mu_k(args, w, algebra).terms, k
            nonzero += not ours.is_zero()
    assert nonzero >= 50


# -- the degree skip in the homotopy-witness loops ---------------------------------------


def skew_residual(tower, elements, diffs, i1, i2):
    """One pass of the skew-symmetry homotopy loop, as it ran unskipped."""
    pair = tower.pair
    v1, v2 = elements[i1], elements[i2]
    k1, k2 = v1.degree(), v2.degree()
    lhs = two_bracket(tower, v1, v2)
    tau_sign = -1 if ((k1 + 1) * (k2 + 1)) % 2 else 1
    swapped = two_bracket(tower, v2, v1)
    lhs = lhs + (swapped if tau_sign > 0 else -swapped)
    rhs = graded_diff(pair, pair.quotient_module(), theta_witness(tower, v1, v2))
    rhs = rhs + theta_witness(tower, diffs[i1], v2)
    second = theta_witness(tower, v1, diffs[i2])
    rhs = rhs + (second if (k1 + 1) % 2 == 0 else -second)
    return lhs - rhs


def jacobi_residual(tower, elements, diffs, i0, i1, i2):
    """One pass of the Jacobi homotopy loop, as it ran unskipped."""
    pair = tower.pair
    v0, v1, v2 = elements[i0], elements[i1], elements[i2]
    k0, k1 = v0.degree(), v1.degree()
    tau_sign = -1 if ((k0 + 1) * (k1 + 1)) % 2 else 1
    lhs = -two_bracket(tower, v0, two_bracket(tower, v1, v2))
    lhs = lhs + two_bracket(tower, two_bracket(tower, v0, v1), v2)
    third = two_bracket(tower, v1, two_bracket(tower, v0, v2))
    lhs = lhs + (third if tau_sign > 0 else -third)
    rhs = graded_diff(pair, pair.quotient_module(),
                      xi_witness(tower, v0, v1, v2))
    rhs = rhs + xi_witness(tower, diffs[i0], v1, v2)
    t2 = xi_witness(tower, v0, diffs[i1], v2)
    rhs = rhs + (t2 if (k0 + 1) % 2 == 0 else -t2)
    t3 = xi_witness(tower, v0, v1, diffs[i2])
    rhs = rhs + (t3 if (k0 + k1) % 2 == 0 else -t3)
    return lhs - rhs


def unskipped_witness_loops(tower, cap, jacobi_limit=None):
    """Run both witness loops over every tuple; assert that each tuple the
    degree rule skips has a zero residual.  Returns the first witnesses.

    jacobi_limit caps how many skipped Jacobi triples are evaluated (a
    seeded sample) where all of them would take too long."""
    tower = tower.cached_view()
    pair = tower.pair
    elements = oracle_basis(pair, pair.dim_b, min(cap, pair.dim_g))
    diffs = [graded_diff(pair, pair.quotient_module(), el) for el in elements]
    idx = range(len(elements))
    skew_first = None
    for i1 in idx:
        for i2 in idx:
            res = skew_residual(tower, elements, diffs, i1, i2)
            degree = elements[i1].degree() + elements[i2].degree() + 1
            if degree > pair.dim_g:
                assert res.is_zero(), ("skew", i1, i2)
            elif skew_first is None and not res.is_zero():
                skew_first = res.first_term()
    skipped = [(i0, i1, i2) for i0 in idx for i1 in idx for i2 in idx
               if sum(elements[i].degree() for i in (i0, i1, i2)) + 2
               > pair.dim_g]
    if jacobi_limit is not None and len(skipped) > jacobi_limit:
        skipped = random.Random(5).sample(skipped, jacobi_limit)
    for triple in skipped:
        assert jacobi_residual(tower, elements, diffs, *triple).is_zero(), \
            ("jacobi", triple)
    return skew_first, len(skipped)


@pytest.mark.parametrize("cap", [1, 2])
def test_skipped_witness_tuples_have_zero_residual(cap):
    fx = gl_un_tn(2)
    towers = [build_tower(fx.pair, fx.conn_zero, depth=3)]
    for seed in (1, 2, 6):
        rpair = random_pair(seed)
        towers.append(build_tower(
            rpair, random_extension(rpair, rpair.quotient_module(), seed + 1),
            depth=3))
    skipped_counts = []
    for tower in towers:
        limit = 400 if tower.pair.dim_g > 2 and cap > 1 else None
        skew_first, skipped = unskipped_witness_loops(tower, cap, limit)
        skipped_counts.append(skipped)
        verdicts = {name: (ok, witness) for name, ok, witness
                    in check_proof_identities(tower, cap)}
        assert verdicts["skew_symmetry_homotopy"] == \
            (skew_first is None, skew_first)
    # the rule is not vacuous: at cap 1 on u2t2 it skips 4,096 of 8,000
    # triples, every one with three degree-1 forms
    assert skipped_counts[0] == (4096 if cap == 1 else 400)
    assert all(skipped_counts)


def test_witness_loops_evaluate_exactly_the_unskipped_tuples(monkeypatch):
    # the two homotopy witnesses are read off the torsion antisymmetrization
    # and the arity-3 coherence tensor, so no degree-0 tuple calls
    # theta_witness or xi_witness.  Only the Omega-linearity lemma does: for a
    # bracket of arity k, two argument tuples of one unwedged call plus one
    # call per position and basis form of positive degree.  At cap 0 no lemma
    # runs; on a passing tower no lemma breaks early.  Each of the lemma's
    # two_bracket, theta_witness and xi_witness calls is one contraction.
    import liepairs.homotopy as homotopy

    calls = {"theta": 0, "xi": 0, "contract": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homotopy, "theta_witness",
                        counting("theta", theta_witness))
    monkeypatch.setattr(homotopy, "xi_witness", counting("xi", xi_witness))
    monkeypatch.setattr(homotopy, "_contract",
                        counting("contract", homotopy._contract))
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_zero, depth=3)
    # u2t2 has dim B = 4 and dim g = 4: 4 forms of degree 1, 6 of degree 2
    for cap, forms in ((0, 0), (1, 4), (2, 10)):
        calls.update(theta=0, xi=0, contract=0)
        assert all(ok for _, ok, _ in check_proof_identities(tower, cap))
        lemma = {k: 2 * (1 + k * forms) if cap else 0 for k in (2, 3)}
        assert calls == {"theta": lemma[2], "xi": lemma[3],
                         "contract": 2 * lemma[2] + lemma[3]}, cap
    assert (calls["theta"], calls["xi"]) == (42, 62)


def test_witness_loops_still_catch_a_corrupted_tower():
    # the skip rule only drops tuples whose residual lies above the top
    # exterior degree; a corrupted ternary tensor still fails the loop
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_zero, depth=3)
    pos = next(i for i, x in enumerate(tower.r[3].data) if not x.is_zero())
    tower.r[3].data[pos] = tower.r[3].data[pos] + ONE
    verdicts = {name: ok for name, ok, _ in check_proof_identities(tower, 1)}
    assert not verdicts["jacobi_homotopy"]


# -- the two sides of the unary bracket ------------------------------------------------


def test_corrupted_tower_fails_proof_identities():
    data = affine_bialgebra()
    bpair = matched_sum(data)
    tower = build_tower(bpair, extend_by_zero(bpair, bpair.quotient_module()),
                        depth=4)
    assert all(ok for _, ok, _ in check_proof_identities(tower, 2))
    tower.r[3].data[0] = tower.r[3].data[0] + ONE
    failed = [name for name, ok, _ in check_proof_identities(tower, 2)
              if not ok]
    assert failed
    assert "jacobi_homotopy" in failed


def test_unary_brackets_keep_the_two_sides_apart():
    # B and its dual are both 1-dim over sl2, so a B-valued and a module-valued
    # element can have equal terms; their differentials still differ
    pair, modules = sl2_pair()
    conn_b = extend_by_zero(pair, modules["B"])
    dual = modules["B_dual"]
    tower = build_tower(pair, conn_b, depth=2, module=dual,
                        conn_e=extend_by_zero(pair, dual))
    el = GradedElement.basis(pair, 1, (), 0)
    on_b = lambda_k(tower, [el])
    on_dual = mu_k(tower, [], el)
    assert on_b == graded_diff(pair, modules["B"], el)
    assert on_dual == graded_diff(pair, dual, el)
    assert on_b != on_dual


# -- the sweeps against their oracle loops ------------------------------------


def oracle_verify_leibniz(tower, max_n, degree_cap, algebra=None):
    """The loop verify_leibniz ran on its own, as (checked, violations)."""
    tower = tower.cached_view()
    report = VerifyReport("leibniz")
    elements = oracle_basis(tower.pair, tower.pair.dim_b, degree_cap, algebra)
    for n in range(1, max_n + 1):
        for vs in product(elements, repeat=n):
            report.checked += 1
            if sum(v.degree() for v in vs) + 2 > tower.pair.dim_g:
                continue
            residual = oracle_leibniz_residual(tower, list(vs), algebra)
            if not residual.is_zero():
                report.add_violation(
                    n, [v.first_term()[0] for v in vs], residual.first_term())
    return report.checked, report.violations


def oracle_verify_module(tower, max_n, degree_cap, algebra=None):
    """The loop verify_module ran on its own, as (checked, violations)."""
    tower = tower.cached_view()
    report = VerifyReport("leibniz_module")
    vs_pool = oracle_basis(tower.pair, tower.pair.dim_b, degree_cap, algebra)
    ws_pool = oracle_basis(tower.pair, tower.module.dim, degree_cap, algebra)
    for n in range(1, max_n + 1):
        for vs in product(vs_pool, repeat=n - 1):
            for w in ws_pool:
                report.checked += 1
                if sum(v.degree() for v in vs) + w.degree() + 2 \
                        > tower.pair.dim_g:
                    continue
                residual = oracle_module_residual(tower, list(vs), w, algebra)
                if not residual.is_zero():
                    report.add_violation(
                        n, [v.first_term()[0] for v in vs]
                        + [w.first_term()[0]], residual.first_term())
    return report.checked, report.violations


def oracle_nested_binary_coherence(tower):
    """The arity-3 coherence sum check_proof_identities once wrote by hand."""
    total = ce_diff(tower.r[3])
    part_a = compose_cochains(tower.r[2], tower.r[2], 2)
    scatter_into(total, _add_permuted, part_a, [0, 1, 2])
    part_b = compose_cochains(tower.r[2], tower.r[2], 1)
    scatter_into(total, _add_permuted, part_b, [0, 1, 2])
    scatter_into(total, _add_permuted, part_a, [1, 0, 2])
    return total


def corrupted_towers(depth=3,
                     names=("u2t2_mult", "bialgebra", "random2", "random6")):
    """(name, tower): the named fixtures at the given depth, each with one
    entry of one level R_2 .. R_depth or S_2 .. S_depth changed in place, so
    that the sweeps see violations.  Names above depth 3 carry the depth."""
    out = []
    levels = [(side, n) for side in "rs" for n in range(2, depth + 1)]
    suffix = "" if depth == 3 else "_depth%d" % depth
    for name, pair, conn_b, module, conn_e in FIXTURES:
        if name not in names:
            continue
        rng = random.Random(name + "/corrupt" + suffix)
        for side, n in levels:
            tower = build_tower(pair, conn_b, depth=depth, module=module,
                                conn_e=conn_e)
            data = getattr(tower, side)[n].data
            pos = rng.randrange(len(data))
            data[pos] = data[pos] + GaussScalar(1, rng.choice([0, 1]))
            out.append(("%s%s_%s%d" % (name, suffix, side.upper(), n), tower))
    return out


def sweep_towers():
    towers = [(name, build_tower(pair, conn_b, depth=3, module=module,
                                 conn_e=conn_e))
              for name, pair, conn_b, module, conn_e in FIXTURES]
    return towers + corrupted_towers()


SWEEP_TOWERS = sweep_towers()
SWEEP_IDS = [name for name, _ in SWEEP_TOWERS]


def deep_towers(names=("u2t2_mult", "bialgebra", "random2")):
    """(name, tower): the named fixtures at depth 4, clean and with one entry
    of each level R_2 .. R_4 and S_2 .. S_4 changed in place."""
    clean = [(name + "_depth4", build_tower(pair, conn_b, depth=4,
                                            module=module, conn_e=conn_e))
             for name, pair, conn_b, module, conn_e in FIXTURES
             if name in names]
    return clean + corrupted_towers(4, names)


DEEP_TOWERS = deep_towers()
# the benchmark's sweep shape, max_n 4 at cap 0, on u2t2 and its R_4 and S_4
# corruptions
DEEP_SWEEP_TOWERS = [(name, tower) for name, tower in DEEP_TOWERS
                     if name in ("u2t2_mult_depth4", "u2t2_mult_depth4_R4",
                                 "u2t2_mult_depth4_S4")]


@pytest.mark.parametrize("name, tower", SWEEP_TOWERS, ids=SWEEP_IDS)
def test_chain_kernel_matches_dense_oracle(name, tower):
    # the S_i . S_j products behind the module sweep, on the zoo and on its
    # corrupted towers, and dense random End(E)-valued inputs up to arity 2,
    # whose oracle cost grows with the dense size
    dim_e = tower.module.dim
    pair = tower.pair
    rng = random.Random(name + "/chain")
    end_e = tower.s[2].module
    levels = list(tower.s.values())
    inputs = levels + [rand_cochain(rng, pair, end_e, k, l)
                       for k in (0, 1) for l in (0, 1)]
    for (oi, outer), (ii, inner) in product(enumerate(inputs), repeat=2):
        both_levels = oi < len(levels) and ii < len(levels)
        if outer.l + inner.l > (3 if both_levels else 2):
            continue
        total = Cochain(pair, end_e, outer.k + inner.k, outer.l + inner.l)
        scatter_into(total, _chain_into, outer, inner, dim_e)
        assert total == dense_chain(outer, inner, dim_e), \
            (outer.k, outer.l, inner.k, inner.l)


def sweep_sizes(tower):
    """(max_n, degree_cap) pairs that keep the u2t2 oracle sweeps short."""
    if tower.depth >= 4:
        return [(4, 0)]
    return [(3, 1)] if tower.pair.dim_g <= 2 else [(3, 0), (2, 1)]


@pytest.mark.parametrize("algebra_of", [None, unit_algebra,
                                        dual_numbers_algebra, golden_algebra],
                         ids=["plain", "unit", "dual_numbers", "golden"])
@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_graded_diff_matches_dense_round_trip(fixture, algebra_of):
    name, pair, conn_b, module, conn_e = fixture
    algebra = algebra_of(pair.dim_g) if algebra_of else None
    rng = random.Random(name + "/graded_diff")
    for base in (pair.quotient_module(), module):
        basis = oracle_basis(pair, base.dim, pair.dim_g, algebra)
        combos = combinations_of(rng, basis, 8)
        # mixed-degree sums cover the dense path's per-degree grouping
        mixed = [rng.choice(basis) + rng.choice(basis) for _ in range(8)]
        # and the path the per-degree term tables replaced
        table = replaced_ce_table(pair, base if algebra is None else
                                  tensor_module(base, algebra.module), 0)
        for el in basis + combos + mixed:
            terms = graded_diff(pair, base, el, algebra).terms
            assert terms == dense_graded_diff(pair, base, el, algebra).terms
            assert terms == replaced_diff(table, el, algebra).terms


@pytest.mark.parametrize("tower",
                         [t for _, t in SWEEP_TOWERS + DEEP_SWEEP_TOWERS],
                         ids=SWEEP_IDS + [name for name, _ in DEEP_SWEEP_TOWERS])
def test_sweeps_match_their_oracle_loops(tower):
    for max_n, cap in sweep_sizes(tower):
        ours = verify_leibniz(tower, max_n, cap)
        assert (ours.checked, ours.violations) == \
            oracle_verify_leibniz(tower, max_n, cap), (max_n, cap)
        ours = verify_module(tower, max_n, cap)
        assert (ours.checked, ours.violations) == \
            oracle_verify_module(tower, max_n, cap), (max_n, cap)


def test_corrupted_towers_show_violations():
    # the violation lists compared above are mostly not empty: 14 of the 16
    # corruptions break a sweep and 7 break the arity-3 coherence
    sweeps = coherence = 0
    for name, tower in corrupted_towers():
        max_n, cap = sweep_sizes(tower)[0]
        sweeps += not (verify_leibniz(tower, max_n, cap).ok
                       and verify_module(tower, max_n, cap).ok)
        coherence += not tower.cached_view().coherence(3).is_zero()
    assert (sweeps, coherence) == (14, 7)


def per_tuple_residuals(tower, n, module_side, algebra=None):
    """Pool-index tuple -> terms of every nonzero arity-n residual on a
    degree-0 tuple, one oracle_leibniz_residual or oracle_module_residual
    call each."""
    tower = tower.cached_view()
    pair = tower.pair
    vs = oracle_basis(pair, pair.dim_b, 0, algebra)
    lasts = oracle_basis(pair, tower.module.dim, 0, algebra) if module_side \
        else vs
    out = {}
    for idx in product(range(len(vs)), repeat=n - 1):
        args = [vs[i] for i in idx]
        for i, last in enumerate(lasts):
            if module_side:
                res = oracle_module_residual(tower, args, last, algebra)
            else:
                res = oracle_leibniz_residual(tower, args + [last], algebra)
            if not res.is_zero():
                out[idx + (i,)] = res.terms
    return out


def tensor_residual_map(tower, n, module_side, algebra=None):
    """The same map as the sweeps read it off their arity-n residual
    tensor."""
    return {idx: el.terms for idx, el in
            _degree0_residuals(tower, n, module_side, algebra).items()}


@pytest.mark.parametrize("name", [name for name, _ in DEEP_TOWERS])
def test_sweep_tensors_match_the_per_tuple_residuals(name):
    tower = dict(DEEP_TOWERS)[name]
    for n in range(1, 5):
        for module_side in (False, True):
            assert tensor_residual_map(tower, n, module_side) == \
                per_tuple_residuals(tower, n, module_side), (n, module_side)


def test_sweep_tensor_comparisons_include_failing_residuals():
    # every corrupted level gives nonzero degree-0 residuals on some fixture,
    # and the clean towers give none
    failing = {}
    for name, tower in DEEP_TOWERS:
        count = sum(len(tensor_residual_map(tower, n, module_side))
                    for n in range(2, 5) for module_side in (False, True))
        level = name.rsplit("_", 1)[1] if "_depth4_" in name else "clean"
        failing[level] = failing.get(level, 0) + count
    assert failing.pop("clean") == 0
    assert sorted(failing) == ["R2", "R3", "R4", "S2", "S3", "S4"]
    assert all(failing.values()), failing


def sl2_towers():
    """The sl2 pair at depth 3, clean and with each level corrupted."""
    pair, conn_b, module, conn_e = next(f[1:] for f in FIXTURES
                                        if f[0] == "sl2")
    return [("sl2", build_tower(pair, conn_b, depth=3, module=module,
                                conn_e=conn_e))] + corrupted_towers(3, ("sl2",))


# towers whose arity-2 and arity-3 tensors the algebra cases read: random2 at
# depth 4, clean and with R_2, R_3, S_2 or S_3 corrupted, and sl2
ALGEBRA_TOWERS = [(name, tower) for name, tower in DEEP_TOWERS
                  if name.startswith("random2")
                  and not name.endswith(("_R4", "_S4"))] + sl2_towers()


def weighted_dual_numbers_of(dim_g):
    # sl2's subalgebra <h, e> scales eps by its character h -> 1, e -> 0
    return weighted_dual_numbers(dict(ALGEBRA_TOWERS)["sl2"].pair, [1, 0])


@pytest.mark.parametrize("family, algebra_of, failing", [
    ("random2", unit_algebra, 4), ("random2", dual_numbers_algebra, 4),
    ("random2", golden_algebra, 4), ("sl2", weighted_dual_numbers_of, 2),
], ids=["unit", "dual_numbers", "golden", "sl2_weighted_dual_numbers"])
def test_algebra_sweep_tensors_match_the_per_tuple_residuals(family,
                                                             algebra_of,
                                                             failing):
    # every random2 corruption and sl2's R_2 and S_2 corruptions give
    # nonzero residuals, so failing ones are compared too
    towers = [(name, tower) for name, tower in ALGEBRA_TOWERS
              if name.startswith(family)]
    nonzero = set()
    for name, tower in towers:
        algebra = algebra_of(tower.pair.dim_g)
        for n in (1, 2, 3):
            for module_side in (False, True):
                ours = tensor_residual_map(tower, n, module_side, algebra)
                assert ours == per_tuple_residuals(tower, n, module_side,
                                                   algebra), \
                    (name, n, module_side)
                if ours:
                    nonzero.add(name)
    assert len(nonzero) == failing and towers[0][0] not in nonzero


@pytest.mark.parametrize("algebra_of", [unit_algebra, dual_numbers_algebra],
                         ids=["unit", "dual_numbers"])
@pytest.mark.parametrize("name", ["u2t2_mult", "random2", "random2_R2",
                                  "random2_S3"])
def test_algebra_sweeps_match_their_oracle_loops(name, algebra_of):
    tower = dict(SWEEP_TOWERS)[name]
    algebra = algebra_of(tower.pair.dim_g)
    ours = verify_leibniz(tower, 2, 1, algebra)
    assert (ours.checked, ours.violations) == \
        oracle_verify_leibniz(tower, 2, 1, algebra)
    ours = verify_module(tower, 2, 1, algebra)
    assert (ours.checked, ours.violations) == \
        oracle_verify_module(tower, 2, 1, algebra)


def test_nested_binary_coherence_is_shuffle_coherence_at_arity_three():
    for name, tower in SWEEP_TOWERS:
        expected = oracle_nested_binary_coherence(tower)
        assert tower.cached_view().coherence(3).data == expected.data, name
        verdicts = {entry: (ok, witness) for entry, ok, witness
                    in check_proof_identities(tower, 0)}
        ok = expected.is_zero()
        assert verdicts["nested_binary_coherence"] == \
            (ok, None if ok else expected.first_nonzero()), name


# -- the factored witness loops and the lemmas behind them ----------------------------


def oracle_witness_entries(tower, cap, limit=None):
    """The skew and Jacobi entries as the witness loops once recorded them:
    every tuple up to the cap that the degree rule keeps, evaluated in product
    order until the first nonzero residual.

    Where the full walk would take too long, limit keeps the first limit
    tuples in product order and a seeded sample of limit of the rest, so an
    early first witness is still the first one."""
    tower = tower.cached_view()
    pair = tower.pair
    elements = oracle_basis(pair, pair.dim_b, min(cap, pair.dim_g))
    diffs = [graded_diff(pair, pair.quotient_module(), el) for el in elements]
    degrees = [el.degree() for el in elements]

    def first(residual, n, extra):
        tuples = [t for t in product(range(len(elements)), repeat=n)
                  if sum(degrees[i] for i in t) + extra <= pair.dim_g]
        if limit is not None and len(tuples) > 2 * limit:
            rest = random.Random(7).sample(tuples[limit:], limit)
            tuples = tuples[:limit] + sorted(rest)
        for t in tuples:
            res = residual(tower, elements, diffs, *t)
            if not res.is_zero():
                return res.first_term()
        return None

    entries = [("skew_symmetry_homotopy", first(skew_residual, 2, 1))]
    if tower.depth >= 3:
        entries.append(("jacobi_homotopy", first(jacobi_residual, 3, 2)))
    return [(name, witness is None, witness) for name, witness in entries]


@pytest.mark.parametrize("tower", [t for _, t in SWEEP_TOWERS], ids=SWEEP_IDS)
def test_witness_loops_match_their_oracle_loops(tower):
    # the other entries do not depend on the cap; at cap 0 no lemma runs.
    # All eight R_2 and R_3 corruptions fail a witness loop (see below), and
    # the first failing tuple is always a degree-0 one.
    others = [entry for entry in check_proof_identities(tower, 0)
              if entry[0] not in ("skew_symmetry_homotopy", "jacobi_homotopy")]
    for cap in (1, 2):
        # the u2t2 loops at cap 2 run 5,056 triples when nothing fails
        limit = 600 if tower.pair.dim_g > 2 and cap > 1 else None
        assert check_proof_identities(tower, cap) == \
            others + oracle_witness_entries(tower, cap, limit), cap


@pytest.mark.parametrize("name", [name for name, _ in SWEEP_TOWERS
                                  if name.endswith(("_R2", "_R3"))])
def test_witness_residuals_factor_through_the_wedge(name):
    # the witness loops evaluate degree-0 tuples only; every cap-1 residual
    # is (-1)^k_1 (omega_0 ^ omega_1 [^ omega_2]) ^ (its degree-0 residual),
    # k_1 the degree of the second entry's form (see homotopy._decorated)
    tower = dict(SWEEP_TOWERS)[name].cached_view()
    pair = tower.pair
    elements = oracle_basis(pair, pair.dim_b, 1)
    diffs = [graded_diff(pair, pair.quotient_module(), el) for el in elements]
    nb = pair.dim_b
    failing = with_forms = 0
    for residual, n in ((skew_residual, 2), (jacobi_residual, 3)):
        degree_0 = {t: residual(tower, elements, diffs, *t)
                    for t in product(range(nb), repeat=n)}
        failing += any(not r.is_zero() for r in degree_0.values())
        for t in product(range(len(elements)), repeat=n):
            forms = [elements[i].first_term()[0][0] for i in t]
            merged, sign = (), -1 if len(forms[1]) % 2 else 1
            for form in forms:
                step = merge_sign(merged, form)
                if step is None:
                    break
                sign *= step[0]
                merged = step[1]
            res = residual(tower, elements, diffs, *t)
            if step is None:
                assert res.is_zero(), t
                continue
            expected = _wedge(merged, degree_0[tuple(i % nb for i in t)], sign)
            assert res.terms == expected.terms, t
            with_forms += bool(merged) and not res.is_zero()
    assert failing
    # on u2t2 (dim g = 4) 225 and 126 residuals with forms are nonzero; on
    # the dim g = 2 pairs most of them lie above the top degree
    assert with_forms or pair.dim_g == 2


def flip_odd_action_sign(ce_table):
    """_ce_table with the sign (-1)^|omega| of the action moves flipped on
    odd-degree forms: each move's value and B-slot terms negated, the
    bracket terms kept."""
    def negated(rows):
        return [[(shift, -re, -im) for shift, re, im in row] for row in rows]

    def mutated(pair, module, k, l):
        moves, *rest = ce_table(pair, module, k, l)
        if k % 2:
            moves = [[(off, negated(value), [negated(rows) for rows in slots])
                      for off, value, slots in row] for row in moves]
        return (moves, *rest)
    return mutated


def drop_first_signed(contract):
    """_contract that forgets the first of its signed positions."""
    def mutated(slices, args, signed, mdim, algebra=None):
        return contract(slices, args, tuple(signed)[1:], mdim, algebra)
    return mutated


@pytest.mark.parametrize("target, mutation, lemma", [
    ("_ce_table", flip_odd_action_sign, "graded_diff_derivation"),
    ("_contract", drop_first_signed, "contract_form_linearity"),
], ids=["derivation", "linearity"])
def test_lemma_checks_catch_sign_mutations(monkeypatch, target, mutation,
                                           lemma):
    import liepairs.homotopy as homotopy

    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=3, module=fx.module_b,
                        conn_e=fx.conn_mult)
    for report in (verify_leibniz(tower, 2, 1), verify_module(tower, 2, 1)):
        assert report.ok
    assert all(ok for _, ok, _ in check_proof_identities(tower, 1))
    monkeypatch.setattr(homotopy, target, mutation(getattr(homotopy, target)))
    for report in (verify_leibniz(tower, 2, 1), verify_module(tower, 2, 1)):
        assert report.violations[0]["identity"] == lemma
    failed = [name for name, ok, _ in check_proof_identities(tower, 1)
              if not ok]
    assert lemma in failed
    # at cap 0 there is nothing to factor and no lemma runs
    assert all(v["identity"] != lemma
               for v in verify_leibniz(tower, 2, 0).violations)


def test_arity_one_residual_maps_agree_under_a_sign_mutation(monkeypatch):
    # d(d(x)) = 0 on working code, so with the action sign flipped on odd
    # forms the arity-1 comparison includes failing residuals.  The sweeps
    # read their term tables through homotopy's _ce_table and the oracles
    # through ce_diff, so both are mutated.
    import liepairs.ce as ce
    import liepairs.homotopy as homotopy

    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=3, module=fx.module_b,
                        conn_e=fx.conn_mult)
    mutated = flip_odd_action_sign(homotopy._ce_table)
    monkeypatch.setattr(homotopy, "_ce_table", mutated)
    monkeypatch.setattr(ce, "_ce_table", mutated)
    for module_side in (False, True):
        ours = tensor_residual_map(tower, 1, module_side)
        assert ours == per_tuple_residuals(tower, 1, module_side)
        assert len(ours) == 4, module_side


def test_effective_module_is_resolved_once_per_sweep_side(monkeypatch):
    import liepairs.homotopy as homotopy

    calls = []

    def counting(*mods):
        calls.append(len(mods))
        return tensor_module(*mods)

    monkeypatch.setattr(homotopy, "tensor_module", counting)
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=3, module=fx.module_b,
                        conn_e=fx.conn_mult)
    algebra = dual_numbers_algebra(fx.pair.dim_g)
    # only the arity-1 tuples and the lemma checks differentiate elements:
    # at arity 2 and up the sweeps read the tower tensors, so at cap 0 the
    # module sweep differentiates on its module side alone
    for sweep, cap, sides in ((verify_leibniz, 0, 1), (verify_leibniz, 1, 1),
                              (verify_module, 0, 1), (verify_module, 1, 2)):
        del calls[:]
        assert sweep(tower, 3, cap, algebra).ok
        assert len(calls) == sides, (sweep.__name__, cap)
    del calls[:]
    check_proof_identities(tower, 1)
    assert not calls


# -- sparse tensor-level proof identities against their dense sums ------------------


def dense_unfold_end(w):
    """An End(B)-valued (k, l) cochain as a B-valued (k, l + 1) one."""
    pair = w.pair
    out = Cochain(pair, pair.quotient_module(), w.k, w.l + 1)
    for gt, bt, f, c in w.iter_nonzero():
        row, col = divmod(f, pair.dim_b)
        out.set(gt, bt + (col,), row, c)
    return out


def dense_coherence(tower, n):
    """The shuffle coherence tensor as a dense sum, composites formed anew."""
    total = ce_diff(tower.r[n])
    for i in range(2, n):
        j = n + 1 - i
        for k in range(j, n + 1):
            part = compose_cochains(tower.r[i], tower.r[j], k - j + 1)
            for sigma in enumerate_shuffles(k - j, j - 1):
                perm = [sigma[m] for m in range(k - 1)] + list(range(k - 1, n))
                scatter_into(total, _add_permuted, part, perm)
    return total


def dense_mixed(tower, n):
    """The mixed differential residual as a dense sum."""
    total = ce_diff(tower.r[n + 1]) \
        + partial_nabla(ce_diff(tower.r[n]), tower.conn_b, tower.conn_b,
                        tower.st)
    scatter_into(total, _add_permuted,
                 compose_cochains(tower.r[2], tower.r[n], 2),
                 list(range(n + 1)))
    for j in range(1, n + 1):
        part = compose_cochains(tower.r[n], tower.r[2], j)
        perm = list(range(1, j)) + [0, j] + list(range(j + 1, n + 1))
        scatter_into(total, _add_permuted, part, perm)
    return total


def dense_tensor_residuals(tower):
    """(name, residual) of each tensor-level identity in report order, each
    summed with dense cochain arithmetic, as check_proof_identities once did."""
    pair = tower.pair
    nb = pair.dim_b
    b = pair.quotient_module()
    beta = Cochain(pair, b, 0, 2)
    for b1, b2, b_out in product(range(nb), repeat=3):
        beta.set((), (b1, b2), b_out, tower.st.beta[b1][b2][b_out])
    r2 = tower.r[2]
    out = [("torsion_antisymmetrization",
            r2 - r2.permute_b_args((1, 0)) - ce_diff(beta))]
    coherence = {n: dense_coherence(tower, n)
                 for n in range(3, tower.depth + 1)}
    if tower.depth >= 3:
        omega = Cochain(pair, end_module(b), 0, 2)
        for b1, b2, row, col in product(range(nb), repeat=4):
            omega.set((), (b1, b2), row * nb + col,
                      tower.st.omega[b1][b2][row, col])
        r3 = tower.r[3]
        out.append(("ternary_symmetry_defect",
                    r3 - r3.permute_b_args((1, 0, 2))
                    - compose_cochains(r2, beta, 1)
                    + dense_unfold_end(ce_diff(omega))))
        out.append(("nested_binary_coherence", coherence[3]))
    out += [("mixed_differential_n%d" % n, dense_mixed(tower, n))
            for n in range(2, tower.depth)]
    out += [("shuffle_coherence_n%d" % n, w) for n, w in coherence.items()]
    return out


def dense_tensor_entries(tower):
    return [(name, w.is_zero(), w.first_nonzero())
            for name, w in dense_tensor_residuals(tower)]


def nonzero_map(items):
    return {pos: v for pos, v in items if not v.is_zero()}


def gl3_tower():
    fx = gl_un_tn(3)
    return build_tower(fx.pair, fx.conn_mult, depth=3)


def proof_towers():
    """The 25 depth-3 sweep towers (9 zoo and random, 16 corrupted in
    place), the 9 zoo and random towers at depth 4 and gl(3) at depth 3."""
    deep = [(name + "_depth4", build_tower(pair, conn_b, depth=4))
            for name, pair, conn_b, _, _ in FIXTURES]
    return SWEEP_TOWERS + deep + [("gl3", gl3_tower())]


PROOF_TOWERS = proof_towers()


@pytest.mark.parametrize("tower", [t for _, t in PROOF_TOWERS],
                         ids=[name for name, _ in PROOF_TOWERS])
def test_sparse_residuals_match_their_dense_sums(tower):
    dense = dict(dense_tensor_residuals(tower))
    sparse = tensor_residuals(tower)
    assert [name for name, _ in sparse] == list(dense)
    for name, residual in sparse:
        w = dense[name]
        assert (residual.k, residual.l) == (w.k, w.l), name
        assert nonzero_map(residual.entries.items()) == \
            nonzero_map(enumerate(w.data)), name
    # verdicts and witnesses: the full list at cap 0 (caps 1 and 2 below)
    expected = [(name, w.is_zero(), w.first_nonzero())
                for name, w in dense.items()]
    assert check_proof_identities(tower, 0) == \
        expected + oracle_witness_entries(tower, 0)


@pytest.mark.parametrize("tower", [t for _, t in SWEEP_TOWERS], ids=SWEEP_IDS)
def test_proof_identity_lists_match_their_dense_oracles(tower):
    expected = dense_tensor_entries(tower)
    for cap in (1, 2):
        limit = 600 if tower.pair.dim_g > 2 and cap > 1 else None
        assert check_proof_identities(tower, cap) == \
            expected + oracle_witness_entries(tower, cap, limit), cap


def test_corrupted_towers_fail_tensor_identities():
    # the dense oracles are compared with failing residuals too: each of the
    # 8 R_2 and R_3 corruptions breaks a tensor-level identity
    failing = sum(not all(ok for _, ok, _ in dense_tensor_entries(tower))
                  for name, tower in SWEEP_TOWERS
                  if name.endswith(("_R2", "_R3")))
    assert failing == 8


def test_proof_terms_are_formed_once_per_check(monkeypatch):
    import liepairs.homotopy as homotopy

    calls = {"_ce_into": 0, "_compose_into": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(homotopy, name, counting(name, getattr(homotopy,
                                                                   name)))
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=4)
    check_proof_identities(tower, 0)
    # d R_2, d R_3, d R_4 and d(beta); R_2 o R_2 at slots 1 and 2, R_2 o R_3
    # at slots 1 and 2, R_3 o R_2 at slots 1 to 3 and R_2 o beta
    assert calls == {"_ce_into": 4, "_compose_into": 8}


@settings(derandomize=True, database=None, max_examples=24, deadline=None)
@given(seed=st.integers(0, 60), level=st.sampled_from([2, 3]),
       where=st.integers(0, 10 ** 6),
       bump=st.sampled_from([ONE, GaussScalar(-2), GaussScalar(1, 1)]))
def test_sparse_and_dense_verdicts_agree_on_corrupted_towers(seed, level,
                                                              where, bump):
    pair = random_pair(seed)
    tower = build_tower(pair, random_extension(pair, pair.quotient_module(),
                                               seed), depth=3)
    data = tower.r[level].data
    if data:
        data[where % len(data)] = data[where % len(data)] + bump
    expected = dense_tensor_entries(tower)
    assert check_proof_identities(tower, 0)[:len(expected)] == expected


# -- one state per verify run ----------------------------------------------------------


def verify_run(tower, max_n, cap, algebra=None):
    """The three checks of `liepairs verify`, in its order, on one shared
    state when tower is a cached view and each on its own otherwise: every
    sweep's identity, count and violations, then the proof identity
    triples."""
    reports = [verify_leibniz(tower, max_n, cap, algebra)]
    if tower.module is not None:
        reports.append(verify_module(tower, max_n, cap, algebra))
    identities = check_proof_identities(tower, min(cap, 2))
    return [(r.identity, r.checked, r.violations) for r in reports], identities


def run_cases():
    """(name, tower, max_n, degree cap, algebra): five pairs at depth 4 with
    their module side, u2t2 at cap 3 without one (the sweep and the witness
    brackets check the lemmas at caps 3 and 2), u2t2 with the dual numbers,
    and the depth-4 towers with one entry of R_3 or S_3 changed."""
    fixtures = {f[0]: f[1:] for f in FIXTURES}
    cases = []
    for name in ("u2t2_mult", "u2t2_zero", "bialgebra", "heisenberg",
                 "random2"):
        pair, conn_b, module, conn_e = fixtures[name]
        cases.append((name, build_tower(pair, conn_b, depth=4, module=module,
                                        conn_e=conn_e), 4, 1, None))
    pair, conn_b, module, conn_e = fixtures["u2t2_mult"]
    cases.append(("u2t2_mult_no_module", build_tower(pair, conn_b, depth=3),
                  3, 3, None))
    cases.append(("u2t2_mult_dual_numbers",
                  build_tower(pair, conn_b, depth=3, module=module,
                              conn_e=conn_e),
                  3, 1, dual_numbers_algebra(pair.dim_g)))
    return cases + [(name, tower, 4, 1, None) for name, tower in DEEP_TOWERS
                    if name.endswith(("_R3", "_S3"))]


RUN_CASES = run_cases()


@pytest.mark.parametrize("case", RUN_CASES, ids=[c[0] for c in RUN_CASES])
def test_shared_run_matches_checks_called_alone(case):
    name, tower, max_n, cap, algebra = case
    shared = verify_run(tower.cached_view(), max_n, cap, algebra)
    assert shared == verify_run(tower, max_n, cap, algebra)
    sweeps, identities = shared
    failing = any(violations for _, _, violations in sweeps) \
        or not all(ok for _, ok, _ in identities)
    assert failing == name.endswith(("_R3", "_S3"))


@pytest.mark.parametrize("target, mutation, lemma", [
    ("_ce_table", flip_odd_action_sign, "graded_diff_derivation"),
    ("_contract", drop_first_signed, "contract_form_linearity"),
], ids=["derivation", "linearity"])
def test_shared_run_reports_a_failing_lemma_everywhere(monkeypatch, target,
                                                       mutation, lemma):
    # a lemma instance checked once per run still fails every report that
    # shows it when each check runs alone, with the same where and witness
    import liepairs.homotopy as homotopy

    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=3, module=fx.module_b,
                        conn_e=fx.conn_mult)
    monkeypatch.setattr(homotopy, target, mutation(getattr(homotopy, target)))
    shared = verify_run(tower.cached_view(), 2, 1)
    assert shared == verify_run(tower, 2, 1)
    sweeps, identities = shared
    assert [violations[0]["identity"] for _, _, violations in sweeps] == \
        [lemma, lemma]
    assert lemma in [name for name, ok, _ in identities if not ok]


def test_a_shared_view_checks_the_algebra_once(monkeypatch):
    import liepairs.homotopy as homotopy

    calls = []

    def counting(*args):
        calls.append(args)
        return check_g_algebra(*args)

    monkeypatch.setattr(homotopy, "check_g_algebra", counting)
    view = u2t2_module_tower().cached_view()
    algebra = dual_numbers_algebra(view.pair.dim_g)
    assert verify_leibniz(view, 2, 1, algebra).ok
    assert verify_module(view, 2, 1, algebra).ok
    assert len(calls) == 1


def test_a_shared_view_builds_the_torsion_once(monkeypatch):
    # the torsion antisymmetrization and theta_witness's slices read one
    # torsion cochain
    import liepairs.homotopy as homotopy

    calls = []
    build = homotopy._torsion_cochain

    def counting(tower):
        calls.append(tower)
        return build(tower)

    monkeypatch.setattr(homotopy, "_torsion_cochain", counting)
    fx = gl_un_tn(2)
    view = build_tower(fx.pair, fx.conn_zero, depth=3).cached_view()
    assert all(ok for _, ok, _ in check_proof_identities(view, 1))
    assert len(calls) == 1


def test_checks_read_a_tower_edited_in_place():
    # no slice cache to clear: a check reads the tower as it stands, so an
    # entry of R_3 changed in place after a passing check fails the next
    # one, homotopy witnesses included, as on a tower built with the change
    bpair = matched_sum(affine_bialgebra())
    conn_b = extend_by_zero(bpair, bpair.quotient_module())
    tower = build_tower(bpair, conn_b, depth=4)
    assert all(ok for _, ok, _ in check_proof_identities(tower, 2))
    assert verify_leibniz(tower, 4, 2).ok
    edited = build_tower(bpair, conn_b, depth=4)
    for t in (tower, edited):
        t.r[3].data[0] = t.r[3].data[0] + ONE
    identities = check_proof_identities(tower, 2)
    assert identities == check_proof_identities(edited, 2)
    assert "jacobi_homotopy" in [name for name, ok, _ in identities if not ok]
    report, fresh = verify_leibniz(tower, 4, 2), verify_leibniz(edited, 4, 2)
    assert (report.checked, report.violations) == \
        (fresh.checked, fresh.violations)


def test_verify_forms_each_term_and_checks_each_lemma_once(monkeypatch, capsys,
                                                            tmp_path):
    import liepairs.homotopy as homotopy

    calls = Counter()

    def entries(w):
        return w.k, w.l, w.module.dim, tuple(w.iter_nonzero())

    def counting(name, key):
        fn = getattr(homotopy, name)

        def wrapper(*args):
            calls[(name,) + key(*args)] += 1
            return fn(*args)
        monkeypatch.setattr(homotopy, name, wrapper)

    counting("_ce_into", lambda total, w, sign=1: (entries(w), sign))
    counting("_compose_into", lambda total, outer, inner, slot, sign=1:
             (entries(outer), entries(inner), slot, sign))
    counting("_coherence_into", lambda total, terms, n: (n,))
    counting("_derivation_failure", lambda terms, side, *rest: (side,))
    counting("_linearity_failure", lambda terms, bracket, *rest: (bracket[0],))
    counting("lambda_k", lambda tower, args, *rest: (len(args),))
    counting("mu_k", lambda tower, vargs, w, *rest: (len(vargs) + 1,))
    assert main(["zoo", "export", "u2t2"]) == 0
    path = tmp_path / "u2t2.json"
    path.write_text(capsys.readouterr().out)
    assert main(["verify", "--input", str(path), "--connection", "matrix_mult",
                 "--depth", "4", "--max-n", "4", "--degree-cap", "1",
                 "--module", "B", "--json"]) == 0
    # every kernel input, lemma instance and coherence arity is seen once
    once = [key for key in calls if key[0] not in ("lambda_k", "mu_k")]
    assert all(calls[key] == 1 for key in once)
    # d R_2..R_4, d(beta) and d S_2..S_4; R_2 o R_2 at slots 1 and 2, R_2 o
    # R_3 at 1 and 2, R_3 o R_2 at 1 to 3, R_2 o beta, S_2 o R_2, S_3 o R_2
    # at 1 and 2 and S_2 o R_3; the coherence tensors at arities 2 to 4
    assert Counter(key[0] for key in once) == {
        "_ce_into": 7, "_compose_into": 12, "_coherence_into": 3,
        "_derivation_failure": 2, "_linearity_failure": 9}
    assert {key[1] for key in once if key[0] == "_derivation_failure"} == \
        {"v", "w"}
    # each bracket of arity k >= 2 is evaluated only by its linearity check:
    # two argument tuples, each once as it is and once per position and
    # basis form of positive degree (u2t2 has 4 of degree 1)
    assert {key: n for key, n in calls.items() if key[0] in ("lambda_k", "mu_k")
            and key[1] >= 2} == {(name, k): 2 * (1 + 4 * k)
                                 for name in ("lambda_k", "mu_k")
                                 for k in (2, 3, 4)}


# -- the homotopy witnesses read off the run's tensors ---------------------------------


def witness_towers():
    """(name, tower): u2t2 with both connections, the affine bialgebra sum,
    heisenberg (dim g = 1, below the Jacobi witness's form degree 2) and
    random_pair(0..3), at depth 3, clean and with one entry of R_2 or R_3
    changed in place: a nonzero one and a seeded one of each level."""
    fx = gl_un_tn(2)
    bpair = matched_sum(affine_bialgebra())
    hpair = heisenberg_pair()
    fixtures = [("u2t2_mult", fx.pair, fx.conn_mult),
                ("u2t2_zero", fx.pair, fx.conn_zero),
                ("bialgebra", bpair,
                 extend_by_zero(bpair, bpair.quotient_module())),
                ("heisenberg", hpair,
                 random_extension(hpair, hpair.quotient_module(), 3))]
    for seed in range(4):
        rpair = random_pair(seed)
        fixtures.append(("random_pair%d" % seed, rpair, random_extension(
            rpair, rpair.quotient_module(), seed)))
    out = []
    for name, pair, conn_b in fixtures:
        out.append((name, build_tower(pair, conn_b, depth=3)))
        rng = random.Random(name + "/witness")
        for n, nonzero in product((2, 3), (True, False)):
            tower = build_tower(pair, conn_b, depth=3)
            data = tower.r[n].data
            picks = [i for i, x in enumerate(data) if not x.is_zero()]
            pos = rng.choice(picks) if nonzero and picks \
                else rng.randrange(len(data))
            data[pos] = data[pos] + GaussScalar(1, rng.choice([0, 1]))
            out.append(("%s_R%d_%s" % (name, n, "nonzero" if nonzero
                                       else "seeded"), tower))
    return out


WITNESS_TOWERS = witness_towers()


def test_witness_entries_match_the_per_tuple_loops_they_replaced():
    # at cap 0 oracle_witness_entries walks the degree-0 pairs and triples in
    # product order, through the residuals check_proof_identities once
    # evaluated tuple by tuple (skew_residual, jacobi_residual), with its
    # guards; the entries now come from the torsion antisymmetrization and
    # the arity-3 coherence tensor.  Every triple is compared at caps 0 to 2.
    witness_names = ("skew_symmetry_homotopy", "jacobi_homotopy")
    failing = Counter()
    for name, tower in WITNESS_TOWERS:
        replaced = oracle_witness_entries(tower, 0)
        for cap in (0, 1, 2):
            entries = check_proof_identities(tower, cap)
            others = [e for e in entries if e[0] not in witness_names]
            assert entries == others + replaced, (name, cap)
        failing.update(entry[0] for entry in replaced if not entry[1])
    # failing witnesses are compared too; heisenberg's Jacobi entry is the
    # guard's pass, whatever its tower
    assert failing == {"jacobi_homotopy": 15, "skew_symmetry_homotopy": 7}
    assert all(dict((e[0], e[1]) for e in check_proof_identities(tower, 0))
               ["jacobi_homotopy"] for name, tower in WITNESS_TOWERS
               if name.startswith("heisenberg"))


# -- brackets on a tower read it as it stands -------------------------------------------


def bracket_probes(tower):
    """The first nonzero entries of R_2 and S_2 and the brackets on their
    basis tuples, as (name, bracket, key of the entry's term)."""
    pair = tower.pair
    gt, bt, e, _ = next(tower.r[2].iter_nonzero())
    args = [GradedElement.basis(pair, pair.dim_b, (), b) for b in bt]
    gs, bs, f, _ = next(tower.s[2].iter_nonzero())
    out, e_in = divmod(f, tower.module.dim)
    vargs = [GradedElement.basis(pair, pair.dim_b, (), b) for b in bs]
    w = GradedElement.basis(pair, tower.module.dim, (), e_in)
    return [("lambda_2", lambda t: lambda_k(t, args), (gt, e)),
            ("two_bracket", lambda t: two_bracket(t, *args), (gt, e)),
            ("mu_2", lambda t: mu_k(t, vargs, w), (gs, out))]


def add_one_to_first_nonzeros(tower):
    for w in (tower.r[2], tower.s[2]):
        pos = next(i for i, x in enumerate(w.data) if not x.is_zero())
        w.data[pos] = w.data[pos] + ONE


def u2t2_module_tower():
    fx = gl_un_tn(2)
    return build_tower(fx.pair, fx.conn_mult, depth=3, module=fx.module_b,
                       conn_e=fx.conn_mult)


def test_brackets_read_a_tower_edited_in_place():
    # a bracket called on a tower groups its slices afresh: adding 1 to a
    # nonzero entry of R_2 or S_2 moves the bracket on the entry's basis
    # tuple by exactly 1 at the entry's (form, output)
    tower = u2t2_module_tower()
    probes = bracket_probes(tower)
    before = {name: bracket(tower) for name, bracket, _ in probes}
    add_one_to_first_nonzeros(tower)
    for name, bracket, key in probes:
        assert (bracket(tower) - before[name]).terms == {key: ONE}, name


def test_a_cached_view_groups_each_slice_once():
    # the view a verify run reads keeps the slices it grouped, so an edit
    # made after its first bracket call is not seen by it
    tower = u2t2_module_tower()
    view = tower.cached_view()
    probes = bracket_probes(tower)
    before = {name: bracket(view) for name, bracket, _ in probes}
    add_one_to_first_nonzeros(tower)
    for name, bracket, _ in probes:
        assert bracket(view) == before[name] != bracket(tower), name


# -- the symmetry scan ------------------------------------------------------------------


def dense_symmetry_report(tower):
    """symmetry_report as it compared each level with a dense permuted copy
    (permute_b_args) for every adjacent swap."""
    out = {}
    for n in sorted(tower.r):
        tensor = tower.r[n]
        verdict = {"fully_symmetric": True, "witness": None}
        for pos in range(n - 1):
            perm = list(range(n))
            perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
            swapped = tensor.permute_b_args(perm)
            if swapped.data != tensor.data:
                verdict["fully_symmetric"] = False
                verdict["witness"] = {"n": n, "swap_position": pos,
                                      "entry": (tensor - swapped)
                                      .first_nonzero()}
                break
        out[n] = verdict
    out["is_symmetric_tower"] = all(
        v["fully_symmetric"] for k, v in out.items() if isinstance(k, int))
    return out


def test_symmetry_scan_matches_the_dense_permuted_copies():
    # u2t2 at depth 5 with both connections, clean and with one entry of one
    # level changed in place: the matrix_mult tower is symmetric, the zero
    # extension's is not, and each edit breaks its level's symmetry
    fx = gl_un_tn(2)
    verdicts = Counter()
    for conn_name, conn_b in (("mult", fx.conn_mult), ("zero", fx.conn_zero)):
        clean = build_tower(fx.pair, conn_b, depth=5)
        towers = [clean]
        rng = random.Random("symmetry/" + conn_name)
        for _ in range(6):
            n = rng.randint(2, 5)
            r = dict(clean.r)
            r[n] = clean.r[n].copy()
            pos = rng.randrange(len(r[n].data))
            r[n].data[pos] = r[n].data[pos] + GaussScalar(1, rng.choice([0, 1]))
            towers.append(BracketTower(fx.pair, conn_b, 5, clean.st, r))
        for tower in towers:
            expected = dense_symmetry_report(tower)
            assert symmetry_report(tower) == expected
            verdicts.update(v["fully_symmetric"] for k, v in expected.items()
                            if isinstance(k, int))
    assert verdicts == {True: 22, False: 34}


# -- the flat-position kernels against the kernels they replaced -------------------


def exact_value(rng):
    """A nonzero Gaussian rational, integral or not, real or not."""
    while True:
        x = GaussScalar(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
                        rng.choice([0, 0, Fraction(rng.randint(-2, 2),
                                                   rng.choice([1, 2]))]))
        if x:
            return x


def sparse_cochain(rng, pair, module, k, l, count=8):
    """A cochain with count nonzeros at seeded positions."""
    w = Cochain(pair, module, k, l)
    for pos in rng.sample(range(w.size), min(count, w.size)):
        w.entries[pos] = exact_value(rng)
    return w


def with_cancelled_zeros(w, rng, count=4):
    """A copy of w that also stores zeros, as a sum that cancels leaves
    them, at position 0 and at seeded positions w lacks."""
    out = w.copy()
    free = [pos for pos in range(w.size) if pos not in w.entries]
    for pos in free[:1] + rng.sample(free[1:], min(count - 1, len(free[1:]))):
        x = exact_value(rng)
        out.entries[pos] = x - x
    return out


def corrupted(w, rng):
    """A copy of w with one seeded entry changed."""
    out = w.copy()
    pos = rng.randrange(w.size)
    out.entries[pos] = out.entries.get(pos, ZERO) + GaussScalar(
        1, rng.choice([0, 1]))
    return out


def flat_kernel_cases(fixture):
    """The tower of a fixture at depth 4 with its module side; (label,
    cochain, connection on its values) inputs: its levels R_n and S_n, and
    seeded sparse cochains with Gaussian and fractional values, B-, End(B)-
    and End(E)-valued, each as it is, with cancelled zeros stored and with
    one entry corrupted; and the B- and module-valued argument pools of
    the bracket layer (see argument_pools)."""
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/flat")
    tower = build_tower(pair, conn_b, depth=4, module=module, conn_e=conn_e)
    b = pair.quotient_module()
    end_b, end_e = end_module(b), end_module(module)
    conn_end = end_connection(conn_e)
    base = [("R%d" % n, w, conn_b) for n, w in tower.r.items()]
    base += [("S%d" % n, w, conn_end) for n, w in tower.s.items()]
    base.append(("atiyah", atiyah_cocycle(conn_b), None))
    for k in range(min(pair.dim_g, 2) + 1):
        for l in range(4):
            base.append(("B%d%d" % (k, l), sparse_cochain(rng, pair, b, k, l),
                         conn_b))
            base.append(("E%d%d" % (k, l),
                         sparse_cochain(rng, pair, end_e, k, l), conn_end))
            base.append(("EndB%d%d" % (k, l),
                         sparse_cochain(rng, pair, end_b, k, l), None))
    cases = []
    for label, w, conn in base:
        cases += [(label, w, conn),
                  (label + "+zeros", with_cancelled_zeros(w, rng), conn),
                  (label + "+corrupt", corrupted(w, rng), conn)]
    return tower, cases, (v_pool(tower, rng), w_pool(tower, rng))


def by_form_and_out(slices):
    """Slices with each slice's hits in (form, out) order, the flat order
    within a slice."""
    return {key: sorted(hits, key=lambda hit: hit[:2])
            for key, hits in slices.items()}


def flat_kernel_mismatches(fixture, built=None):
    """Labels of the inputs on which a flat-position kernel and the kernel it
    replaced (tests/oracles.py) disagree, summed into an empty total and into
    a seeded nonzero one: _add_permuted on single permutations and on signed
    sets of them (which must also equal its single calls), _ce_into,
    _nabla_into (also against own_table_nabla_into, the kernel it was before
    it read the differential's table), _compose_into, _chain_into, _slices,
    _unfold_end, first_nonzero and the bracket layer ("bracket" labels, see
    bracket_layer_mismatches).  built is flat_kernel_cases(fixture), built
    here when not given."""
    tower, cases, pools = built or flat_kernel_cases(fixture)
    pair, st, conn_b = tower.pair, tower.st, tower.conn_b
    rng = random.Random(fixture[0] + "/mismatch")
    found = []

    def compare(label, shape, new, old):
        """new(total) against old(total) from an empty and from a seeded
        total of the given (module, k, l)."""
        for start in (Cochain(pair, *shape),
                      sparse_cochain(rng, pair, *shape)):
            got, expected = start.copy(), start.copy()
            new(got)
            old(expected)
            if got != expected:
                found.append(label)

    for label, w, conn in cases:
        shape = (w.module, w.k, w.l)
        perms = list(permutations(range(w.l)))
        for perm in rng.sample(perms, min(len(perms), 6)):
            compare("permute %s %s" % (label, perm), shape,
                    lambda t: scatter_into(t, _add_permuted, w, perm),
                    lambda t: replaced_add_permuted(t, w, perm))
        chosen = [rng.choice(perms) for _ in range(3)]
        signs = [rng.choice([1, -1]) for _ in chosen]
        compare("permute %s %s %s" % (label, chosen, signs), shape,
                lambda t: scatter_into(t, _add_permuted, w, *chosen,
                                       signs=signs),
                lambda t: [replaced_add_permuted(t, -w if sign < 0 else w,
                                                 perm)
                           for perm, sign in zip(chosen, signs)])
        compare("permute %s one by one" % label, shape,
                lambda t: scatter_into(t, _add_permuted, w, *chosen,
                                       signs=signs),
                lambda t: [scatter_into(t, _add_permuted, w, perm,
                                        signs=[sign])
                           for perm, sign in zip(chosen, signs)])
        compare("diff " + label, (w.module, w.k + 1, w.l),
                lambda t: scatter_into(t, _ce_into, w),
                lambda t: replaced_ce_into(t, w))
        if conn is not None and w.l < 3:
            compare("nabla " + label, (w.module, w.k, w.l + 1),
                    lambda t: scatter_into(t, _nabla_into, w, conn, conn_b,
                                           st),
                    lambda t: replaced_nabla_into(t, w, conn, conn_b, st))
            compare("nabla %s own table" % label, (w.module, w.k, w.l + 1),
                    lambda t: scatter_into(t, _nabla_into, w, conn, conn_b,
                                           st),
                    lambda t: scatter_into(t, own_table_nabla_into, w, conn,
                                           conn_b, st))
        if w.first_nonzero() != replaced_first_nonzero(w):
            found.append("first_nonzero " + label)
        end_e_valued = label.startswith(("S", "E")) \
            and not label.startswith("EndB")
        dim_in = tower.module.dim if end_e_valued else None
        if by_form_and_out(tuple_keyed_slices(
                _slices(w, dim_in), w.l + bool(dim_in), pair,
                dim_in or pair.dim_b)) != \
                by_form_and_out(replaced_slices(w, dim_in)):
            found.append("slices " + label)
        if label.startswith(("EndB", "atiyah")) and \
                _unfold_end(w) != replaced_unfold_end(w):
            found.append("unfold " + label)
    b_valued = [case for case in cases if case[0].startswith(("R", "B"))]
    e_valued = [case for case in cases if case[0].startswith(("S", "E"))
                and not case[0].startswith("EndB")]
    for (o_label, outer, _), (i_label, inner, _) in rng.sample(
            list(product(b_valued + e_valued, b_valued)), 60):
        if outer.l and outer.l + inner.l <= 5:
            for slot in range(1, outer.l + 1):
                compare("compose %s %s %d" % (o_label, i_label, slot),
                        (outer.module, outer.k + inner.k,
                         outer.l + inner.l - 1),
                        lambda t: scatter_into(t, _compose_into, outer,
                                               inner, slot),
                        lambda t: replaced_compose_into(t, outer, inner, slot))
    dim_e = tower.module.dim
    for (o_label, outer, _), (i_label, inner, _) in rng.sample(
            list(product(e_valued, repeat=2)), 40):
        if outer.l + inner.l <= 4:
            compare("chain %s %s" % (o_label, i_label),
                    (outer.module, outer.k + inner.k, outer.l + inner.l),
                    lambda t: scatter_into(t, _chain_into, outer, inner,
                                           dim_e),
                    lambda t: replaced_chain_into(t, outer, inner, dim_e))
    return found + bracket_layer_mismatches(tower, pools, fixture[0])


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_differential_matches_the_replaced_path(fixture):
    # diff_matrix column by column, and ce_diff into an empty total, a seeded
    # one and one its image cancels, against the path that built each output
    # form as a tuple: in every degree k <= dim g on up to two B-slots, on B
    # and on the fixture's module, with Gaussian and fractional values, and
    # with zeros written through data
    name, pair, _, module, _ = fixture
    rng = random.Random(name + "/differential")
    for base in (pair.quotient_module(), module):
        for k in range(pair.dim_g + 1):
            for l in range(3):
                table = replaced_ce_table(pair, base, l)
                shape = Cochain(pair, base, k, l)
                mat = diff_matrix(pair, base, k, l)
                for col in range(shape.size):
                    image = replaced_ce_image(shape, table, {col: ONE})
                    assert mat.col(col) == [image.get(row, ZERO)
                                            for row in range(mat.rows)]
                w = sparse_cochain(rng, pair, base, k, l)
                zeros = w.copy()
                for pos in rng.sample(range(w.size), min(3, w.size)):
                    if pos not in w.entries:
                        x = exact_value(rng)
                        zeros.data[pos] = x - x
                for v in (w, zeros):
                    expected = Cochain(pair, base, k + 1, l)
                    replaced_ce_into(expected, v)
                    seeded = sparse_cochain(rng, pair, base, k + 1, l)
                    for start in (Cochain(pair, base, k + 1, l), seeded,
                                  seeded - expected):
                        got, want = start.copy(), start.copy()
                        scatter_into(got, _ce_into, v)
                        replaced_ce_into(want, v)
                        assert got == want, (k, l)
                        assert all(got.entries.values()), (k, l)
                    assert ce_diff(v) == expected


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_flat_kernels_match_the_kernels_they_replaced(fixture):
    assert flat_kernel_mismatches(fixture) == []


# (table, mutation, the kernels that read the table): ce._merge_table is
# also read under its name in homotopy, by _nabla_into, the products and
# the bracket layer, and ce._acting builds the moves on the value and the
# B-slots of both derivations, d and _nabla_into.  No mutation of _acting
# can show under both on every fixture: d has no such move on heisenberg
# (B and the modules there are trivial), and _nabla_into none on sl2,
# u2t2_zero and bialgebra (no connection along B on B or on End(E))
TABLE_MUTATIONS = [("_digit_tables", digit_table_off_by_one, ("permute",)),
                   ("_merge_table", merge_table_sign_flip,
                    ("diff", "nabla", "compose", "chain", "bracket")),
                   ("_acting", acting_sign_flip, ("diff", "nabla"))]


@pytest.mark.parametrize("name, mutate, kernels", TABLE_MUTATIONS,
                         ids=[m[0] for m in TABLE_MUTATIONS])
def test_the_differential_test_catches_table_mutations(monkeypatch, name,
                                                       mutate, kernels):
    # a digit-table off-by-one, a merge-table sign flip and a sign flip of
    # the derivations' operator moves, each caught on every zoo fixture by
    # the kernels that read the table, and each of those kernels caught on
    # some fixture.  The inputs are built first: the towers' own
    # differential check would refuse a flipped wedge.
    built = [flat_kernel_cases(fixture) for fixture in FIXTURES]
    mutated = mutate(getattr(ce, name))
    for layer in (ce, homotopy):
        if hasattr(layer, name):
            monkeypatch.setattr(layer, name, mutated)
    caught = set()
    for fixture, cases in zip(FIXTURES, built):
        found = flat_kernel_mismatches(fixture, cases)
        assert found and all(label.startswith(kernels) for label in found), \
            fixture[0]
        caught.update(label.split()[0] for label in found)
    assert caught == set(kernels)


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_first_nonzero_is_the_first_decoded_entry(fixture):
    # on the tower levels and the tensor-level residuals, and on each with
    # zeros stored before its first nonzero
    tower = flat_kernel_cases(fixture)[0]
    tensors = list(tower.r.values()) + list(tower.s.values())
    tensors += [w for _, w in tensor_residuals(tower)]
    rng = random.Random(fixture[0] + "/first")
    zeros = 0
    for w in tensors + [with_cancelled_zeros(w, rng) for w in tensors]:
        first = next(iter(w.iter_nonzero()), None)
        assert w.first_nonzero() == (None if first is None else {
            "g": first[0], "b": first[1], "e": first[2],
            "value": str(first[3])})
        zeros += any(not c for c in w.entries.values())
    assert zeros >= sum(len(w.entries) < w.size for w in tensors)


def test_tower_levels_store_only_their_nonzeros():
    # a sum that cancels stores nothing: the u2t2 tower with the matrix
    # connection once stored 62, 126 and 214 entries for R_3..R_5 and for
    # S_3..S_5, and d R_2 = 0 stores none
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=5, module=fx.module_b,
                        conn_e=fx.conn_mult)
    for levels in (tower.r, tower.s):
        assert [len(levels[n].entries) for n in (3, 4, 5)] == [50, 90, 142]
        assert all(all(levels[n].entries.values()) for n in (3, 4, 5))
    assert not tower.d(2).entries


# -- the bracket layer against the tuple-keyed layer it replaced -------------------


def to_element(tk):
    """The GradedElement holding a TupleKeyedElement's terms."""
    return GradedElement(tk.pair, tk.mdim, tk.cdim, tk.terms)


def tuple_keyed_layer(patch):
    """Replace homotopy's bracket layer, _contract, _wedge, _diff and
    _decorated, through patch (a MonkeyPatch) by the tuple-keyed bodies it
    replaced (tests/oracles.py), each output read back as a GradedElement."""
    def contract(slices, args, signed, mdim, algebra=None):
        return to_element(tuple_keyed_contract(
            tuple_keyed_slices(slices, len(args), args[0].pair, mdim),
            args, signed, mdim, algebra))

    def wedge(omega, el, sign=1):
        return to_element(tuple_keyed_wedge(omega, el, sign))

    def diff(table_of, el):
        degrees = {len(key[0]) for key in el.terms}
        return to_element(tuple_keyed_diff({k: table_of(k) for k in degrees},
                                           el, el.cdim))

    def decorated(*args):
        return [(fs, bs, to_element(res))
                for fs, bs, res in tuple_keyed_decorated(*args)]

    for name, body in (("_contract", contract), ("_wedge", wedge),
                       ("_diff", diff), ("_decorated", decorated)):
        patch.setattr(homotopy, name, body)


def bracket_layer_outputs(tower, pools, seed, algebra=None):
    """{label: (decoded terms, first term)} of the bracket layer on
    arguments drawn from pools, (B-valued pools, module-valued pools) (see
    argument_pools): the unary brackets, a form wedged on with either sign,
    lambda_k and mu_k at every arity the tower holds, and without an
    algebra the binary bracket and the two witnesses."""
    rng = random.Random(seed + "/outputs")
    vpools, wpools = pools
    forms = [f for k in (1, 2) for f in exterior_basis(tower.pair.dim_g, k)]
    out = {}
    for i, args in enumerate(draw(rng, vpools, 4, 16)):
        (w,) = draw(rng, wpools, 1, 1)[0]
        out["lambda_1 %d" % i] = lambda_k(tower, args[:1], algebra)
        out["mu_1 %d" % i] = mu_k(tower, [], w, algebra)
        out["wedge %d" % i] = _wedge(rng.choice(forms), args[0],
                                     rng.choice([1, -1]))
        for k in range(2, tower.depth + 1):
            out["lambda_%d %d" % (k, i)] = lambda_k(tower, args[:k], algebra)
            out["mu_%d %d" % (k, i)] = mu_k(tower, args[:k - 1], w, algebra)
        if algebra is None:
            out["two %d" % i] = two_bracket(tower, *args[:2])
            out["theta %d" % i] = theta_witness(tower, *args[:2])
            out["xi %d" % i] = xi_witness(tower, *args[:3])
    return {label: (dict(el.terms), el.first_term())
            for label, el in out.items()}


def bracket_layer_mismatches(tower, pools, seed, algebra=None):
    """Labels ("bracket ...") of the bracket-layer outputs (see
    bracket_layer_outputs) and of the sums, differences, negatives and
    multiples of drawn B-valued elements on which the flat-position layer
    and the tuple-keyed one it replaced differ, in decoded terms or in
    first term."""
    ours = bracket_layer_outputs(tower, pools, seed, algebra)
    with pytest.MonkeyPatch.context() as patch:
        tuple_keyed_layer(patch)
        theirs = bracket_layer_outputs(tower, pools, seed, algebra)
    found = ["bracket " + label for label, out in ours.items()
             if out != theirs[label]]
    rng = random.Random(seed + "/arithmetic")
    for i, (a, b) in enumerate(draw(rng, pools[0], 2, 24)):
        s = exact_value(rng)
        a_old, b_old = TupleKeyedElement.of(a), TupleKeyedElement.of(b)
        for op, new, old in (("+", a + b, a_old + b_old),
                             ("-", a - b, a_old - b_old),
                             ("neg", -a, -a_old),
                             ("scale", a.scale(s), a_old.scale(s))):
            if (dict(new.terms), new.first_term()) != \
                    (old.terms, old.first_term()):
                found.append("bracket %s %d" % (op, i))
    return found


def with_r3_corrupted(tower):
    """tower with 1 added to the first nonzero entry of R_3 in flat order,
    or to its first entry when it has none."""
    r3 = tower.r[3]
    pos = min(r3.entries, default=0)
    r3.data[pos] = r3.data[pos] + ONE
    return tower


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "R3"])
@pytest.mark.parametrize("algebra_of", [None, dual_numbers_algebra],
                         ids=["plain", "dual_numbers"])
@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_bracket_layer_matches_the_tuple_keyed_path(fixture, algebra_of,
                                                    corrupt):
    # the brackets, wedges and unary brackets on basis, multi-term and
    # nested arguments, and the element arithmetic, equal the tuple-keyed
    # bodies they replaced in decoded terms and first term; and so do the
    # sweeps' violations and check_proof_identities' verdicts with those
    # bodies patched in, on the clean tower and with R_3 corrupted
    name, pair, conn_b, module, conn_e = fixture
    tower = build_tower(pair, conn_b, depth=4, module=module, conn_e=conn_e)
    if corrupt:
        with_r3_corrupted(tower)
    algebra = algebra_of(pair.dim_g) if algebra_of else None
    rng = random.Random(name + "/tuple-keyed")
    pools = (v_pool(tower, rng, algebra), w_pool(tower, rng, algebra))
    assert bracket_layer_mismatches(tower, pools, name, algebra) == []

    def outcomes():
        view = tower.cached_view()
        sweeps = [(report.checked, report.violations) for report in (
            verify_leibniz(view, 3, 1, algebra),
            verify_module(view, 3, 1, algebra))]
        return sweeps, None if algebra else check_proof_identities(view, 1)

    ours = outcomes()
    with pytest.MonkeyPatch.context() as patch:
        tuple_keyed_layer(patch)
        assert outcomes() == ours
    if corrupt and name.startswith("u2t2"):
        assert any(violations for _, violations in ours[0])


def test_a_cached_view_builds_each_diff_table_once(monkeypatch):
    # the unary brackets, the arity-1 sweep residuals and the derivation
    # lemma read each (side, algebra, degree) table off the view, and the
    # lemma's d omega each degree's table of the trivial module; a plain
    # tower and graded_diff build theirs at every call.  The module side of
    # u2t2 is B itself, so each table is built twice, once per side.
    built, trivial = Counter(), Counter()
    original = homotopy._ce_table

    def counting(pair, module, k, l):
        if module in (pair.quotient_module(), tower.module):
            built[k] += 1
        else:
            # the sides have dimension 2, the trivial module 1
            assert module.dim == 1
            trivial[k] += 1
        return original(pair, module, k, l)

    monkeypatch.setattr(homotopy, "_ce_table", counting)
    fx = gl_un_tn(2)
    pair = fx.pair
    tower = build_tower(pair, fx.conn_mult, depth=3, module=fx.module_b,
                        conn_e=fx.conn_mult)
    view = tower.cached_view()
    vs = oracle_basis(pair, pair.dim_b, 1)
    ws = oracle_basis(pair, tower.module.dim, 1)
    for _ in range(3):
        for v, w in zip(vs, ws):
            lambda_k(view, [v])
            mu_k(view, [], w)
        # one table for each side and each of the degrees 0 and 1
        assert sum(built.values()) == 4
    assert not trivial
    # the sweeps' derivation lemma reaches degree 2 on both sides and
    # differentiates the 1-forms on the trivial module once for both, and a
    # second sweep on the same view builds nothing
    for _ in range(2):
        for report in (verify_leibniz(view, 3, 1), verify_module(view, 3, 1)):
            assert report.ok
        assert sum(built.values()) == 6
        assert trivial == {1: 1}
    built.clear()
    for _ in range(3):
        lambda_k(tower, vs[:1])
        graded_diff(pair, pair.quotient_module(), vs[0])
    assert sum(built.values()) == 6


# -- every residual against the per-call flushing path ------------------------


def flushing_towers():
    """(name, tower): every zoo fixture at depths 4 and 5, without a module
    side, and with it clean and with one entry of R_3 or of S_3 changed in
    place."""
    out = []
    for name, pair, conn_b, module, conn_e in FIXTURES:
        rng = random.Random(name + "/flushing")
        for depth in (4, 5):
            label = "%s_depth%d" % (name, depth)
            out.append((label + "_plain", build_tower(pair, conn_b, depth)))
            for side in ("", "r", "s"):
                tower = build_tower(pair, conn_b, depth, module, conn_e)
                if side:
                    data = getattr(tower, side)[3].data
                    pos = rng.randrange(len(data))
                    data[pos] = data[pos] + GaussScalar(1, rng.choice([0, 1]))
                out.append((label + (side and "_%s3" % side.upper()), tower))
    return out


FLUSHING_TOWERS = flushing_towers()


def check_outcomes(tower):
    """Every verdict and witness of check_proof_identities at caps 0 to 2,
    and the checked counts and violations of the sweeps at max_n = depth,
    cap 1, the module sweep on a tower with a module side."""
    sweeps = [verify_leibniz(tower, tower.depth, 1)]
    if tower.module is not None:
        sweeps.append(verify_module(tower, tower.depth, 1))
    return [check_proof_identities(tower, cap) for cap in (0, 1, 2)] + [
        (report.checked, report.violations) for report in sweeps]


def on_the_flushing_path(monkeypatch):
    """Route homotopy's tensor-level residuals, its shuffle coherence tensors
    and its module coherence tensors through FlushingPath; returns the
    number of times each route is taken."""
    taken = Counter()

    def seeded(route, build):
        def into(acc, tower, n):
            taken[route] += 1
            w = build(FlushingPath(tower), n)
            _add_permuted(acc, w, range(w.l))
        return into

    def residuals(tower):
        taken["tensor_residuals"] += 1
        return FlushingPath(tower).tensor_residuals()

    monkeypatch.setattr(homotopy, "tensor_residuals", residuals)
    monkeypatch.setattr(homotopy, "_coherence_into",
                        seeded("coherence", FlushingPath.coherence))
    monkeypatch.setattr(homotopy, "_module_into",
                        seeded("module", FlushingPath.module_coherence))
    return taken


@pytest.mark.parametrize("name, tower", FLUSHING_TOWERS,
                         ids=[name for name, _ in FLUSHING_TOWERS])
def test_residuals_match_the_per_call_flushing_path(monkeypatch, name,
                                                    tower):
    # each residual is scattered into one accumulator and flushed once; the
    # path it replaced flushed every kernel call's partial sum into the
    # residual's stored values.  The stored entries, so their counts and
    # first nonzeros, every verdict and witness and every sweep violation
    # are the same.
    path = FlushingPath(tower)
    assert [(label, w.entries) for label, w in tensor_residuals(tower)] == \
        [(label, w.entries) for label, w in path.tensor_residuals()]
    if tower.module is not None:
        for n in range(2, tower.depth + 1):
            assert _summed(tower.pair, tower.s[n].module, 2, n - 1,
                           homotopy._module_into, tower, n).entries == \
                path.module_coherence(n).entries, n
    expected = check_outcomes(tower)
    taken = on_the_flushing_path(monkeypatch)
    assert check_outcomes(tower) == expected
    assert taken["tensor_residuals"] == 3 and taken["coherence"] >= 2
    assert taken["module"] == (tower.depth - 1 if tower.module else 0)


def test_the_flushing_path_comparison_includes_failures():
    # the comparison above is made on failing residuals and sweeps too: of
    # the 18 R_3 corruptions 15 fail a proof identity, and of the 36 R_3 and
    # S_3 corruptions 27 show sweep violations; no clean tower fails
    found = Counter()
    for name, tower in FLUSHING_TOWERS:
        sweeps = [verify_leibniz(tower, tower.depth, 0)]
        if tower.module is not None:
            sweeps.append(verify_module(tower, tower.depth, 0))
        found[name.endswith(("_R3", "_S3")),
              not all(ok for _, ok, _ in check_proof_identities(tower, 0)),
              not all(report.ok for report in sweeps)] += 1
    assert found == {(False, False, False): 36, (True, True, True): 13,
                     (True, True, False): 2, (True, False, True): 14,
                     (True, False, False): 7}
