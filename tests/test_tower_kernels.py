"""Differential tests for the nonzero-driven tower kernels, the shared
contraction kernel behind the brackets, the degree skip in the
homotopy-witness loops, the scope of the sweep memo, the identity layer
(one generalized-Jacobi sum, one sweep loop, one differential path), the
factoring of the sweeps and witness loops through the wedge, with the two
lemma checks it rests on, and the sparse tensor-level proof identities.

The loops the kernels replaced are kept here as oracles: the dense ones visit
every entry of their output or their input, as the library once did, the
five bracket loops each keep their own sign and algebra bookkeeping, the
Leibniz and module residuals and sweeps keep their separate loops, and the
tensor-level residuals are summed as dense cochains.
"""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.atiyah import end_connection, extend_by_zero
from liepairs.ce import Cochain, ce_diff
from liepairs.homotopy import (
    _add_permuted,
    _wedge,
    basis_elements_v,
    basis_elements_w,
    build_tower,
    check_proof_identities,
    compose_cochains,
    GradedElement,
    graded_diff,
    lambda_k,
    leibniz_residual,
    mixed_differential_residual,
    module_residual,
    mu_k,
    partial_nabla,
    shuffle_coherence_residual,
    tensor_residuals,
    theta_witness,
    two_bracket,
    verify_leibniz,
    verify_module,
    VerifyReport,
    xi_witness,
)
from liepairs.lie_core import (
    GAlgebra,
    end_module,
    matched_sum,
    tensor_module,
    trivial_module,
)
from liepairs.multilinear import (
    enumerate_shuffles,
    exterior_basis,
    exterior_index,
    insert_with_sign,
    koszul_sign,
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
    random_extension,
    random_module,
    random_pair,
    sl2_pair,
    unit_algebra,
)


# -- dense oracles -----------------------------------------------------------------


def dense_partial_nabla(w, conn_coeff, conn_b, st):
    """The dense loop partial_nabla replaced: one pass per output entry."""
    pair = w.pair
    m, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    out = Cochain(pair, w.module, w.k, w.l + 1)
    sign_k = -1 if w.k % 2 else 1
    g_index = exterior_index(m, w.k)
    b_radix = nb ** w.l
    out_radix = nb ** (w.l + 1)
    for gi, gt in enumerate(exterior_basis(m, w.k)):
        for b0 in range(nb):
            n_coeff = conn_coeff.nabla[m + b0]
            n_b = conn_b.nabla[m + b0]
            dl = st.delta[b0]
            for bi, bt in enumerate(tensor_tuples(nb, w.l)):
                src = (gi * b_radix + bi) * dim_e
                acc = [ZERO] * dim_e
                for e_out in range(dim_e):
                    for e_in in range(dim_e):
                        acc[e_out] = acc[e_out] + n_coeff.data[
                            e_out * dim_e + e_in] * w.data[src + e_in]
                for pos, a_old in enumerate(gt):
                    rest = gt[:pos] + gt[pos + 1 :]
                    for a_new in range(m):
                        ins = insert_with_sign(rest, a_new)
                        if ins is None:
                            continue
                        sgn, key = ins
                        total = sgn * (-1 if pos % 2 else 1)
                        src2 = (g_index[key] * b_radix + bi) * dim_e
                        for e in range(dim_e):
                            term = dl[a_new, a_old] * w.data[src2 + e]
                            acc[e] = acc[e] - (term if total > 0 else -term)
                for slot in range(w.l):
                    for new in range(nb):
                        bt2 = bt[:slot] + (new,) + bt[slot + 1 :]
                        src2 = (gi * b_radix + tensor_index(bt2, nb)) * dim_e
                        for e in range(dim_e):
                            acc[e] = acc[e] - n_b[new, bt[slot]] * w.data[src2 + e]
                dst = (gi * out_radix + tensor_index((b0,) + bt, nb)) * dim_e
                for e in range(dim_e):
                    out.data[dst + e] = acc[e] if sign_k > 0 else -acc[e]
    return out


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


# -- bracket oracles -----------------------------------------------------------------


def oracle_slices(w):
    """b-tuple -> list of (a, out, coeff) nonzeros of a (1, l) cochain."""
    slices = {}
    for (a,), bt, e, c in w.iter_nonzero():
        slices.setdefault(bt, []).append((a, e, c))
    return slices


def oracle_algebra_product(algebra, cvec1, cvec2):
    out = [ZERO] * algebra.dim
    for i, a in enumerate(cvec1):
        if a.is_zero():
            continue
        for j, b in enumerate(cvec2):
            if b.is_zero():
                continue
            coeff = a * b
            for t, x in enumerate(algebra.mult[i][j]):
                if not x.is_zero():
                    out[t] = out[t] + coeff * x
    return out


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
    w.data = [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1))
              for _ in w.data]
    return w


def fixture_set():
    """(name, pair, connection on B, module, connection on the module)."""
    out = []
    pair, modules = sl2_pair()
    conn_b = extend_by_zero(pair, modules["B"])
    out.append(("sl2", pair, conn_b, modules["B_dual"],
                random_extension(pair, modules["B_dual"], 5)))
    fx = gl_un_tn(2)
    out.append(("u2t2_mult", fx.pair, fx.conn_mult, fx.module_b, fx.conn_mult))
    out.append(("u2t2_zero", fx.pair, fx.conn_zero, fx.module_b, fx.conn_zero))
    hpair = heisenberg_pair()
    hb = hpair.quotient_module()
    out.append(("heisenberg", hpair, extend_by_zero(hpair, hb), hb,
                random_extension(hpair, hb, 3)))
    bpair = matched_sum(affine_bialgebra())
    bb = bpair.quotient_module()
    out.append(("bialgebra", bpair, extend_by_zero(bpair, bb), bb,
                extend_by_zero(bpair, bb)))
    for seed in (1, 2, 6, 7):
        rpair = random_pair(seed)
        module = random_module(rpair, 2, seed + 1)
        out.append(("random%d" % seed, rpair,
                    random_extension(rpair, rpair.quotient_module(), seed),
                    module, random_extension(rpair, module, seed + 2)))
    return out


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
                _add_permuted(total, w, list(perm))
                dense_add_permuted(expected, w, perm)
                assert total == expected, (w.k, l, perm)


def test_permute_b_args_rejects_non_permutations():
    fx = gl_un_tn(2)
    w = Cochain(fx.pair, fx.module_b, 1, 2)
    for perm in ((0,), (0, 0), (1, 2), (0, 1, 2)):
        with pytest.raises(ValueError):
            w.permute_b_args(perm)


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
    return GAlgebra(trivial_module(dim_g, 2), mult)


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
    basis = basis_elements_v(tower, 1, algebra)

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
    vs = basis_elements_v(tower, 1, algebra)
    return argument_pools(
        rng, basis_elements_w(tower, 1, algebra),
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
    pair = tower.pair
    elements = basis_elements_v(tower, min(cap, pair.dim_g))
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
    # the loops evaluate degree-0 tuples only (a tuple with forms can fail
    # only after its degree-0 part, see homotopy._decorated): each degree-0
    # pair calls theta_witness three times
    # and each degree-0 triple calls xi_witness four times.  The Omega-
    # linearity lemma adds, for a bracket of arity k, two argument tuples of
    # one unwedged call plus one call per position and basis form of
    # positive degree.  On a passing tower no loop breaks.
    import liepairs.homotopy as homotopy

    calls = {"theta": 0, "xi": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homotopy, "theta_witness",
                        counting("theta", theta_witness))
    monkeypatch.setattr(homotopy, "xi_witness", counting("xi", xi_witness))
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_zero, depth=3)
    # u2t2 has dim B = 4 and dim g = 4: 4 forms of degree 1, 6 of degree 2
    for cap, forms in ((1, 4), (2, 10)):
        calls.update(theta=0, xi=0)
        assert all(ok for _, ok, _ in check_proof_identities(tower, cap))
        lemma = {k: 2 * (1 + k * forms) for k in (2, 3)}
        assert calls == {"theta": 3 * 4 ** 2 + lemma[2],
                         "xi": 4 * 4 ** 3 + lemma[3]}, cap
    assert calls == {"theta": 90, "xi": 318}


def test_witness_loops_still_catch_a_corrupted_tower():
    # the skip rule only drops tuples whose residual lies above the top
    # exterior degree; a corrupted ternary tensor still fails the loop
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_zero, depth=3)
    pos = next(i for i, x in enumerate(tower.r[3].data) if not x.is_zero())
    tower.r[3].data[pos] = tower.r[3].data[pos] + ONE
    tower._r_slices.clear()
    verdicts = {name: ok for name, ok, _ in check_proof_identities(tower, 1)}
    assert not verdicts["jacobi_homotopy"]


# -- memo scope ------------------------------------------------------------------------


def test_corrupted_tower_fails_proof_identities():
    data = affine_bialgebra()
    bpair = matched_sum(data)
    tower = build_tower(bpair, extend_by_zero(bpair, bpair.quotient_module()),
                        depth=4)
    assert all(ok for _, ok, _ in check_proof_identities(tower, 2))
    tower.r[3].data[0] = tower.r[3].data[0] + ONE
    tower._r_slices.clear()
    failed = [name for name, ok, _ in check_proof_identities(tower, 2)
              if not ok]
    assert failed
    assert "jacobi_homotopy" in failed


def test_sweep_memo_keeps_the_two_sides_apart():
    # B and its dual are both 1-dim over sl2, so a B-valued and a module-valued
    # element can have equal terms; their differentials still differ
    pair, modules = sl2_pair()
    conn_b = extend_by_zero(pair, modules["B"])
    dual = modules["B_dual"]
    tower = build_tower(pair, conn_b, depth=2, module=dual,
                        conn_e=extend_by_zero(pair, dual))
    el = GradedElement.basis(pair, 1, (), 0)
    memo = {}
    for _ in range(2):
        on_b = lambda_k(tower, [el], memo=memo)
        on_dual = mu_k(tower, [], el, memo=memo)
        assert on_b == graded_diff(pair, modules["B"], el)
        assert on_dual == graded_diff(pair, dual, el)
        assert on_b != on_dual
    assert len(memo) == 2


# -- the identity layer against its two-loop oracles -------------------------------------


def dense_graded_diff(pair, base_module, el, algebra=None):
    """The round trip graded_diff replaced: per exterior degree, a dense
    cochain through ce_diff and back."""
    module = base_module if algebra is None \
        else tensor_module(base_module, algebra.module)
    cdim = algebra.dim if algebra is not None else None
    out = GradedElement(pair, el.mdim, cdim)
    by_degree = {}
    for key, val in el.terms.items():
        by_degree.setdefault(len(key[0]), {})[key] = val
    for k, terms in sorted(by_degree.items()):
        w = Cochain(pair, module, k, 0)
        for key, val in terms.items():
            midx = key[1] if cdim is None else key[1] * cdim + key[2]
            w.set(key[0], (), midx, val)
        for gt, _, midx, c in ce_diff(w).iter_nonzero():
            if cdim is None:
                out.add_term((gt, midx), c)
            else:
                out.add_term((gt, midx // cdim, midx % cdim), c)
    return out


def oracle_lambda(tower, args, algebra=None):
    if len(args) == 1:
        return dense_graded_diff(tower.pair, tower.pair.quotient_module(),
                                 args[0], algebra)
    return lambda_k(tower, args, algebra)


def oracle_mu(tower, vargs, w, algebra=None):
    if not vargs:
        return dense_graded_diff(tower.pair, tower.module, w, algebra)
    return mu_k(tower, vargs, w, algebra)


def oracle_leibniz_residual(tower, vs, algebra=None):
    """The generalized Jacobi sum as leibniz_residual once wrote it out."""
    n = len(vs)
    degs = [v.degree() for v in vs]
    cdim = algebra.dim if algebra is not None else None
    total = GradedElement(tower.pair, tower.pair.dim_b, cdim)
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            for sigma in enumerate_shuffles(k - j, j - 1):
                eps = koszul_sign(sigma, degs[: k - 1])
                front = sum(degs[sigma[m]] for m in range(k - j))
                sign = eps * (-1 if front % 2 else 1)
                inner_args = [vs[sigma[m]] for m in range(k - j, k - 1)] \
                    + [vs[k - 1]]
                inner = oracle_lambda(tower, inner_args, algebra)
                if inner.is_zero():
                    continue
                outer_args = [vs[sigma[m]] for m in range(k - j)] + [inner] \
                    + vs[k:]
                term = oracle_lambda(tower, outer_args, algebra)
                total = total + (term if sign > 0 else -term)
    return total


def oracle_module_residual(tower, vs, w, algebra=None):
    """The module identity as module_residual once wrote it: one loop for the
    brackets that take a lambda_k inside, one for those that nest two mu_k."""
    n = len(vs) + 1
    degs = [v.degree() for v in vs]
    cdim = algebra.dim if algebra is not None else None
    total = GradedElement(tower.pair, tower.module.dim, cdim)
    for j in range(1, n):
        for k in range(j, n):
            for sigma in enumerate_shuffles(k - j, j - 1):
                eps = koszul_sign(sigma, degs[: k - 1])
                front = sum(degs[sigma[m]] for m in range(k - j))
                sign = eps * (-1 if front % 2 else 1)
                inner_args = [vs[sigma[m]] for m in range(k - j, k - 1)] \
                    + [vs[k - 1]]
                inner = oracle_lambda(tower, inner_args, algebra)
                if inner.is_zero():
                    continue
                front_args = [vs[sigma[m]] for m in range(k - j)]
                term = oracle_mu(tower, front_args + [inner] + list(vs[k:]),
                                 w, algebra)
                total = total + (term if sign > 0 else -term)
    for j in range(1, n + 1):
        for sigma in enumerate_shuffles(n - j, j - 1):
            eps = koszul_sign(sigma, degs)
            front = sum(degs[sigma[m]] for m in range(n - j))
            sign = eps * (-1 if front % 2 else 1)
            inner = oracle_mu(tower, [vs[sigma[m]] for m in range(n - j, n - 1)],
                              w, algebra)
            if inner.is_zero():
                continue
            term = oracle_mu(tower, [vs[sigma[m]] for m in range(n - j)], inner,
                             algebra)
            total = total + (term if sign > 0 else -term)
    return total


def oracle_basis(pair, mdim, degree_cap, algebra=None):
    cdim = algebra.dim if algebra is not None else None
    out = []
    for k in range(min(degree_cap, pair.dim_g) + 1):
        for gt in exterior_basis(pair.dim_g, k):
            for e in range(mdim):
                if cdim is None:
                    out.append(GradedElement.basis(pair, mdim, gt, e))
                else:
                    out += [GradedElement.basis(pair, mdim, gt, e, cdim, c)
                            for c in range(cdim)]
    return out


def oracle_verify_leibniz(tower, max_n, degree_cap, algebra=None):
    """The loop verify_leibniz ran on its own, as (checked, violations)."""
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
    _add_permuted(total, part_a, [0, 1, 2])
    part_b = compose_cochains(tower.r[2], tower.r[2], 1)
    _add_permuted(total, part_b, [0, 1, 2])
    _add_permuted(total, part_a, [1, 0, 2])
    return total


def corrupted_towers():
    """(name, tower): four fixtures, each with one entry of R_2, R_3, S_2 or
    S_3 changed in place, so that the sweeps see violations."""
    out = []
    for name, pair, conn_b, module, conn_e in FIXTURES:
        if name not in ("u2t2_mult", "bialgebra", "random2", "random6"):
            continue
        rng = random.Random(name + "/corrupt")
        for side, n in (("r", 2), ("r", 3), ("s", 2), ("s", 3)):
            tower = build_tower(pair, conn_b, depth=3, module=module,
                                conn_e=conn_e)
            data = getattr(tower, side)[n].data
            pos = rng.randrange(len(data))
            data[pos] = data[pos] + GaussScalar(1, rng.choice([0, 1]))
            out.append(("%s_%s%d" % (name, side.upper(), n), tower))
    return out


def sweep_towers():
    towers = [(name, build_tower(pair, conn_b, depth=3, module=module,
                                 conn_e=conn_e))
              for name, pair, conn_b, module, conn_e in FIXTURES]
    return towers + corrupted_towers()


SWEEP_TOWERS = sweep_towers()
SWEEP_IDS = [name for name, _ in SWEEP_TOWERS]


def sweep_sizes(tower):
    """(max_n, degree_cap) pairs that keep the u2t2 oracle sweeps short."""
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
        for el in basis + combos + mixed:
            assert graded_diff(pair, base, el, algebra).terms == \
                dense_graded_diff(pair, base, el, algebra).terms


@pytest.mark.parametrize("fixture", FIXTURES, ids=IDS)
def test_residuals_match_their_two_loop_oracles(fixture):
    name, pair, conn_b, module, conn_e = fixture
    rng = random.Random(name + "/residuals")
    tower = build_tower(pair, conn_b, depth=4, module=module, conn_e=conn_e)
    pools = v_pool(tower, rng)
    wpools = w_pool(tower, rng)
    for n in range(1, 4):
        for vs in draw(rng, pools, n, 40):
            assert leibniz_residual(tower, vs).terms == \
                oracle_leibniz_residual(tower, vs).terms, n
        for vs, (w,) in zip(draw(rng, pools, n - 1, 40),
                            draw(rng, wpools, 1, 40)):
            assert module_residual(tower, vs, w).terms == \
                oracle_module_residual(tower, vs, w).terms, n


@pytest.mark.parametrize("tower", [t for _, t in SWEEP_TOWERS], ids=SWEEP_IDS)
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
        coherence += not shuffle_coherence_residual(tower, 3).is_zero()
    assert (sweeps, coherence) == (14, 7)


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
        assert shuffle_coherence_residual(tower, 3).data == expected.data, name
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
    pair = tower.pair
    elements = basis_elements_v(tower, min(cap, pair.dim_g))
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
    tower = dict(SWEEP_TOWERS)[name]
    pair = tower.pair
    elements = basis_elements_v(tower, 1)
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


def flip_odd_action_sign(ce_terms):
    """_ce_terms with the sign (-1)^|omega| of the action term flipped on
    odd-degree forms: all terms negated, then the bracket terms, which the
    trivial module yields alone, added back twice."""
    def mutated(pair, module, gt, bt, e):
        if len(gt) % 2 == 0:
            yield from ce_terms(pair, module, gt, bt, e)
            return
        for J, bt_out, e_out, c in ce_terms(pair, module, gt, bt, e):
            yield J, bt_out, e_out, -c
        for J, bt_out, _, c in ce_terms(pair, trivial_module(pair.dim_g, 1),
                                        gt, bt, 0):
            yield J, bt_out, e, c + c
    return mutated


def drop_first_signed(contract):
    """_contract that forgets the first of its signed positions."""
    def mutated(slices, args, signed, mdim, algebra=None):
        return contract(slices, args, tuple(signed)[1:], mdim, algebra)
    return mutated


@pytest.mark.parametrize("target, mutation, lemma", [
    ("_ce_terms", flip_odd_action_sign, "graded_diff_derivation"),
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
    for sweep, sides in ((verify_leibniz, 1), (verify_module, 2)):
        for cap in (0, 1):
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
    """shuffle_coherence_residual as a dense sum, composites formed anew."""
    total = ce_diff(tower.r[n])
    for i in range(2, n):
        j = n + 1 - i
        for k in range(j, n + 1):
            part = compose_cochains(tower.r[i], tower.r[j], k - j + 1)
            for sigma in enumerate_shuffles(k - j, j - 1):
                perm = [sigma[m] for m in range(k - 1)] + list(range(k - 1, n))
                _add_permuted(total, part, perm)
    return total


def dense_mixed(tower, n):
    """mixed_differential_residual as a dense sum."""
    total = ce_diff(tower.r[n + 1]) \
        + partial_nabla(ce_diff(tower.r[n]), tower.conn_b, tower.conn_b,
                        tower.st)
    _add_permuted(total, compose_cochains(tower.r[2], tower.r[n], 2),
                  list(range(n + 1)))
    for j in range(1, n + 1):
        part = compose_cochains(tower.r[n], tower.r[2], j)
        perm = list(range(1, j)) + [0, j] + list(range(j + 1, n + 1))
        _add_permuted(total, part, perm)
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
        assert nonzero_map(residual.data.items()) == \
            nonzero_map(enumerate(w.data)), name
    # the dense public residuals run the same bodies into a Cochain
    for n in range(2, tower.depth):
        assert mixed_differential_residual(tower, n) == \
            dense["mixed_differential_n%d" % n]
    for n in range(3, tower.depth + 1):
        assert shuffle_coherence_residual(tower, n) == \
            dense["shuffle_coherence_n%d" % n]
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
