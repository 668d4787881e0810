"""Acceptance criteria, one test per criterion, every tolerance exact.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure)
and enforces its wall-clock budget on top of exactness.
"""

import json
import random
import time

import pytest

import liepairs.ce as ce
import liepairs.homotopy as homotopy
from liepairs.atiyah import (
    atiyah_class,
    coboundary_primitive,
    cohomology_dim,
    compatibility_report,
    diff_matrix,
    direct_sum_connection,
    nullspace_basis,
    scalar_class,
    todd_biform,
    todd_class,
)
from liepairs.ce import (
    Cochain,
    atiyah_cocycle,
    ce_diff,
    extend_by_zero,
    is_cocycle,
)
from liepairs.cli import EXIT_OK, main
from liepairs.homotopy import (
    GradedElement,
    build_tower,
    check_proof_identities,
    graded_diff,
    lambda_k,
    splitting_tensors,
    symmetry_report,
    verify_leibniz,
    verify_module,
)
from liepairs.lie_core import (
    GModule,
    LieAlgebra,
    LiePair,
    check_module,
    direct_sum_module,
    trivial_module,
    validate_lie_algebra,
)
from liepairs.linalg import Matrix
from liepairs.multilinear import exterior_basis
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import (
    affine_bialgebra,
    affine_pair,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    random_extension,
    random_module,
    random_pair,
    sl2_borel_pair,
    sl2_pair,
    sl2_pair_swapped,
)

from oracles import (
    digit_table_off_by_one,
    matched_zero_gamma_closed_form,
    merge_table_sign_flip,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.started = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.started
        line = "ACCEPTANCE %s: PASS (%.2fs%s)" % (
            self.name, elapsed, (", " + detail) if detail else "")
        print(line)
        assert elapsed < self.seconds, \
            "%s exceeded its %.0fs budget: %.1fs" % (
                self.name, self.seconds, elapsed)


@pytest.fixture(scope="module")
def u2t2():
    return gl_un_tn(2)


@pytest.fixture(scope="module")
def bialgebra_sum():
    return matched_sum(affine_bialgebra())


def test_criterion_1_rank_one_golden():
    budget = Budget("1 rank-one golden values", 1.0)
    pair, modules = sl2_pair()
    hom = modules["hom_bb_b"]
    assert cohomology_dim(pair, hom, 1) == 1
    assert hom.action[0][0, 0] == GaussScalar(2)   # h . theta = 2 theta
    assert hom.action[1][0, 0] == ZERO             # e . theta = 0
    outcome = atiyah_class(pair, modules["B"])
    assert not outcome.vanishes
    assert outcome.primitive is None
    budget.done("H1 dim 1, class nonzero")


def _cocycle_fixture_list(u2t2_fixture, bialgebra_pair_sum):
    pair, modules = sl2_pair()
    entries = [
        (pair, modules["B"]),
        (pair, modules["B_dual"]),
        (pair, modules["hom_bb_b"]),
        (pair, random_module(pair, 2, 100)),
        (sl2_pair_swapped(), None),
        (sl2_borel_pair(), None),
        (sl2_borel_pair(), "rand2"),
        (heisenberg_pair(), None),
        (heisenberg_pair(), "trivial"),
        (affine_pair(), None),
        (bialgebra_pair_sum, None),
        (bialgebra_pair_sum, "rand2"),
        (u2t2_fixture.pair, None),
    ]
    for seed in range(1, 9):
        entries.append((random_pair(seed), None))
    resolved = []
    for idx, (p, module) in enumerate(entries):
        if module is None:
            module = p.quotient_module()
        elif module == "rand2":
            module = random_module(p, 2, 200 + idx)
        elif module == "trivial":
            module = trivial_module(p.dim_g, 1)
        resolved.append((p, module))
    return resolved


def test_criterion_2_cocycle_theorem_suite(u2t2, bialgebra_sum):
    budget = Budget("2 cocycle theorem suite", 30.0)
    fixtures = _cocycle_fixture_list(u2t2, bialgebra_sum)
    assert len(fixtures) >= 20
    repairs_exercised = 0
    for idx, (pair, module) in enumerate(fixtures):
        conn1 = extend_by_zero(pair, module)
        conn2 = random_extension(pair, module, 300 + idx)
        w1 = atiyah_cocycle(conn1)
        w2 = atiyah_cocycle(conn2)
        assert ce_diff(w1).is_zero() and ce_diff(w2).is_zero()
        # the difference of the two cocycles is exactly the differential of
        # the difference section, hence has a primitive
        phi = Cochain(pair, w1.module, 0, 1)
        for b in range(pair.dim_b):
            diff = conn1.nabla[pair.dim_g + b] - conn2.nabla[pair.dim_g + b]
            for row in range(module.dim):
                for col in range(module.dim):
                    phi.set((), (b,), row * module.dim + col, diff[row, col])
        assert ce_diff(phi) == (w1 - w2)
        assert coboundary_primitive(w1 - w2) is not None
        outcome = atiyah_class(pair, module, conn2)
        if outcome.vanishes:
            assert compatibility_report(outcome.repaired).ok
            if not outcome.cocycle.is_zero():
                repairs_exercised += 1
    assert repairs_exercised >= 5
    budget.done("%d fixtures, %d nontrivial repairs"
                % (len(fixtures), repairs_exercised))


def test_criterion_3_leibniz_identity_sweep(u2t2, bialgebra_sum):
    budget = Budget("3 homotopy identity sweep", 120.0)
    checked = 0

    pair, modules = sl2_pair()
    conn_b = extend_by_zero(pair, modules["B"])
    tower = build_tower(pair, conn_b, depth=4)
    rep = verify_leibniz(tower, 4, 2)
    assert rep.ok
    checked += rep.checked

    mult_tower = build_tower(u2t2.pair, u2t2.conn_mult, depth=4)
    for max_n, cap in ((4, 0), (3, 1)):
        rep = verify_leibniz(mult_tower, max_n, cap)
        assert rep.ok
        checked += rep.checked

    hpair = heisenberg_pair()
    htower = build_tower(hpair, extend_by_zero(hpair, hpair.quotient_module()),
                         depth=4)
    rep = verify_leibniz(htower, 4, 1)
    assert rep.ok
    checked += rep.checked

    btower = build_tower(bialgebra_sum,
                         extend_by_zero(bialgebra_sum,
                                        bialgebra_sum.quotient_module()),
                         depth=4)
    rep = verify_leibniz(btower, 4, 2)
    assert rep.ok
    checked += rep.checked

    for seed in range(1, 6):
        rpair = random_pair(seed)
        rtower = build_tower(
            rpair, random_extension(rpair, rpair.quotient_module(), seed + 400),
            depth=4)
        rep = verify_leibniz(rtower, 4, min(rpair.dim_g, 2))
        assert rep.ok
        checked += rep.checked

    # module sweeps with E in {B, B*, random 2-dim}
    for module in (modules["B"], modules["B_dual"],
                   random_module(pair, 2, 500)):
        mtower = build_tower(pair, conn_b, depth=4, module=module,
                             conn_e=extend_by_zero(pair, module))
        rep = verify_module(mtower, 4, 2)
        assert rep.ok
        checked += rep.checked
    bmod_tower = build_tower(
        bialgebra_sum,
        extend_by_zero(bialgebra_sum, bialgebra_sum.quotient_module()),
        depth=4, module=bialgebra_sum.quotient_module(),
        conn_e=extend_by_zero(bialgebra_sum,
                              bialgebra_sum.quotient_module()))
    rep = verify_module(bmod_tower, 4, 2)
    assert rep.ok
    checked += rep.checked
    u2t2_mod_tower = build_tower(u2t2.pair, u2t2.conn_mult, depth=4,
                                 module=u2t2.module_b, conn_e=u2t2.conn_mult)
    rep = verify_module(u2t2_mod_tower, 4, 0)
    assert rep.ok
    checked += rep.checked

    budget.done("%d tuples, all residuals zero" % checked)


def test_criterion_4_proof_lemma_suite(u2t2, bialgebra_sum):
    budget = Budget("4 proof-lemma suite", 60.0)
    towers = []
    pair, modules = sl2_pair()
    towers.append((build_tower(pair, extend_by_zero(pair, modules["B"]),
                               depth=4), 2))
    towers.append((build_tower(u2t2.pair, u2t2.conn_mult, depth=4), 1))
    towers.append((build_tower(u2t2.pair, u2t2.conn_zero, depth=4), 1))
    hpair = heisenberg_pair()
    towers.append((build_tower(
        hpair, extend_by_zero(hpair, hpair.quotient_module()), depth=4), 1))
    towers.append((build_tower(
        bialgebra_sum,
        extend_by_zero(bialgebra_sum, bialgebra_sum.quotient_module()),
        depth=4), 2))
    for seed in range(1, 6):
        rpair = random_pair(seed)
        towers.append((build_tower(
            rpair, random_extension(rpair, rpair.quotient_module(), seed + 600),
            depth=4), 2))
    names = set()
    for tower, cap in towers:
        for name, ok, witness in check_proof_identities(tower, cap):
            assert ok, (name, witness)
            names.add(name)
    # every named identity family must have been exercised
    for expected in ("torsion_antisymmetrization", "ternary_symmetry_defect",
                     "nested_binary_coherence", "mixed_differential_n2",
                     "mixed_differential_n3", "shuffle_coherence_n3",
                     "shuffle_coherence_n4", "skew_symmetry_homotopy",
                     "jacobi_homotopy"):
        assert expected in names
    budget.done("%d towers" % len(towers))


def test_criterion_5_symmetric_tower_criterion(u2t2):
    budget = Budget("5 symmetric-tower criterion", 30.0)
    st = splitting_tensors(u2t2.pair, u2t2.conn_mult)
    nb = u2t2.pair.dim_b
    for b1 in range(nb):
        for b2 in range(nb):
            assert all(x.is_zero() for x in st.beta[b1][b2])
            assert st.omega[b1][b2].is_zero()
    mult_tower = build_tower(u2t2.pair, u2t2.conn_mult, depth=4)
    assert symmetry_report(mult_tower)["is_symmetric_tower"]

    # torsion-ful variant: the zero extension has nonzero torsion, an
    # asymmetry witness at arity 2, and the defect equals the differential of
    # the torsion exactly
    zero_tower = build_tower(u2t2.pair, u2t2.conn_zero, depth=4)
    report = symmetry_report(zero_tower)
    assert not report["is_symmetric_tower"]
    assert not report[2]["fully_symmetric"]
    beta_cochain = Cochain(u2t2.pair, u2t2.module_b, 0, 2)
    for b1 in range(nb):
        for b2 in range(nb):
            for out in range(nb):
                beta_cochain.set((), (b1, b2), out,
                                 zero_tower.st.beta[b1][b2][out])
    assert not beta_cochain.is_zero()
    defect = zero_tower.r[2] - zero_tower.r[2].permute_b_args((1, 0))
    assert defect == ce_diff(beta_cochain)
    # and the ternary defect identity still holds on the torsion-ful tower
    for name, ok, witness in check_proof_identities(zero_tower, 0):
        if name == "ternary_symmetry_defect":
            assert ok, witness
    budget.done("flat torsion-free side symmetric, witness accounted")


def test_criterion_6_matched_pair_closed_form(u2t2, bialgebra_sum):
    budget = Budget("6 matched-pair closed form", 30.0)
    for tower in (
        build_tower(u2t2.pair, u2t2.conn_zero, depth=4),
        build_tower(bialgebra_sum,
                    extend_by_zero(bialgebra_sum,
                                   bialgebra_sum.quotient_module()), depth=4),
    ):
        for n in (2, 3, 4):
            assert matched_zero_gamma_closed_form(tower, n) == tower.r[n]
        assert not tower.r[2].is_zero()
    budget.done("recursion equals closed formula entry-for-entry, n <= 4")


def test_criterion_7_characteristic_classes(u2t2):
    budget = Budget("7 characteristic classes", 10.0)
    pair = u2t2.pair
    m1 = random_module(pair, 2, 700)
    m2 = trivial_module(pair.dim_g, 1)
    c1 = extend_by_zero(pair, m1)
    c2 = extend_by_zero(pair, m2)
    for k in (1, 2, 3):
        outcome = scalar_class(pair, m1, k, c1)  # closedness asserted inside
        assert is_cocycle(outcome.cochain)
    todd = todd_class(pair, m1, c1)
    assert len(todd.components[0].data) == 1
    assert todd.components[0].data[0] == ONE
    for comp in todd.components.values():
        assert is_cocycle(comp)
    both = direct_sum_connection(c1, c2)
    assert todd_biform(both) == todd_biform(c1) * todd_biform(c2)
    sum_todd = todd_class(pair, direct_sum_module(m1, m2), both)
    assert sum_todd.components[0].data[0] == ONE
    budget.done("cocycles, unit degree-zero part, block multiplicativity")


def _cocycle_space(pair, k):
    mat = diff_matrix(pair, pair.quotient_module(), k, 0)
    return nullspace_basis(mat)


def _coboundaries(pair, k):
    if k == 0:
        return []
    mat = diff_matrix(pair, pair.quotient_module(), k - 1, 0)
    out = []
    for col in range(mat.cols):
        vec = mat.col(col)
        if any(not x.is_zero() for x in vec):
            out.append(vec)
    return out


def _vec_to_element(pair, k, vec):
    el = GradedElement(pair, pair.dim_b)
    pos = 0
    for gt in exterior_basis(pair.dim_g, k):
        for b in range(pair.dim_b):
            if not vec[pos].is_zero():
                el.add_term((gt, b), vec[pos])
            pos += 1
    return el


def _element_to_cochain(pair, el, k):
    w = Cochain(pair, pair.quotient_module(), k, 0)
    for (gt, b), c in el.terms.items():
        assert len(gt) == k
        w.set(gt, (), b, c)
    return w


def test_criterion_8_bracket_descends_to_cohomology(u2t2, bialgebra_sum):
    budget = Budget("8 bracket on cohomology", 30.0)
    pair_fixtures = [sl2_pair()[0], bialgebra_sum, u2t2.pair,
                     random_pair(1), random_pair(2), random_pair(3)]
    pairs_checked = 0
    for pair in pair_fixtures:
        conn = extend_by_zero(pair, pair.quotient_module())
        tower = build_tower(pair, conn, depth=2)
        for p in (0, 1):
            for q in (0, 1):
                if p + q + 1 > pair.dim_g:
                    continue
                z_p = [_vec_to_element(pair, p, v)
                       for v in _cocycle_space(pair, p)]
                z_q = [_vec_to_element(pair, q, v)
                       for v in _cocycle_space(pair, q)]
                for u in z_p:
                    for v in z_q:
                        out = lambda_k(tower, [u, v])
                        assert graded_diff(
                            pair, pair.quotient_module(), out).is_zero()
                        pairs_checked += 1
                exact_q = [_vec_to_element(pair, q, v)
                           for v in _coboundaries(pair, q)]
                for u in z_p:
                    for v in exact_q:
                        for left, right in ((u, v), (v, u)):
                            out = lambda_k(tower, [left, right])
                            if out.is_zero():
                                continue
                            w = _element_to_cochain(
                                pair, out, left.degree() + right.degree() + 1)
                            assert coboundary_primitive(w) is not None
                            pairs_checked += 1
    assert pairs_checked > 50
    budget.done("%d cocycle/coboundary pairs" % pairs_checked)


def _copy_algebra(algebra):
    return LieAlgebra(algebra.dim,
                      [[list(vec) for vec in row] for row in algebra.c])


def _copy_module(module):
    return GModule(module.dim,
                   [Matrix(m.rows, m.cols, list(m.data)) for m in module.action])


def _detect_structure_mutation(pair, declared_modules):
    if not validate_lie_algebra(pair.d).ok:
        return "lie_algebra"
    for i in range(pair.dim_g):
        for j in range(pair.dim_g):
            if any(not x.is_zero() for x in pair.d.c[i][j][pair.dim_g:]):
                return "closure"
    gsub = pair.g_algebra()
    quotient = pair.quotient_module()
    for name, module in declared_modules.items():
        if not check_module(gsub, module).ok:
            return "flatness:" + name
        if name == "B" and module.dim == quotient.dim:
            if any(module.action[a] != quotient.action[a]
                   for a in range(pair.dim_g)):
                return "quotient_mismatch"
    return None


def test_criterion_9_mutation_sensitivity(u2t2, bialgebra_sum, monkeypatch):
    budget = Budget("9 mutation sensitivity", 120.0)
    rng = random.Random(2026)
    detected = 0
    total = 0

    sl2p, sl2_modules = sl2_pair()
    structure_fixtures = [
        (sl2p, {"B": sl2_modules["B"], "hom": sl2_modules["hom_bb_b"]}),
        (u2t2.pair, {"B": u2t2.module_b}),
        (heisenberg_pair(), {}),
        (bialgebra_sum, {"B": bialgebra_sum.quotient_module()}),
    ]

    # bracket entry mutations: a single entry always breaks antisymmetry,
    # Jacobi, closure, flatness or the declared-quotient consistency
    for _ in range(20):
        base, declared = structure_fixtures[rng.randrange(
            len(structure_fixtures))]
        algebra = _copy_algebra(base.d)
        i = rng.randrange(algebra.dim)
        j = rng.randrange(algebra.dim)
        k = rng.randrange(algebra.dim)
        delta = rng.choice([1, -1, 2])
        algebra.c[i][j][k] = algebra.c[i][j][k] + GaussScalar(delta)
        mutated = LiePair(algebra, base.dim_g)
        total += 1
        assert _detect_structure_mutation(mutated, declared) is not None
        detected += 1

    # action entry mutations on declared modules with guaranteed detectors
    action_fixtures = [
        (sl2p, "B", sl2_modules["B"]),
        (sl2p, "hom", sl2_modules["hom_bb_b"]),
        (u2t2.pair, "B", u2t2.module_b),
        (bialgebra_sum, "B", bialgebra_sum.quotient_module()),
    ]
    for _ in range(15):
        base, name, module = action_fixtures[rng.randrange(
            len(action_fixtures))]
        mutated = _copy_module(module)
        a = rng.randrange(base.dim_g)
        pos = rng.randrange(module.dim * module.dim)
        mutated.action[a].data[pos] = mutated.action[a].data[pos] + \
            GaussScalar(rng.choice([1, -1, 2]))
        total += 1
        if name == "B":
            quotient = base.quotient_module()
            changed = any(mutated.action[x] != quotient.action[x]
                          for x in range(base.dim_g))
            flat = check_module(base.g_algebra(), mutated).ok
            assert changed or not flat
        else:
            # golden action values of the rank-one obstruction module
            golden = mutated.action[0][0, 0] == GaussScalar(2) and \
                mutated.action[1][0, 0] == ZERO
            assert not golden or not check_module(base.g_algebra(),
                                                  mutated).ok
        detected += 1

    # binary tower tensor mutations: closedness fails on the symmetric tower
    # (verified exhaustively for every entry), and the closed-form oracle
    # catches any corruption over a matched pair with the zero extension
    for _ in range(10):
        tower = build_tower(u2t2.pair, u2t2.conn_mult, depth=2)
        pos = rng.randrange(len(tower.r[2].data))
        tower.r[2].data[pos] = tower.r[2].data[pos] + GaussScalar(1)
        total += 1
        assert not ce_diff(tower.r[2]).is_zero()
        detected += 1
    for _ in range(10):
        source = rng.choice(["u2t2", "bialgebra"])
        if source == "u2t2":
            tower = build_tower(u2t2.pair, u2t2.conn_zero, depth=2)
        else:
            tower = build_tower(
                bialgebra_sum,
                extend_by_zero(bialgebra_sum,
                               bialgebra_sum.quotient_module()), depth=2)
        pos = rng.randrange(len(tower.r[2].data))
        tower.r[2].data[pos] = tower.r[2].data[pos] + GaussScalar(1)
        total += 1
        assert matched_zero_gamma_closed_form(tower, 2) != tower.r[2]
        detected += 1

    # kernel table mutations: a digit-table off-by-one (the permutations of
    # the shuffle sums) and a merge-table sign flip (the differential and
    # the composites; homotopy also reads the table under its name) each
    # break a tensor-level proof identity of the u2t2 tower, built before
    # the mutation, as the flipped differential would refuse to build it
    for layers, name, mutate in (((ce,), "_digit_tables",
                                  digit_table_off_by_one),
                                 ((ce, homotopy), "_merge_table",
                                  merge_table_sign_flip)):
        tower = build_tower(u2t2.pair, u2t2.conn_mult, depth=4)
        with monkeypatch.context() as patch:
            for layer in layers:
                patch.setattr(layer, name, mutate(getattr(ce, name)))
            total += 1
            assert not all(ok for _, ok, _ in check_proof_identities(tower, 0))
            detected += 1

    assert total >= 50 and detected == total
    budget.done("%d/%d mutations detected" % (detected, total))


def test_criterion_10_gl3_verify_end_to_end(capsys, tmp_path):
    # gl(3) = u(3) + t(3) with the matrix_mult connection: 737,190 Leibniz
    # tuples at cap 1, decided from 819 degree-0 residuals
    assert main(["zoo", "export", "gl3"]) == EXIT_OK
    path = tmp_path / "gl3.json"
    path.write_text(capsys.readouterr().out)
    budget = Budget("10 gl(3) verify end to end", 30.0)
    code = main(["verify", "--input", str(path), "--connection", "matrix_mult",
                 "--depth", "4", "--max-n", "3", "--degree-cap", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and report["ok"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["leibniz_sweep"]["detail"] == "737190 tuples"
    assert checks["jacobi_homotopy"]["status"] == "pass"
    budget.done("%d checks pass" % len(checks))
