import random
from fractions import Fraction

import pytest

from liepairs.lie_core import (
    GAlgebra,
    GModule,
    LieAlgebra,
    Report,
    SubalgebraNotClosed,
    check_g_algebra,
    check_module,
    dual_module,
    end_module,
    exterior_power_module,
    make_pair,
    tensor_module,
    trivial_module,
    validate_lie_algebra,
)
from liepairs.linalg import Matrix, basis_vec, vec_is_zero
from liepairs.scalars import GaussScalar, ONE, ZERO, format_scalar
from liepairs.zoo import (
    MatchedPairAxiomsFail,
    MatchedPairData,
    NotABialgebra,
    NotASubalgebra,
    _catalog,
    adapt_basis,
    affine_bialgebra,
    bialgebra_pair,
    check_matched_pair,
    dual_numbers_algebra,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    pair_to_matched,
    random_module,
    random_pair,
    sl2_pair,
    sl2_pair_swapped,
    unit_algebra,
    weighted_dual_numbers,
    zero_cobracket_bialgebra,
)

from oracles import (
    algebra_from_table,
    apply,
    commutator,
    dense_check_g_algebra,
    dense_check_module,
    dense_gl_un_tn,
    dense_mult,
    dense_validate,
    split_anti_hermitian,
    t_basis,
    t_coords,
    u_basis,
    u_coords,
    vec_add,
)


def g(x):
    return GaussScalar(x)


def test_validate_abelian_and_sl2():
    assert validate_lie_algebra(LieAlgebra.zero(3)).ok
    pair, _ = sl2_pair()
    assert validate_lie_algebra(pair.d).ok


def test_validate_catches_corruption():
    # 2-dim algebra [x, y] = x, then corrupt c[1][2] to y without fixing Jacobi.
    d = LieAlgebra.from_brackets(2, {(0, 1): [1, 0]})
    assert validate_lie_algebra(d).ok
    d.c[0][1] = [g(1), g(1)]
    d.c[1][0] = [g(-1), g(-1)]
    # still antisymmetric, and Jacobi holds trivially in dim 2; break antisymmetry
    d.c[0][1] = [g(1), g(1)]
    d.c[1][0] = [g(-1), g(0)]
    report = validate_lie_algebra(d)
    assert not report.ok
    assert report.entries[0]["check"] == "antisymmetry"


def test_validate_jacobi_failure():
    # On sl2, [e, f] = h + f breaks Jacobi with residual 2f at (h, e, f).
    c = {
        (0, 1): [0, 2, 0],
        (0, 2): [0, 0, -2],
        (1, 2): [1, 0, 1],
    }
    d = LieAlgebra.from_brackets(3, c)
    report = validate_lie_algebra(d)
    assert not report.ok
    assert any(e["check"] == "jacobi" for e in report.entries)


def zoo_algebras():
    algebras = [(name, build().d) for name, build in _catalog()]
    algebras += [("u2t2", gl_un_tn(2).pair.d), ("gl3", gl_un_tn(3).pair.d)]
    algebras += [("random_%d" % seed, random_pair(seed).d)
                 for seed in range(4)]
    return algebras


def corrupted(d, rng, keep_antisymmetry):
    """A copy of d with one structure constant c_ij^t changed (and c_ji^t
    with it when keep_antisymmetry holds)."""
    n = d.dim
    copy = LieAlgebra(n, d.c)
    i, t = rng.randrange(n), rng.randrange(n)
    j = rng.choice([x for x in range(n) if x != i]) if keep_antisymmetry \
        else rng.randrange(n)
    value = copy.c[i][j][t] + GaussScalar(rng.choice([-2, -1, 1, 3]),
                                          rng.choice([0, 0, 1]))
    copy.c[i][j][t] = value
    if keep_antisymmetry:
        copy.c[j][i][t] = -value
    return copy


def test_sparse_validation_matches_the_dense_oracle():
    rng = random.Random(2024)
    seen = set()
    for name, d in zoo_algebras():
        assert validate_lie_algebra(d).entries == dense_validate(d).entries \
            == [], name
        for trial in range(6):
            bad = corrupted(d, rng, keep_antisymmetry=trial % 2 == 0)
            entries = validate_lie_algebra(bad).entries
            assert entries == dense_validate(bad).entries, (name, trial)
            seen.update((trial % 2, e["check"]) for e in entries)
    # antisymmetric corruptions break Jacobi alone, the others both checks
    assert seen == {(0, "jacobi"), (1, "antisymmetry"), (1, "jacobi")}


def zoo_modules():
    """(name, g, module) for the modules the zoo builds and the
    constructions over them: every catalogued pair's quotient module with
    its dual, End, square and exterior square, the sl2 and heisenberg
    export modules, the u2t2 and gl(3) quotients and seeded random
    modules."""
    out = []
    for name, build in _catalog():
        pair = build()
        gsub, b = pair.g_algebra(), pair.quotient_module()
        out += [(name + "_B", gsub, b), (name + "_B_dual", gsub, dual_module(b)),
                (name + "_end_B", gsub, end_module(b)),
                (name + "_B_B", gsub, tensor_module(b, b)),
                (name + "_wedge2_B", gsub, exterior_power_module(b, 2))]
    pair, modules = sl2_pair()
    out += [("sl2_" + name, pair.g_algebra(), m)
            for name, m in sorted(modules.items())]
    out.append(("heisenberg_trivial", heisenberg_pair().g_algebra(),
                trivial_module(1, 1)))
    for n in (2, 3):
        pair = gl_un_tn(n).pair
        out.append(("gl%d_B" % n, pair.g_algebra(), pair.quotient_module()))
    u2t2 = gl_un_tn(2).pair
    out.append(("u2t2_end_B", u2t2.g_algebra(),
                end_module(u2t2.quotient_module())))
    for seed in range(6):
        pair = random_pair(seed)
        m = random_module(pair, 3, seed + 1)
        out += [("random_%d" % seed, pair.g_algebra(), m),
                ("random_%d_wedge2" % seed, pair.g_algebra(),
                 exterior_power_module(m, 2)),
                ("random_%d_end" % seed, pair.g_algebra(), end_module(m))]
    return out


def test_check_module_matches_the_dense_oracle():
    rng = random.Random(28)
    cases = zoo_modules()
    for name, g, module in cases:
        assert check_module(g, module).entries == \
            dense_check_module(g, module).entries == [], name
    pool = [case for case in cases if case[1].dim >= 2 and case[2].dim]
    values = [GaussScalar(1), GaussScalar(-2), GaussScalar(Fraction(1, 3)),
              GaussScalar(0, 1), GaussScalar(1, -2), GaussScalar(Fraction(-1, 2), 3)]
    flat_failures = gaussian = 0
    for trial in range(80):
        name, g, module = rng.choice(pool)
        action = [Matrix(m.rows, m.cols, m.data) for m in module.action]
        mat = rng.choice(action)
        pos = rng.randrange(len(mat.data))
        value = rng.choice(values)
        mat.data[pos] = mat.data[pos] + value
        bad = GModule(module.dim, action)
        entries = check_module(g, bad).entries
        assert entries == dense_check_module(g, bad).entries, (name, trial)
        assert all(e["check"] == "flatness" for e in entries)
        flat_failures += bool(entries)
        gaussian += bool(entries) and value.im != 0
    assert flat_failures >= 30 and gaussian >= 5
    # a module with the wrong number of matrices is reported, not checked
    g = sl2_pair()[0].g_algebra()
    short = trivial_module(1, 2)
    assert check_module(g, short).entries == dense_check_module(g, short).entries \
        == [{"check": "arity", "location": (), "residual": "expected 2 matrices, got 1"}]


def _scalar_strings(values):
    return [format_scalar(x) for x in values]


def test_gl_un_tn_matches_the_dense_construction():
    for n in (2, 3):
        got, want = gl_un_tn(n), dense_gl_un_tn(n)
        dim = 2 * n * n
        for i in range(dim):
            for j in range(dim):
                assert got.pair.d.c[i][j] == want.pair.d.c[i][j], (n, i, j)
                assert _scalar_strings(got.pair.d.c[i][j]) == \
                    _scalar_strings(want.pair.d.c[i][j])
        for field in ("nabla", "delta"):
            for x, y in zip(getattr(got.matched, field),
                            getattr(want.matched, field), strict=True):
                assert x == y and _scalar_strings(x.data) == \
                    _scalar_strings(y.data), (n, field)
        assert got.matched.a.c == want.matched.a.c
        assert got.matched.b.c == want.matched.b.c
        for mats, oracle in ((got.module_b.action, want.module_b.action),
                             (got.conn_mult.nabla, want.conn_mult.nabla)):
            assert len(mats) == len(oracle)
            for x, y in zip(mats, oracle):
                assert (x.rows, x.cols) == (y.rows, y.cols)
                assert x == y and _scalar_strings(x.data) == \
                    _scalar_strings(y.data), n


def test_make_pair_closure():
    pair, _ = sl2_pair()
    assert pair.dim_g == 2 and pair.dim_b == 1
    pair2 = sl2_pair_swapped()
    assert pair2.dim_b == 1
    assert make_pair(LieAlgebra.zero(4), 2).dim_b == 2
    # (e, f) do not close: [e, f] = h sticks out.
    c = {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]}
    d = LieAlgebra.from_brackets(3, c)  # basis (e, f, h)
    assert validate_lie_algebra(d).ok
    with pytest.raises(SubalgebraNotClosed):
        make_pair(d, 2)


def test_quotient_module_sl2():
    pair, _ = sl2_pair()
    b = pair.quotient_module()
    assert b.dim == 1
    assert b.action[0][0, 0] == g(-2)  # h acts by -2 on the class of f
    assert b.action[1][0, 0] == ZERO   # e acts by 0
    assert check_module(pair.g_algebra(), b).ok


def test_quotient_module_abelian_and_matched():
    assert make_pair(LieAlgebra.zero(3), 1).quotient_module().action[0].is_zero()
    data = affine_bialgebra()
    pair = matched_sum(data)
    b = pair.quotient_module()
    for x in range(data.a.dim):
        assert b.action[x] == data.nabla[x]


def test_module_constructions():
    pair, modules = sl2_pair()
    gsub = pair.g_algebra()
    b = modules["B"]
    # dual of trivial module is trivial
    assert dual_module(trivial_module(2, 2)).action[0].is_zero()
    # Hom(B (x) B, B): h acts by 2, e by 0 on the generator
    hom = modules["hom_bb_b"]
    assert hom.dim == 1
    assert hom.action[0][0, 0] == g(2)
    assert hom.action[1][0, 0] == ZERO
    # End of a 1-dim module is trivial
    assert end_module(b).action[0].is_zero()
    for module in [dual_module(b), hom, end_module(b),
                   tensor_module(b, b), exterior_power_module(b, 1)]:
        assert check_module(gsub, module).ok


def oracle_end_module(m):
    """End(E) built entry by entry, as end_module once did: the action
    phi -> rho phi - phi rho, with unit E_(r,s) at r*dim + s."""
    dim = m.dim * m.dim
    action = []
    for a in range(m.dim_g):
        rho = m.action[a]
        mat = Matrix.zeros(dim, dim)
        for r in range(m.dim):
            for s in range(m.dim):
                col = r * m.dim + s
                # rho @ E_(r,s): column s gets rho's column r.
                for k in range(m.dim):
                    x = rho[k, r]
                    if not x.is_zero():
                        mat.data[(k * m.dim + s) * dim + col] = \
                            mat.data[(k * m.dim + s) * dim + col] + x
                # -E_(r,s) @ rho: row r spreads rho's row s.
                for k in range(m.dim):
                    x = rho[s, k]
                    if not x.is_zero():
                        mat.data[(r * m.dim + k) * dim + col] = \
                            mat.data[(r * m.dim + k) * dim + col] - x
        action.append(mat)
    return GModule(dim, action)


def test_end_module_matches_the_entrywise_oracle():
    # End(E) is E (x) E*: sl2's three modules, the B of u2t2 and gl(3), and
    # the quotient and a random module of random_pair(0..7)
    _, modules = sl2_pair()
    cases = list(modules.values()) + [gl_un_tn(n).module_b for n in (2, 3)]
    for seed in range(8):
        rpair = random_pair(seed)
        cases += [rpair.quotient_module(), random_module(rpair, 2, seed)]
    assert len(cases) == 21
    for module in cases:
        end = end_module(module)
        assert end.dim == module.dim ** 2
        assert end.action == oracle_end_module(module).action


def test_derived_modules_flat_on_bigger_pair():
    fixture = gl_un_tn(2)
    gsub = fixture.pair.g_algebra()
    b = fixture.module_b
    for module in [dual_module(b), end_module(b),
                   tensor_module(dual_module(b), b),
                   exterior_power_module(b, 2)]:
        assert check_module(gsub, module).ok


def test_adapt_basis_identity_case():
    pair, _ = sl2_pair()
    basis = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    adapted, t = adapt_basis(pair.d, basis)
    assert t == Matrix.identity(3)
    assert adapted.c == pair.d.c


def test_adapt_basis_skew_span():
    pair, _ = sl2_pair()
    # span(h + e, e) is the same Borel subalgebra in a skew basis
    adapted, t = adapt_basis(pair.d, [[ONE, ONE, ZERO], [ZERO, ONE, ZERO]])
    assert validate_lie_algebra(adapted).ok
    new_pair = make_pair(adapted, 2)
    assert new_pair.dim_b == 1
    # conjugation consistency: T c'(i,j) = [T e_i, T e_j] in old coordinates
    for i in range(3):
        for j in range(3):
            old = pair.d.bracket(t.col(i), t.col(j))
            assert apply(t, adapted.c[i][j]) == old


def test_adapt_basis_rejects_bad_spans():
    pair, _ = sl2_pair()
    with pytest.raises(NotASubalgebra):
        adapt_basis(pair.d, [[ONE, ZERO, ZERO], [g(2), ZERO, ZERO]])
    with pytest.raises(NotASubalgebra):
        adapt_basis(pair.d, [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])  # (e, f)


def test_check_matched_pair_trivial_cases():
    a = LieAlgebra.zero(2)
    b = LieAlgebra.zero(3)
    zero_nabla = [Matrix.zeros(3, 3)] * 2
    zero_delta = [Matrix.zeros(2, 2)] * 3
    assert check_matched_pair(MatchedPairData(a, b, zero_nabla, zero_delta)).ok


def test_check_matched_pair_detects_bad_action():
    data = affine_bialgebra()
    assert check_matched_pair(data).ok
    bad = MatchedPairData(data.a, data.b,
                          [m + Matrix.identity(2) for m in data.nabla],
                          data.delta)
    assert not check_matched_pair(bad).ok


def test_corrupted_nabla_breaks_jacobi_of_the_sum():
    # bypass the compatibility gate and build the sum bracket directly:
    # some mixed triple must then violate Jacobi
    data = affine_bialgebra()
    bad_nabla = [m + Matrix.identity(2) for m in data.nabla]
    na, nb = data.a.dim, data.b.dim
    n = na + nb
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(na):
        for j in range(na):
            c[i][j] = list(data.a.c[i][j]) + [ZERO] * nb
    for i in range(nb):
        for j in range(nb):
            c[na + i][na + j] = [ZERO] * na + list(data.b.c[i][j])
    for i in range(na):
        for j in range(nb):
            vec = [-x for x in data.delta[j].col(i)] + list(bad_nabla[i].col(j))
            c[i][na + j] = vec
            c[na + j][i] = [-x for x in vec]
    report = validate_lie_algebra(LieAlgebra(n, c))
    mixed = [e for e in report.entries if e["check"] == "jacobi"]
    assert mixed


def oracle_check_matched_pair(m):
    """The matched-pair check check_matched_pair replaced: both algebras and
    both actions validated on their own, then the two mixed compatibility
    laws over every index triple with dense vectors."""
    report = Report("matched_pair")
    for label, alg in (("a", m.a), ("b", m.b)):
        for entry in validate_lie_algebra(alg).entries:
            report.add(label + "_" + entry["check"], entry["location"],
                       entry["residual"])
    for law, alg, mats, dim in (("nabla_flatness", m.a, m.nabla, m.b.dim),
                                ("delta_flatness", m.b, m.delta, m.a.dim)):
        for entry in check_module(alg, GModule(dim, mats)).entries:
            report.add(law, entry["location"], entry["residual"])

    def act_combo(matrices, coeffs, vec):
        out = [ZERO] * len(vec)
        for s, c in enumerate(coeffs):
            if not c.is_zero():
                out = vec_add(out, [c * x for x in apply(matrices[s], vec)])
        return out

    # nabla_X [Y1,Y2] = [nabla_X Y1, Y2] + [Y1, nabla_X Y2]
    #                   + nabla_{delta_{Y2} X} Y1 - nabla_{delta_{Y1} X} Y2,
    # and the same law with the roles of (A, nabla) and (B, delta) swapped
    for law, outer, inner, act, coact in (
            ("mixed_nabla", m.a, m.b, m.nabla, m.delta),
            ("mixed_delta", m.b, m.a, m.delta, m.nabla)):
        n = inner.dim
        for x in range(outer.dim):
            for y1 in range(n):
                for y2 in range(n):
                    e1, e2 = basis_vec(n, y1), basis_vec(n, y2)
                    lhs = apply(act[x], inner.c[y1][y2])
                    t1 = inner.bracket(act[x].col(y1), e2)
                    t2 = inner.bracket(e1, act[x].col(y2))
                    t3 = act_combo(act, coact[y2].col(x), e1)
                    t4 = act_combo(act, coact[y1].col(x), e2)
                    res = [a - b - c - d + e for a, b, c, d, e
                           in zip(lhs, t1, t2, t3, t4)]
                    if not vec_is_zero(res):
                        pos = next(p for p, v in enumerate(res)
                                   if not v.is_zero())
                        report.add(law, (x, y1, y2, pos), res[pos])
    return report


def _matched_bases():
    sl2 = sl2_pair()[0]
    return [("affine", affine_bialgebra()), ("u2t2", gl_un_tn(2).matched),
            ("sl2_zero_cobracket", zero_cobracket_bialgebra(sl2.d)),
            ("sl2_split", pair_to_matched(sl2))]


def _corrupted_action(mats, rng):
    """A copy of the action matrices with one entry changed."""
    out = [Matrix(mat.rows, mat.cols, mat.data) for mat in mats]
    mat = rng.choice(out)
    pos = rng.randrange(len(mat.data))
    mat.data[pos] = mat.data[pos] + GaussScalar(rng.choice([-2, -1, 1, 3]),
                                                rng.choice([0, 0, 1]))
    return out


def _matched_corruptions(m, rng):
    """Seeded one-entry corruptions of A and B (keeping antisymmetry and
    breaking it), of nabla and of delta."""
    for trial in range(16):
        keep = trial % 2 == 0
        if m.a.dim > 1 or not keep:
            yield MatchedPairData(corrupted(m.a, rng, keep), m.b, m.nabla,
                                  m.delta)
        if m.b.dim > 1 or not keep:
            yield MatchedPairData(m.a, corrupted(m.b, rng, keep), m.nabla,
                                  m.delta)
        yield MatchedPairData(m.a, m.b, _corrupted_action(m.nabla, rng),
                              m.delta)
        yield MatchedPairData(m.a, m.b, m.nabla,
                              _corrupted_action(m.delta, rng))


def test_matched_pair_check_agrees_with_the_dense_oracle():
    rng = random.Random(1990)
    named = set()
    cases = 0
    for name, base in _matched_bases():
        for data in [base] + list(_matched_corruptions(base, rng)):
            new, old = check_matched_pair(data), oracle_check_matched_pair(data)
            assert new.ok == old.ok, name
            laws = {e["check"] for e in new.entries}
            assert laws <= {e["check"] for e in old.entries}, name
            named |= laws
            if old.ok:
                assert matched_sum(data).dim_g == data.a.dim
            else:
                with pytest.raises(MatchedPairAxiomsFail):
                    matched_sum(data)
            cases += 1
    # sl2_split's B is one-dimensional: it has no antisymmetric corruption
    assert cases == 4 + 4 * 64 - 8
    assert named == {"a_antisymmetry", "b_antisymmetry", "a_jacobi",
                     "b_jacobi", "nabla_flatness", "delta_flatness",
                     "mixed_nabla", "mixed_delta"}


def test_bialgebra_pair_raises_exactly_when_the_oracle_fails():
    # one antisymmetric entry pair of one cobracket matrix changed
    rng = random.Random(1204)
    verdicts = set()
    for g in (affine_bialgebra().a, sl2_pair()[0].d, heisenberg_pair().d):
        n = g.dim
        base = [Matrix(n, n, [ZERO] * (n * n)) for _ in range(n)]
        if n == 2:
            base[1] = Matrix.from_rows([[ZERO, ONE], [-ONE, ZERO]])
        for _ in range(10):
            cob = [Matrix(n, n, mat.data) for mat in base]
            mat = rng.choice(cob)
            j, k = rng.sample(range(n), 2)
            value = mat[j, k] + GaussScalar(rng.choice([-1, 1, 2]))
            mat.data[j * n + k], mat.data[k * n + j] = value, -value
            dual_c = [[[cob[i][j, k] for i in range(n)] for k in range(n)]
                      for j in range(n)]
            g_star = LieAlgebra(n, dual_c)
            data = MatchedPairData(
                g, g_star, [-g.ad(i).transpose() for i in range(n)],
                [-g_star.ad(i).transpose() for i in range(n)])
            ok = oracle_check_matched_pair(data).ok
            verdicts.add(ok)
            if ok:
                assert bialgebra_pair(g, cob).b.c == g_star.c
            else:
                with pytest.raises(NotABialgebra):
                    bialgebra_pair(g, cob)
    assert verdicts == {True, False}


def test_matched_pair_data_checks_action_shapes():
    data = affine_bialgebra()
    wrong = [Matrix.zeros(3, 3)] * 2
    with pytest.raises(ValueError, match="nabla"):
        MatchedPairData(data.a, data.b, wrong, data.delta)
    with pytest.raises(ValueError, match="delta"):
        MatchedPairData(data.a, data.b, data.nabla, wrong)


def test_matched_sum_zero_actions_direct_product():
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    b = LieAlgebra.zero(1)
    data = MatchedPairData(a, b, [Matrix.zeros(1, 1)] * 2, [Matrix.zeros(2, 2)])
    pair = matched_sum(data)
    assert pair.dim_g == 2
    assert validate_lie_algebra(pair.d).ok
    assert pair.d.c[0][1] == [ZERO, ONE, ZERO]
    assert pair.d.c[0][2] == [ZERO, ZERO, ZERO]


def test_unitary_triangular_matched_pair_against_matrix_oracle():
    fixture = gl_un_tn(2)
    assert check_matched_pair(fixture.matched).ok
    assert validate_lie_algebra(fixture.pair.d).ok
    # Oracle: structure constants computed directly from 2x2 matrix commutators.
    mats = u_basis(2) + t_basis(2)
    for i in range(8):
        for j in range(8):
            z = commutator(mats[i], mats[j])
            u, t = split_anti_hermitian(z)
            expected = u_coords(2, u) + t_coords(2, t)
            assert fixture.pair.d.c[i][j] == expected


def test_split_anti_hermitian_is_exact_decomposition():
    for m in u_basis(2) + t_basis(2):
        u, t = split_anti_hermitian(m)
        assert (u + t) == m
        # u anti-Hermitian: u + conj(u)^T = 0
        conj_t = Matrix(2, 2, [u[j, i].conjugate() for i in range(2) for j in range(2)])
        assert (u + conj_t).is_zero()
        # t upper triangular with real diagonal
        assert t[1, 0] == ZERO
        assert t[0, 0].im == 0 and t[1, 1].im == 0


def test_decompose_then_rebuild_round_trip():
    pair, _ = sl2_pair()
    data = pair_to_matched(pair)
    rebuilt = matched_sum(data)
    assert rebuilt.d.c == pair.d.c
    fixture = gl_un_tn(2)
    data2 = pair_to_matched(fixture.pair)
    assert matched_sum(data2).d.c == fixture.pair.d.c


def test_g_algebra_checks():
    assert check_g_algebra(LieAlgebra.zero(2), dual_numbers_algebra(2)).ok
    assert check_g_algebra(LieAlgebra.zero(2), unit_algebra(2)).ok
    # action sending eps to the unit is not a derivation of eps^2 = 0
    bad_action = [Matrix.from_rows([[ZERO, ONE], [ZERO, ZERO]]),
                  Matrix.zeros(2, 2)]
    bad = GAlgebra(GModule(2, bad_action),
                   dual_numbers_algebra(2).mult)
    report = check_g_algebra(LieAlgebra.zero(2), bad)
    assert any(e["check"] == "derivation" and e["residual"] == "-2"
               for e in report.entries)


def _truncated_polynomials(n, weights):
    """k[x]/(x^n) with g abelian of dim len(weights), basis vector a acting
    by the derivation weights[a] * x d/dx."""
    mult = [[[ONE if k == i + j else ZERO for k in range(n)]
             for j in range(n)] for i in range(n)]
    action = [Matrix.from_rows([[GaussScalar(w) * i if i == j else ZERO
                                 for j in range(n)] for i in range(n)])
              for w in weights]
    return algebra_from_table(GModule(n, action), mult)


def _corrupted(algebra, kind, rng):
    """A copy of algebra with one seeded Gaussian or fractional change that
    breaks commutativity, associativity (a symmetric change) or the
    derivation property (an action entry)."""
    d = algebra.dim
    mult = dense_mult(algebra)
    action = [Matrix.from_rows([[m[r, c] for c in range(d)] for r in range(d)])
              for m in algebra.module.action]
    value = rng.choice([GaussScalar(1, 1), GaussScalar(Fraction(1, 3)),
                        GaussScalar(-2)])
    i, j, k = (rng.randrange(d) for _ in range(3))
    if kind == "commutativity":
        j = (i + 1 + rng.randrange(d - 1)) % d
        mult[i][j][k] = mult[i][j][k] + value
    elif kind == "associativity":
        mult[i][j][k] = mult[i][j][k] + value
        if i != j:
            mult[j][i][k] = mult[j][i][k] + value
    else:
        a = rng.randrange(len(action))
        action[a].data[i * d + j] = action[a].data[i * d + j] + value
    return algebra_from_table(GModule(d, action), mult)


def test_g_algebra_check_matches_dense_oracle():
    # the sparse check reports every violation the dense products find,
    # in the same order, with the same residuals
    pair, _ = sl2_pair()
    zero2 = LieAlgebra.zero(2)
    cases = [(zero2, unit_algebra(2)), (zero2, dual_numbers_algebra(2)),
             (pair.g_algebra(), weighted_dual_numbers(pair, [1, 0])),
             (pair.g_algebra(), weighted_dual_numbers(pair, [0, 1])),
             (zero2, _truncated_polynomials(4, [1, -2])),
             (zero2, _truncated_polynomials(5, [0, 1]))]
    rng = random.Random(20)
    for g, algebra in list(cases):
        for kind in ("commutativity", "associativity", "derivation"):
            if kind == "commutativity" and algebra.dim == 1:
                continue
            for _ in range(6):
                cases.append((g, _corrupted(algebra, kind, rng)))
    failing = 0
    for g, algebra in cases:
        got = check_g_algebra(g, algebra).entries
        assert got == dense_check_g_algebra(g, algebra).entries
        failing += bool(got)
    assert failing >= 50


def test_weighted_dual_numbers_flatness_constraint():
    pair, _ = sl2_pair()
    good = weighted_dual_numbers(pair, [1, 0])
    assert check_g_algebra(pair.g_algebra(), good).ok
    bad = weighted_dual_numbers(pair, [0, 1])
    assert not check_g_algebra(pair.g_algebra(), bad).ok


def test_bialgebra_constructions():
    data = affine_bialgebra()
    assert check_matched_pair(data).ok
    # dual bracket [x*, y*] = y* from delta(y) = x ^ y
    assert data.b.c[0][1] == [ZERO, ONE]
    pair = matched_sum(data)
    assert validate_lie_algebra(pair.d).ok

    from liepairs.zoo import zero_cobracket_bialgebra
    pair2_data = zero_cobracket_bialgebra(sl2_pair()[0].d)
    for m in pair2_data.delta:
        assert m.is_zero()
    for x in range(3):
        assert pair2_data.nabla[x] == -(sl2_pair()[0].d.ad(x).transpose())


def test_bialgebra_rejects_non_cocycle_cobracket():
    pair, _ = sl2_pair()
    m_h = Matrix.zeros(3, 3)
    m_h.data[1 * 3 + 2] = ONE
    m_h.data[2 * 3 + 1] = -ONE  # delta(h) = e ^ f
    with pytest.raises(NotABialgebra):
        bialgebra_pair(pair.d, [m_h, Matrix.zeros(3, 3), Matrix.zeros(3, 3)])


def test_heisenberg_pair():
    pair = heisenberg_pair()
    assert validate_lie_algebra(pair.d).ok
    assert pair.dim_g == 1 and pair.dim_b == 2
    assert pair.quotient_module().action[0].is_zero()
