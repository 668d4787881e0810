from liepairs.atiyah import cohomology_dim
from liepairs.lie_core import (
    check_g_algebra,
    check_module,
    validate_lie_algebra,
)
from liepairs.scalars import GaussScalar, ZERO
from liepairs.zoo import (
    _sum_algebra,
    affine_bialgebra,
    check_matched_pair,
    dual_numbers_algebra,
    gl_un_tn,
    heisenberg_pair,
    random_extension,
    random_module,
    random_pair,
    sl2_borel_pair,
    sl2_pair,
    sl2_pair_swapped,
    unit_algebra,
)


def test_sl2_fixture_contract():
    pair, modules = sl2_pair()
    assert validate_lie_algebra(pair.d).ok
    b = modules["B"]
    assert b.action[0][0, 0] == GaussScalar(-2)
    assert b.action[1][0, 0] == ZERO
    assert cohomology_dim(pair, modules["hom_bb_b"], 1) == 1


def test_swapped_and_borel_variants():
    pair = sl2_pair_swapped()
    assert validate_lie_algebra(pair.d).ok
    # with g = <h, f> the quotient class of e carries weight +2
    assert pair.quotient_module().action[0][0, 0] == GaussScalar(2)
    borel = sl2_borel_pair()
    assert borel.dim_b == 2
    assert validate_lie_algebra(borel.d).ok


def test_unitary_triangular_fixture():
    fx = gl_un_tn(2)
    assert check_matched_pair(fx.matched).ok
    assert validate_lie_algebra(fx.pair.d).ok
    assert fx.pair.dim_g == 4 and fx.pair.dim_b == 4
    # quotient action recovers the declared action of the matched pair
    for x in range(4):
        assert fx.module_b.action[x] == fx.matched.nabla[x]


def test_unitary_triangular_n3_shape():
    fx = gl_un_tn(3)
    assert fx.pair.dim_g == 9 and fx.pair.dim_b == 9
    assert validate_lie_algebra(fx.pair.d).ok


def test_bialgebra_fixture():
    data = affine_bialgebra()
    assert check_matched_pair(data).ok


def test_random_pairs_always_valid_and_deterministic():
    for seed in range(12):
        pair = random_pair(seed)
        assert validate_lie_algebra(pair.d).ok
        for i in range(pair.dim_g):
            for j in range(pair.dim_g):
                assert all(x.is_zero() for x in pair.d.c[i][j][pair.dim_g:])
        again = random_pair(seed)
        assert again.d.c == pair.d.c and again.dim_g == pair.dim_g


def test_random_extension_contract():
    pair = random_pair(3)
    module = pair.quotient_module()
    conn = random_extension(pair, module, 9)
    for a in range(pair.dim_g):
        assert conn.nabla[a] == module.action[a]
    assert random_extension(pair, module, 9).nabla == conn.nabla


def test_random_modules_flat():
    for seed in (0, 1, 2):
        pair = random_pair(seed)
        for dim in (1, 2, 3):
            module = random_module(pair, dim, seed + dim)
            assert module.dim == dim
            assert check_module(pair.g_algebra(), module).ok


def test_algebra_fixtures_valid():
    pair, _ = sl2_pair()
    gsub = pair.g_algebra()
    assert check_g_algebra(gsub, unit_algebra(2)).ok
    assert check_g_algebra(gsub, dual_numbers_algebra(2)).ok


def test_heisenberg_center_pair():
    pair = heisenberg_pair()
    assert pair.dim_g == 1
    assert validate_lie_algebra(pair.d).ok


def test_sum_algebra_keeps_zero_coordinates_as_they_are(monkeypatch):
    # the mixed blocks of a matched sum negate the nonzero coordinates only:
    # a zero coordinate is the matched data's own scalar, and the nabla
    # coordinates are taken as they are, so building gl_un_tn(3)'s sum
    # negates one scalar per nonzero delta coordinate and per nonzero mixed
    # coordinate of the swapped bracket
    m = gl_un_tn(3).matched
    na, nb = m.a.dim, m.b.dim
    negations = [0]
    negate = GaussScalar.__neg__

    def counting(x):
        negations[0] += 1
        return negate(x)

    monkeypatch.setattr(GaussScalar, "__neg__", counting)
    c = _sum_algebra(m).c
    monkeypatch.undo()
    nonzero = 0
    for i in range(na):
        for j in range(nb):
            source = m.delta[j].col(i) + m.nabla[i].col(j)
            vec, swapped = c[i][na + j], c[na + j][i]
            for p, x in enumerate(source):
                assert vec[p] is x if p >= na or not x else vec[p] == -x
                assert swapped[p] is vec[p] if not x else \
                    swapped[p] == -vec[p]
                nonzero += bool(x) + bool(x and p < na)
    assert negations[0] == nonzero
