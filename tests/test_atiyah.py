import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from liepairs.atiyah import (
    BiForm,
    _diagonal_cochain,
    _packed,
    _power_traces,
    _todd_log_coefficients,
    atiyah_class,
    compatibility_report,
    direct_sum_connection,
    obstruction_biform_matrix,
    scalar_class,
    todd_biform,
    todd_class,
)
from liepairs.ce import (
    Cochain,
    Connection,
    atiyah_cocycle,
    ce_diff,
    curvature,
    end_connection,
    extend_by_zero,
    is_cocycle,
)
from liepairs.lie_core import (
    GModule,
    direct_sum_module,
    dual_module,
    end_module,
    make_pair,
    tensor_module,
    trivial_module,
)
from liepairs.linalg import Matrix
from liepairs.multilinear import merge_sign
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import (
    affine_pair,
    gl_un_tn,
    heisenberg_pair,
    random_extension,
    random_module,
    random_pair,
    sl2_borel_pair,
    sl2_pair,
    sl2_pair_swapped,
)
from oracles import (
    oracle_biform_matrix,
    oracle_biform_product,
    oracle_power_traces,
)


def g(x):
    return GaussScalar(x)


def test_extend_by_zero_sl2():
    pair, modules = sl2_pair()
    conn = extend_by_zero(pair, modules["B"])
    assert conn.nabla[0][0, 0] == g(-2)
    assert conn.nabla[1].is_zero()
    assert conn.nabla[2].is_zero()


def test_connection_must_extend_action():
    pair, modules = sl2_pair()
    bad = [Matrix.zeros(1, 1)] * 3
    with pytest.raises(ValueError):
        Connection(pair, modules["B"], bad)


def test_curvature_sl2_goldens():
    pair, modules = sl2_pair()
    conn = extend_by_zero(pair, modules["B"])
    # flat on the subalgebra
    assert curvature(conn, 0, 1).is_zero()
    # R(e, f) = -nabla_[e,f] = -nabla_h = (2)
    assert curvature(conn, 1, 2)[0, 0] == g(2)
    # R(h, f) = 0
    assert curvature(conn, 0, 2).is_zero()


def test_curvature_vanishes_on_subalgebra_for_random_extensions():
    for seed in (1, 5, 9):
        pair = random_pair(seed)
        module = pair.quotient_module()
        conn = random_extension(pair, module, seed + 100)
        for a in range(pair.dim_g):
            for a2 in range(pair.dim_g):
                assert curvature(conn, a, a2).is_zero()


def test_atiyah_cocycle_sl2_golden():
    pair, modules = sl2_pair()
    conn = extend_by_zero(pair, modules["B"])
    cocycle = atiyah_cocycle(conn)
    # only entry: alpha(e; class of f) = multiplication by 2
    assert cocycle.get((1,), (0,), 0) == g(2)
    assert cocycle.get((0,), (0,), 0) == ZERO
    assert is_cocycle(cocycle)


def test_compatible_connection_has_zero_cocycle():
    pair = heisenberg_pair()
    conn = extend_by_zero(pair, pair.quotient_module())
    assert atiyah_cocycle(conn).is_zero()
    assert compatibility_report(conn).ok


def test_atiyah_class_sl2_does_not_vanish():
    pair, modules = sl2_pair()
    report = atiyah_class(pair, modules["B"])
    assert not report.vanishes
    assert report.primitive is None and report.repaired is None
    assert is_cocycle(report.cocycle)


def test_trivial_module_class_vanishes():
    pair, _ = sl2_pair()
    report = atiyah_class(pair, trivial_module(2, 1))
    assert report.vanishes
    assert compatibility_report(report.repaired).ok


def test_two_extensions_differ_by_exact_term():
    for seed in (2, 3, 7):
        pair = random_pair(seed)
        module = pair.quotient_module()
        c1 = extend_by_zero(pair, module)
        c2 = random_extension(pair, module, seed + 50)
        w1 = atiyah_cocycle(c1)
        w2 = atiyah_cocycle(c2)
        # phi(b) = nabla1_{j(b)} - nabla2_{j(b)} is the difference section
        phi = Cochain(pair, w1.module, 0, 1)
        for b in range(pair.dim_b):
            diff = c1.nabla[pair.dim_g + b] - c2.nabla[pair.dim_g + b]
            for row in range(module.dim):
                for col in range(module.dim):
                    phi.set((), (b,), row * module.dim + col, diff[row, col])
        assert ce_diff(phi) == (w1 - w2)


def test_repaired_connection_is_compatible():
    # rank-one subalgebra acting with nonzero weights: obstruction cohomology
    # vanishes, so a random extension must be repairable.
    pair = sl2_borel_pair()
    module = pair.quotient_module()
    conn = random_extension(pair, module, 11)
    report = atiyah_class(pair, module, conn)
    assert report.vanishes
    assert not report.cocycle.is_zero()
    assert compatibility_report(report.repaired).ok
    assert not compatibility_report(conn).ok


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(pair_seed=st.integers(0, 10 ** 6),
       module=st.sampled_from(["B", 1, 2, 3]),
       module_seed=st.integers(0, 10 ** 6),
       extension_seed=st.none() | st.integers(0, 10 ** 6))
def test_a_class_vanishes_exactly_when_its_repair_is_compatible(
        pair_seed, module, module_seed, extension_seed):
    # over seeded pairs, the quotient module B or a seeded flat module, and
    # the zero or a seeded extension; both verdicts occur among the examples
    pair = random_pair(pair_seed)
    if module == "B":
        module = pair.quotient_module()
    else:
        module = random_module(pair, module, module_seed)
    if extension_seed is None:
        conn = extend_by_zero(pair, module)
    else:
        conn = random_extension(pair, module, extension_seed)
    report = atiyah_class(pair, module, conn)
    assert report.vanishes == (report.repaired is not None)
    if report.vanishes:
        assert compatibility_report(report.repaired).ok
        assert atiyah_cocycle(report.repaired).is_zero()
    else:
        assert not report.cocycle.is_zero()


def test_end_connection_matches_commutator():
    pair, modules = sl2_pair()
    module = modules["B_dual"]
    conn = random_extension(pair, module, 4)
    econn = end_connection(conn)
    dim = module.dim
    for x in range(pair.dim_d):
        for r in range(dim):
            for s in range(dim):
                unit = Matrix.zeros(dim, dim)
                unit.data[r * dim + s] = ONE
                expected = conn.nabla[x] @ unit - unit @ conn.nabla[x]
                got = econn.nabla[x].col(r * dim + s)
                for k in range(dim):
                    for l in range(dim):
                        assert got[k * dim + l] == expected[k, l]


def test_scalar_class_sl2_golden():
    pair, modules = sl2_pair()
    first = scalar_class(pair, modules["B"], 1)
    assert first.prefactor == "(1/1!)*(i/(2*pi))^1"
    assert first.cochain.get((1,), (), 0) == g(2)
    assert first.cochain.get((0,), (), 0) == ZERO
    # exterior degree overflow: k = 2 > min(dim g, dim B) = 1
    second = scalar_class(pair, modules["B"], 2)
    assert second.cochain.is_zero()


def test_scalar_class_block_additive():
    fixture = gl_un_tn(2)
    pair = fixture.pair
    m1 = random_module(pair, 2, 21)
    m2 = trivial_module(pair.dim_g, 1)
    c1 = extend_by_zero(pair, m1)
    c2 = extend_by_zero(pair, m2)
    both = direct_sum_connection(c1, c2)
    for k in (1, 2):
        total = scalar_class(pair, direct_sum_module(m1, m2), k, both)
        parts = scalar_class(pair, m1, k, c1).cochain + \
            scalar_class(pair, m2, k, c2).cochain
        assert total.cochain == parts


def test_todd_zero_curvature_is_one():
    pair = heisenberg_pair()
    module = pair.quotient_module()
    todd = todd_class(pair, module)
    assert todd.components[0].data == [ONE]
    assert todd.components[1].is_zero()


def test_todd_one_dim_module_is_series():
    pair, modules = sl2_pair()
    todd = todd_class(pair, modules["B"])
    # degree 0 part is 1; degree 1 part is alpha/2 = e* (x) f*
    assert todd.components[0].data == [ONE]
    assert todd.components[1].get((1,), (), 0) == ONE
    assert todd.components[1].get((0,), (), 0) == ZERO


def test_todd_multiplicative_on_blocks():
    fixture = gl_un_tn(2)
    pair = fixture.pair
    m1 = random_module(pair, 2, 33)
    m2 = trivial_module(pair.dim_g, 1)
    c1 = extend_by_zero(pair, m1)
    c2 = extend_by_zero(pair, m2)
    both = direct_sum_connection(c1, c2)
    assert todd_biform(both) == todd_biform(c1) * todd_biform(c2)
    # components are cocycles and degree zero is 1
    todd = todd_class(pair, direct_sum_module(m1, m2), both)
    assert todd.components[0].data == [ONE]
    for k, comp in todd.components.items():
        assert is_cocycle(comp)


def test_scalar_and_todd_outputs_are_cocycles():
    fixture = gl_un_tn(2)
    pair = fixture.pair
    module = random_module(pair, 2, 40)
    for k in (1, 2, 3):
        scalar_class(pair, module, k)  # raises NotACocycle on failure
    todd_class(pair, module)


# Oracle: the series Todd class and the plain matrix powers that the
# power-trace versions replaced, with the hand-typed coefficient table of
# x / (1 - exp(-x)) they used.  Every product here is oracle_biform_product,
# so no oracle shares the library's product kernel.
TODD_SERIES = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 12),
    Fraction(0),
    Fraction(-1, 720),
    Fraction(0),
    Fraction(1, 30240),
    Fraction(0),
    Fraction(-1, 1209600),
]


def bf_mul(a, b):
    n = len(a)
    out = [[BiForm() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + oracle_biform_product(a[i][k],
                                                              b[k][j])
    return out


def bf_identity(n):
    return [[BiForm.constant(1) if i == j else BiForm() for j in range(n)]
            for i in range(n)]


def bf_trace(a):
    acc = BiForm()
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def series_power_traces(alpha, n):
    power = bf_identity(len(alpha))
    traces = []
    for _ in range(n):
        power = bf_mul(power, alpha)
        traces.append(bf_trace(power))
    return traces


def series_todd_biform(conn):
    depth = min(conn.pair.dim_g, conn.pair.dim_b)
    assert depth < len(TODD_SERIES)
    dim = conn.module.dim
    alpha = oracle_biform_matrix(conn)
    one = bf_identity(dim)
    nilpotent = [[BiForm() for _ in range(dim)] for _ in range(dim)]
    power = one
    for m in range(1, depth + 1):
        power = bf_mul(power, alpha)
        coeff = GaussScalar(TODD_SERIES[m])
        nilpotent = [[x + y.scale(coeff) for x, y in zip(rn, rp)]
                     for rn, rp in zip(nilpotent, power)]
    log_trace = BiForm()
    npower = one
    for m in range(1, depth + 1):
        npower = bf_mul(npower, nilpotent)
        log_trace = log_trace + bf_trace(npower).scale(
            GaussScalar(Fraction((-1) ** (m + 1), m)))
    result = BiForm.constant(1)
    tpower = BiForm.constant(1)
    for m in range(1, depth + 1):
        tpower = oracle_biform_product(tpower, log_trace)
        result = result + tpower.scale(GaussScalar(Fraction(1, factorial(m))))
    return result


def _class_cases():
    fixture = gl_un_tn(2)
    pair = fixture.pair
    b = pair.quotient_module()
    yield random_extension(pair, b, 3)
    yield fixture.conn_mult
    e2 = random_module(pair, 2, 1)
    yield random_extension(pair, e2, 11)
    for seed in (1, 2, 6, 7):
        rpair = random_pair(seed)
        yield random_extension(rpair, rpair.quotient_module(), seed + 20)
        yield random_extension(rpair, random_module(rpair, 2, seed), seed + 30)
    sl2, modules = sl2_pair()
    yield extend_by_zero(sl2, modules["B"])
    # dim B = 0: depth 0, no power and no coefficient is taken.
    flat = make_pair(sl2.d, sl2.dim_d)
    yield extend_by_zero(flat, trivial_module(flat.dim_g, 2))


def test_todd_and_scalar_classes_match_series_oracle():
    depths = set()
    for conn in _class_cases():
        pair, module = conn.pair, conn.module
        depth = min(pair.dim_g, pair.dim_b)
        depths.add(depth)
        assert todd_biform(conn) == series_todd_biform(conn)
        alpha = obstruction_biform_matrix(conn)
        expected = series_power_traces(oracle_biform_matrix(conn), depth + 1)
        assert _power_traces(alpha, depth + 1) == expected
        assert _power_traces(alpha, 0) == []
        # scalar_class(k) takes the last of k traces, the one formed as a dot
        for k in range(1, depth + 2):
            got = scalar_class(pair, module, k, conn).cochain
            assert got == _diagonal_cochain(pair, expected[k - 1], k)
    assert {0, 1, 4} <= depths


def test_todd_log_coefficients_give_bernoulli_numbers():
    coeffs = _todd_log_coefficients(12)
    assert _todd_log_coefficients(0) == []
    assert coeffs[0] == Fraction(1, 2)
    known = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66),
             12: Fraction(-691, 2730)}
    for m in range(2, 13):
        bernoulli = -coeffs[m - 1] * m * factorial(m)
        assert bernoulli == known.get(m, 0)


def test_todd_log_coefficients_exponentiate_to_series_table():
    # f = exp(g) with g(0) = 0 obeys n f_n = sum_k k g_k f_(n-k).
    order = len(TODD_SERIES) - 1
    g = [Fraction(0)] + _todd_log_coefficients(order)
    f = [Fraction(1)]
    for n in range(1, order + 1):
        f.append(sum(k * g[k] * f[n - k] for k in range(1, n + 1)) / n)
    assert f == TODD_SERIES


def termwise_product(x, y):
    """x * y with one merge_sign call per pair of terms, summed one term at a
    time: the product BiForm.__mul__ computes on bit masks."""
    out = BiForm()
    for (g1, b1), v1 in x.terms.items():
        for (g2, b2), v2 in y.terms.items():
            gm, bm = merge_sign(g1, g2), merge_sign(b1, b2)
            if gm is None or bm is None:
                continue
            sign = gm[0] * bm[0] * (-1) ** (len(b1) * len(g2))
            out = out + BiForm({(gm[1], bm[1]): v1 * v2 * GaussScalar(sign)})
    return out


def random_biform(rng, dim_g, dim_b):
    def indices(n):
        return tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))

    return BiForm({(indices(dim_g), indices(dim_b)):
                   GaussScalar(rng.choice([-3, -1, 1, 2]), rng.choice([0, 0, 1]))
                   for _ in range(rng.randint(0, 12))})


def random_value(rng):
    """A Gaussian value whose parts are integral or not."""
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return GaussScalar(part(), part() if rng.random() < 0.5 else 0)


def random_fraction_biform(rng, dim_g, dim_b):
    def indices(n):
        return tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 2)))))

    terms = {(indices(dim_g), indices(dim_b)): random_value(rng)
             for _ in range(rng.randint(0, 6))}
    return BiForm({k: v for k, v in terms.items() if not v.is_zero()})


def test_biform_product_matches_termwise_signs():
    # mixed bidegrees, so the Koszul factor (-1)^(|b1| |g2|) is exercised
    rng = random.Random(77)
    nonzero = 0
    for _ in range(200):
        x, y = random_biform(rng, 4, 3), random_biform(rng, 4, 3)
        product = x * y
        assert product == termwise_product(x, y)
        nonzero += not product.is_zero()
    assert nonzero > 100
    # wider index ranges, Gaussian and non-integral values, and operands with
    # no g-index at all, where the mask shift is 0
    nonzero = 0
    for _ in range(200):
        dim_g = rng.choice((0, 3, 6))
        x = random_fraction_biform(rng, dim_g, 5)
        y = random_fraction_biform(rng, dim_g, 5)
        product = x * y
        assert product == termwise_product(x, y) == oracle_biform_product(x, y)
        nonzero += not product.is_zero()
    assert nonzero > 100


def test_biform_sums_and_differences_go_key_by_key(monkeypatch):
    # x + y and x - y hold x's value plus or minus y's at each key, with no
    # key whose sum cancels; a difference scatters y with the factor -1, so
    # it neither scales y nor negates a scalar
    rng = random.Random(78)
    cancelled = 0
    for _ in range(200):
        x = random_fraction_biform(rng, 3, 3)
        y = random_fraction_biform(rng, 3, 3) if rng.random() < 0.8 \
            else BiForm({k: v for k, v in x.terms.items() if rng.random() < 0.7})
        for sign, got in ((1, x + y), (-1, x - y)):
            expected = {}
            for key in set(x.terms) | set(y.terms):
                total = x.terms.get(key, ZERO) + sign * y.terms.get(key, ZERO)
                if total.is_zero():
                    cancelled += 1
                else:
                    expected[key] = total
            assert got.terms == expected
    assert cancelled > 50
    monkeypatch.setattr(BiForm, "scale", None)
    monkeypatch.setattr(GaussScalar, "__neg__", None)
    assert (x - x).is_zero() and (x - y) + y == x


# -- the power-trace kernel against the full matrix powers it replaced ---------


def _zoo_connections():
    """Every connection the zoo builds: each zoo pair's modules extended by
    zero, the unitary-triangular connections and seeded random extensions
    (none on gl(3), whose dense random alpha would take minutes)."""
    sl2, modules = sl2_pair()
    for module in modules.values():
        yield extend_by_zero(sl2, module)
    for pair in (sl2_pair_swapped(), sl2_borel_pair(), heisenberg_pair(),
                 affine_pair()):
        yield extend_by_zero(pair, pair.quotient_module())
    for n in (2, 3):
        fixture = gl_un_tn(n)
        yield fixture.conn_mult
        yield fixture.conn_zero
    u2t2 = gl_un_tn(2)
    yield random_extension(u2t2.pair, u2t2.module_b, 42)
    for seed in range(8):
        rpair = random_pair(seed)
        yield random_extension(rpair, rpair.quotient_module(), seed + 60)


def test_power_traces_match_full_powers_on_zoo_connections():
    nonzero = 0
    for conn in _zoo_connections():
        depth = min(conn.pair.dim_g, conn.pair.dim_b)
        alpha = obstruction_biform_matrix(conn)
        expected = oracle_power_traces(oracle_biform_matrix(conn), depth + 1)
        nonzero += sum(not trace.is_zero() for trace in expected)
        for n in range(depth + 2):
            assert _power_traces(alpha, n) == expected[:n]
    assert nonzero > 20


def test_power_traces_match_full_powers_on_random_matrices():
    # entries of every bidegree up to (2, 2), so odd entries and the Koszul
    # factor reach the traces too
    rng = random.Random(79)
    fractional = 0
    for _ in range(30):
        dim, dim_g, dim_b = rng.randint(1, 3), 4, 3
        mat = [[random_fraction_biform(rng, dim_g, dim_b)
                for _ in range(dim)] for _ in range(dim)]
        packed = ([[_packed(entry, dim_g) for entry in row] for row in mat],
                  dim_g)
        depth = min(dim_g, dim_b)
        expected = oracle_power_traces(mat, depth + 1)
        fractional += any(v.re.__class__ is Fraction or v.im
                          for trace in expected for v in trace.terms.values())
        for n in range(depth + 2):
            assert _power_traces(packed, n) == expected[:n]
    assert fractional > 15


# -- the calculus of Atiyah classes -------------------------------------------


def dual_connection(conn):
    """Oracle: the dual connection -nabla^T on E*."""
    return Connection(conn.pair, dual_module(conn.module),
                      [-m.transpose() for m in conn.nabla])


def tensor_connection(c1, c2):
    """Oracle: nabla (x) 1 + 1 (x) nabla on E (x) F, built as end_connection
    builds its action, by tensor_module over the connections' matrices."""
    mats = tensor_module(GModule(c1.module.dim, c1.nabla),
                         GModule(c2.module.dim, c2.nabla)).action
    return Connection(c1.pair, tensor_module(c1.module, c2.module), mats)


def tensor_cocycle(pair, alpha_e, alpha_f, p, q):
    """alpha_E (x) 1 + 1 (x) alpha_F for dim E = p and dim F = q, on the
    big-endian basis e_i (x) f_j = i * q + j of tensor_module."""
    out = Cochain(pair, end_module(trivial_module(pair.dim_g, p * q)), 1, 1)

    def add(gt, bt, row, col, c):
        pos = row * p * q + col
        out.set(gt, bt, pos, out.get(gt, bt, pos) + c)

    for gt, bt, f, c in alpha_e.iter_nonzero():
        i_out, i_in = divmod(f, p)
        for j in range(q):
            add(gt, bt, i_out * q + j, i_in * q + j, c)
    for gt, bt, f, c in alpha_f.iter_nonzero():
        j_out, j_in = divmod(f, q)
        for i in range(p):
            add(gt, bt, i * q + j_out, i * q + j_in, c)
    return out


def _calculus_connections():
    """(name, connection) over one pair each: the zoo modules with their
    zero and seeded extensions, u2t2's two connections on B, and two seeded
    random modules."""
    pair, modules = sl2_pair()
    for name, module in sorted(modules.items()):
        yield "sl2", extend_by_zero(pair, module)
        yield "sl2", random_extension(pair, module, 4)
    hpair = heisenberg_pair()
    yield "heisenberg", extend_by_zero(hpair, trivial_module(hpair.dim_g, 1))
    yield "heisenberg", random_extension(hpair, hpair.quotient_module(), 5)
    fixture = gl_un_tn(2)
    yield "u2t2", fixture.conn_mult
    yield "u2t2", fixture.conn_zero
    for seed in (0, 1):
        rpair = random_pair(seed)
        module = random_module(rpair, 2, seed + 1)
        yield "random%d" % seed, extend_by_zero(rpair, module)
        yield "random%d" % seed, random_extension(rpair, module, seed + 7)


def test_dual_connection_has_minus_the_transposed_class():
    nonzero = 0
    for _, conn in _calculus_connections():
        alpha = atiyah_cocycle(conn)
        d = conn.module.dim
        expected = Cochain(conn.pair, alpha.module, 1, 1)
        for gt, bt, f, c in alpha.iter_nonzero():
            row, col = divmod(f, d)
            expected.set(gt, bt, col * d + row, -c)
        assert atiyah_cocycle(dual_connection(conn)) == expected
        nonzero += bool(expected.entries)
    assert nonzero >= 10


def test_tensor_connection_has_the_sum_of_the_classes():
    by_pair = {}
    for name, conn in _calculus_connections():
        by_pair.setdefault(name, []).append(conn)
    checked = 0
    for conns in by_pair.values():
        for c1 in conns:
            for c2 in conns:
                expected = tensor_cocycle(
                    c1.pair, atiyah_cocycle(c1), atiyah_cocycle(c2),
                    c1.module.dim, c2.module.dim)
                got = atiyah_cocycle(tensor_connection(c1, c2))
                assert got == expected
                checked += bool(expected.entries)
    assert checked >= 30


def test_end_connection_has_the_class_of_e_tensor_e_dual():
    # End E = E (x) E* on the same basis (row, col), and the commutator
    # connection is nabla (x) 1 + 1 (x) (-nabla^T)
    for _, conn in _calculus_connections():
        dual = dual_connection(conn)
        econn = end_connection(conn)
        assert econn.nabla == tensor_connection(conn, dual).nabla
        d = conn.module.dim
        assert atiyah_cocycle(econn) == tensor_cocycle(
            conn.pair, atiyah_cocycle(conn), atiyah_cocycle(dual), d, d)


def test_tensor_class_vanishes_when_both_factors_do():
    by_pair = {}
    for name, conn in _calculus_connections():
        if atiyah_class(conn.pair, conn.module, conn).vanishes:
            by_pair.setdefault(name, []).append(conn)
    # u2t2's connections on B have vanishing classes but nonzero cocycles
    assert any(atiyah_cocycle(c).entries for c in by_pair["u2t2"])
    pairs = 0
    for conns in by_pair.values():
        for i, c1 in enumerate(conns):
            for c2 in conns[i:]:
                conn = tensor_connection(c1, c2)
                assert atiyah_class(conn.pair, conn.module, conn).vanishes
                pairs += 1
    assert pairs >= 5
