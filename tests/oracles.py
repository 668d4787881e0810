"""Reference evaluations shared by the test modules.

Each evaluates what the library computes by a separate route: the
differential of a graded element as a dense cochain through ce_diff and back,
the brackets with that differential at arity one, the Leibniz and module
identities as their own shuffle/Koszul loops over single brackets, the
g-algebra axioms as products of whole basis vectors over a dense table built
from the algebra's map of nonzero products, the basis elements of
Lambda g* (x) M (x C) enumerated afresh, and the product of
Lambda g* (x) Lambda B* with the powers and traces of the obstruction matrix
as tuple-keyed BiForm sums with wedge signs from merge_sign.  The dense
paths the sparse cohomology replaced stay here too: the differential as one
loop over every output and every input entry, its matrix read through the
dense action matrices, and rank and solve by rref of the (augmented) matrix.
The tower kernels the flat-position ones replaced are kept as they were:
each decodes its operands through Cochain.iter_nonzero, wedges forms with
merge_sign or insert_with_sign and builds a GaussScalar per term; so is the
dense loop of the prepending derivative, and the flat one that kept a table
and a term loop of its own before it read the differential's.  So is
the differential they replaced, which built each output form as a tuple,
found it with bisect and exterior_index and summed its terms in a map of its
own, for cochains and for graded elements; and so is the closed form of the
towers over a matched pair with the zero extension.  The bracket layer the
flat-position one replaced is kept too: graded elements keyed by (g-tuple,
value[, algebra index]) tuples and summed key by key, and the contraction,
the wedge, the differential and the walk of decorated tuples on them, each
form merged with merge_sign.  The validators the nonzero ones replaced are
kept as well: antisymmetry and Jacobi on whole bracket vectors, flatness as
dense GaussScalar matrix commutators, and gl_un_tn's structure constants
and gamma read off dense matrix commutators and products.  So are the
cohomology representatives read off the dense diff_matrix by
nullspace_basis, and the per-call flushing path of the tower kernels: the
merging flush, and the tensor-level residuals and module coherence tensors
with every kernel call flushing its partial sum into the residual's stored
values.  The kernels' accumulator is reached from a test through
scatter_into, and the zoo fixtures the kernel tests share are built by
fixture_set.
"""

from bisect import bisect
from itertools import product
from operator import mul

from liepairs.atiyah import (BiForm, _diff_columns, _transposed, diff_matrix,
                             nullspace_basis, pivot_columns, rref)
from liepairs.ce import (Cochain, Connection, _add_permuted, _ce_into,
                         _ce_sum, _merge_table, atiyah_cocycle, ce_diff,
                         extend_by_zero)
from liepairs.homotopy import (GradedElement, _chain_into, _compose_into,
                               _nabla_into, _unfold_end, lambda_k, mu_k)
from liepairs.lie_core import (GAlgebra, LieAlgebra, LiePair, Report,
                               end_module, tensor_module)
from liepairs.linalg import Matrix, basis_vec, vec_is_zero, zero_vec
from liepairs.multilinear import (
    _shuffles,
    enumerate_shuffles,
    exterior_basis,
    exterior_index,
    koszul_sign,
    merge_sign,
    tensor_index,
    tensor_tuples,
)
from liepairs.scalars import (ONE, ZERO, GaussScalar, _flush, _scatter,
                              as_scalar)
from liepairs.zoo import (UnitaryTriangularPair, affine_bialgebra, gl_un_tn,
                          heisenberg_pair, matched_sum, pair_to_matched,
                          random_extension, random_module, random_pair,
                          sl2_pair)


def insert_with_sign(index_tuple, s):
    """(sign, new tuple) for x_s wedged in front of a sorted tuple; None if s
    present.  The dense oracles' wedge of one generator, by a scan of the
    tuple."""
    if s in index_tuple:
        return None
    pos = 0
    while pos < len(index_tuple) and index_tuple[pos] < s:
        pos += 1
    sign = -1 if pos % 2 else 1
    return sign, index_tuple[:pos] + (s,) + index_tuple[pos:]


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


_UNSEEN = object()


def oracle_biform_product(x, y):
    """x * y as BiForm.__mul__ once computed it: tuple keys, each wedge sign
    from merge_sign once per product, and one GaussScalar per addition."""
    out = {}
    merged = {}
    for (g1, b1), v1 in x.terms.items():
        for (g2, b2), v2 in y.terms.items():
            gm = merged.get((g1, g2), _UNSEEN)
            if gm is _UNSEEN:
                gm = merged[g1, g2] = merge_sign(g1, g2)
            if gm is None:
                continue
            bm = merged.get((b1, b2), _UNSEEN)
            if bm is _UNSEEN:
                bm = merged[b1, b2] = merge_sign(b1, b2)
            if bm is None:
                continue
            sign = gm[0] * bm[0]
            if (len(b1) * len(g2)) % 2:
                sign = -sign
            key = (gm[1], bm[1])
            term = v1 * v2
            if sign < 0:
                term = -term
            acc = out.get(key)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return BiForm(out)


def oracle_biform_matrix(conn):
    """The obstruction cocycle as a matrix of tuple-keyed BiForms."""
    cocycle = atiyah_cocycle(conn)
    dim = conn.module.dim
    mat = [[BiForm() for _ in range(dim)] for _ in range(dim)]
    for (a,), (b,), e, val in cocycle.iter_nonzero():
        row, col = divmod(e, dim)
        mat[row][col] = mat[row][col] + BiForm({((a,), (b,)): val})
    return mat


def _bf_sum(forms):
    acc = BiForm()
    for form in forms:
        acc = acc + form
    return acc


def _bf_dot(a, b, i, j, n):
    return _bf_sum(oracle_biform_product(a[i][k], b[k][j]) for k in range(n)
                   if not a[i][k].is_zero() and not b[k][j].is_zero())


def _bf_mat_mul(a, b):
    n = len(a)
    return [[_bf_dot(a, b, i, j, n) for j in range(n)] for i in range(n)]


def oracle_power_traces(alpha, n):
    """[tr alpha, ..., tr alpha^n] for a BiForm matrix by full matrix powers:
    every power up to alpha^(n-1), the last trace as
    sum_ik (alpha^(n-1))_ik alpha_ki."""
    dim = len(alpha)
    powers = [alpha]
    while len(powers) < n - 1:
        powers.append(_bf_mat_mul(powers[-1], alpha))
    traces = [_bf_sum(p[i][i] for i in range(dim)) for p in powers[:n]]
    if n > 1:
        traces.append(_bf_sum(_bf_dot(powers[-1], alpha, i, i, dim)
                              for i in range(dim)))
    return traces


# -- the dense cohomology path ------------------------------------------------


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


def dense_ce_terms(pair, module, gt, bt, e):
    """The nonzero terms (J, b-tuple, e_out, coeff) of d applied to the basis
    cochain that is 1 at (gt, bt, e), read off the dense action matrices and
    bracket table entry by entry."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    rho_b = pair.quotient_module().action
    k = len(gt)
    m = 0
    for a in range(n):
        if m < k and gt[m] == a:
            m += 1
            continue
        J = gt[:m] + (a,) + gt[m:]
        odd = m % 2
        rho_e = module.action[a].data
        for e_out in range(dim_e):
            x = rho_e[e_out * dim_e + e]
            if not x.is_zero():
                yield J, bt, e_out, -x if odd else x
        rho = rho_b[a].data
        for slot, new in enumerate(bt):
            head, tail = bt[:slot], bt[slot + 1 :]
            row = new * nb
            for old in range(nb):
                x = rho[row + old]
                if not x.is_zero():
                    yield J, head + (old,) + tail, e, x if odd else -x
    c = pair.d.c
    for q, s in enumerate(gt):
        rest = gt[:q] + gt[q + 1 :]
        free = [x for x in range(n) if x not in rest]
        for i, x in enumerate(free):
            mx = x - i
            cx = c[x]
            for j in range(i + 1, len(free)):
                y = free[j]
                coeff = cx[y][s]
                if coeff.is_zero():
                    continue
                my = y - j + 1
                J = rest[:mx] + (x,) + rest[mx : my - 1] + (y,) + rest[my - 1 :]
                yield J, bt, e, -coeff if (mx + my + q) % 2 else coeff


def dense_diff_matrix(pair, module, k, l=0):
    """The differential's matrix as one dense loop over the input basis."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    g_basis = exterior_basis(n, k)
    bts = tensor_tuples(nb, l)
    b_radix = len(bts)
    out_index = exterior_index(n, k + 1)
    cols = len(g_basis) * b_radix * dim_e
    mat = Matrix.zeros(len(out_index) * b_radix * dim_e, cols)
    data = mat.data
    col = 0
    for gt in g_basis:
        for bt in bts:
            for e in range(dim_e):
                for J, bt_out, e_out, coeff in dense_ce_terms(pair, module,
                                                              gt, bt, e):
                    row = (out_index[J] * b_radix + tensor_index(bt_out, nb)) \
                        * dim_e + e_out
                    data[row * cols + col] = data[row * cols + col] + coeff
                col += 1
    return mat


def replaced_cohomology_representatives(pair, module, k, l=0):
    """cohomology_representatives as it was: the kernel basis read off the
    dense diff_matrix by nullspace_basis."""
    images = _diff_columns(pair, module, k - 1, l) if k else []
    kernel = nullspace_basis(diff_matrix(pair, module, k, l))
    columns = images + [{i: x for i, x in enumerate(v) if x} for v in kernel]
    reps = [Cochain(pair, module, k, l, kernel[c - len(images)])
            for c in pivot_columns(_transposed(
                columns, Cochain(pair, module, k, l).size), len(columns))
            if c >= len(images)]
    return len(reps), reps


def augmented(m, vec):
    """[m | vec]."""
    rows = [m.row(r) + [as_scalar(vec[r])] for r in range(m.rows)]
    return Matrix.from_rows(rows) if rows else Matrix(0, m.cols + 1, [])


def rref_rank(m):
    return rref(m)[2]


def rref_solve(m, rhs):
    """One solution of m.x = rhs, free variables zero, or None: rref of the
    augmented matrix."""
    red, pivots, _ = rref(augmented(m, rhs))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, col in enumerate(pivots):
        x[col] = red[r, m.cols]
    return x


def _first_nonzero(vec):
    return next((pos, x) for pos, x in enumerate(vec) if not x.is_zero())


def dense_mult(algebra):
    """An algebra's d x d x d product table, read off its map of nonzeros."""
    d = algebra.dim
    table = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for (i, j), terms in algebra.mult.items():
        for k, x in terms:
            table[i][j][k] = x
    return table


def algebra_from_table(module, table):
    """The GAlgebra whose products are the nonzero entries of a dense
    d x d x d table."""
    mult = {}
    for i, row in enumerate(table):
        for j, vec in enumerate(row):
            terms = [(k, x) for k, x in enumerate(vec) if not x.is_zero()]
            if terms:
                mult[i, j] = terms
    return GAlgebra(module, mult)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def dense_product(table, u, v):
    """The product of two coordinate vectors through a dense table."""
    out = [ZERO] * len(table)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, x in enumerate(table[i][j]):
                out[k] = out[k] + a * b * x
    return out


def dense_check_g_algebra(g, algebra):
    """The g-algebra check the sparse one replaced: every identity formed
    from products of whole basis vectors, entry by entry, over the dense
    table."""
    report = Report("g_algebra")
    report.entries.extend(dense_check_module(g, algebra.module).entries)
    d = algebra.dim
    mult = dense_mult(algebra)

    def product(u, v):
        return dense_product(mult, u, v)

    for i in range(d):
        for j in range(i + 1, d):
            res = vec_sub(mult[i][j], mult[j][i])
            if not vec_is_zero(res):
                where = _first_nonzero(res)
                report.add("commutativity", (i, j, where[0]), where[1])
    for i in range(d):
        for j in range(d):
            for k in range(d):
                res = vec_sub(
                    product(mult[i][j], basis_vec(d, k)),
                    product(basis_vec(d, i), mult[j][k]),
                )
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("associativity", (i, j, k, where[0]), where[1])
    for a in range(g.dim):
        rho = algebra.module.action[a]
        for i in range(d):
            for j in range(d):
                lhs = rho.apply(mult[i][j])
                rhs = vec_add(
                    product(rho.apply(basis_vec(d, i)), basis_vec(d, j)),
                    product(basis_vec(d, i), rho.apply(basis_vec(d, j))),
                )
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("derivation", (a, i, j, where[0]), where[1])
    return report


# -- the dense validators and gl_un_tn the nonzero ones replaced ---------------


def dense_validate(d):
    """The dense check validate_lie_algebra replaced: full bracket vectors
    for every antisymmetry pair and every one of the C(n, 3) Jacobi triples."""
    report = Report("lie_algebra")
    n = d.dim
    for i in range(n):
        for j in range(i, n):
            res = vec_add(d.c[i][j], d.c[j][i])
            if not vec_is_zero(res):
                where = _first_nonzero(res)
                report.add("antisymmetry", (i, j, where[0]), where[1])
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = vec_add(
                    d.bracket(d.c[i][j], basis_vec(n, k)),
                    vec_add(d.bracket(d.c[j][k], basis_vec(n, i)),
                            d.bracket(d.c[k][i], basis_vec(n, j))))
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("jacobi", (i, j, k, where[0]), where[1])
    return report


def dense_check_module(g, module):
    """The flatness check check_module replaced: for each pair i < j the
    dense matrix [rho_i, rho_j] - sum_k c_ij^k rho_k, its first nonzero entry
    in row-major order naming the violation."""
    report = Report("module_flatness")
    if module.dim_g != g.dim:
        report.add("arity", (), "expected %d matrices, got %d"
                   % (g.dim, module.dim_g))
        return report
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = module.action[i].commutator(module.action[j])
            rhs = Matrix.zeros(module.dim, module.dim)
            for k, x in enumerate(g.c[i][j]):
                if not x.is_zero():
                    rhs = rhs + module.action[k].scale(x)
            diff = lhs - rhs
            if not diff.is_zero():
                where = _first_nonzero(diff.data)
                report.add("flatness", (i, j, where[0]), where[1])
    return report


def _matrix_units(n):
    def unit(r, c, scalar=ONE):
        m = Matrix.zeros(n, n)
        m.data[r * n + c] = scalar
        return m
    return unit


def _upper(n):
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def u_basis(n):
    """The basis of u(n) as dense matrices: i E_kk, E_kl - E_lk and
    i (E_kl + E_lk) for k < l."""
    unit = _matrix_units(n)
    i = GaussScalar(0, 1)
    return ([unit(k, k, i) for k in range(n)]
            + [unit(k, l) - unit(l, k) for k, l in _upper(n)]
            + [unit(k, l, i) + unit(l, k, i) for k, l in _upper(n)])


def t_basis(n):
    """The basis of t(n) as dense matrices: E_kk, E_kl and i E_kl for
    k < l."""
    unit = _matrix_units(n)
    i = GaussScalar(0, 1)
    return ([unit(k, k) for k in range(n)]
            + [unit(k, l) for k, l in _upper(n)]
            + [unit(k, l, i) for k, l in _upper(n)])


def split_anti_hermitian(z):
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


def _upper_coords(n, m):
    return ([GaussScalar(m[k, l].re) for k, l in _upper(n)]
            + [GaussScalar(m[k, l].im) for k, l in _upper(n)])


def u_coords(n, u):
    return [GaussScalar(u[k, k].im) for k in range(n)] + _upper_coords(n, u)


def t_coords(n, t):
    return [GaussScalar(t[k, k].re) for k in range(n)] + _upper_coords(n, t)


def dense_gl_un_tn(n):
    """The construction gl_un_tn replaced: every structure constant read off
    a dense matrix commutator split into its u(n) and t(n) parts, and the
    multiplication connection's gamma off dense products of t(n) basis
    matrices."""
    tb = t_basis(n)
    nb = len(tb)
    basis = u_basis(n) + tb
    c = [[u_coords(n, u) + t_coords(n, t)
          for u, t in (split_anti_hermitian(x.commutator(y)) for y in basis)]
         for x in basis]
    matched = pair_to_matched(LiePair(LieAlgebra(len(basis), c), n * n))
    pair = matched_sum(matched)
    module_b = pair.quotient_module()
    gamma = []
    for y in range(nb):
        cols = [t_coords(n, tb[y] @ tb[z]) for z in range(nb)]
        gamma.append(Matrix.from_rows(
            [[cols[z][k] for z in range(nb)] for k in range(nb)]))
    conn = Connection(pair, module_b, list(module_b.action) + gamma)
    return UnitaryTriangularPair(matched, pair, conn)


# -- the tower kernels the flat-position kernels replaced ---------------------


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


def replaced_first_nonzero(w):
    """Cochain.first_nonzero as it was: the first item of iter_nonzero."""
    for gt, bt, e, c in w.iter_nonzero():
        return {"g": gt, "b": bt, "e": e, "value": str(c)}
    return None


def replaced_add_permuted(total, w, perm):
    """total += w.permute_b_args(perm): the entry of w at b-tuple s lands at
    the t with t[perm[i]] = s[i]."""
    if sorted(perm) != list(range(w.l)):
        raise ValueError("perm must be a permutation of the %d B-slots" % w.l)
    nb, dim_e = w.pair.dim_b, w.module.dim
    b_radix = nb ** w.l
    g_index = exterior_index(w.pair.dim_g, w.k)
    weights = [nb ** (w.l - 1 - p) for p in perm]
    data = total.entries
    for gt, bt, e, v in w.iter_nonzero():
        pos = (g_index[gt] * b_radix + sum(map(mul, bt, weights))) * dim_e + e
        data[pos] = data.get(pos, ZERO) + v


def replaced_nabla_into(total, w, conn_coeff, conn_b, st):
    """total += partial_nabla(w): each nonzero of w is scattered through the
    transpose of the three term families."""
    pair, k, l = w.pair, w.k, w.l
    m, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    data = total.entries
    g_index = exterior_index(m, k)
    b_radix = nb ** l
    out_radix = nb * b_radix
    steps = [nb ** (l - 1 - slot) for slot in range(l)]
    entries = [(g_index[gt], gt, tensor_index(bt, nb), bt, e,
                -v if k % 2 else v) for gt, bt, e, v in w.iter_nonzero()]
    for b0 in range(nb):
        n_coeff = conn_coeff.nabla[m + b0].data
        n_b = conn_b.nabla[m + b0].data
        dl = st.delta[b0].data
        # the nonzeros of the three operators b0 applies, by input index
        value_terms = [[(e_out, n_coeff[e_out * dim_e + e])
                        for e_out in range(dim_e)
                        if not n_coeff[e_out * dim_e + e].is_zero()]
                       for e in range(dim_e)]
        form_terms = [[(a_old, dl[a_new * m + a_old]) for a_old in range(m)
                       if not dl[a_new * m + a_old].is_zero()]
                      for a_new in range(m)]
        slot_terms = [[(old, n_b[new * nb + old]) for old in range(nb)
                       if not n_b[new * nb + old].is_zero()]
                      for new in range(nb)]
        for gi, gt, bi, bt, e, v in entries:
            col = b0 * b_radix + bi
            # covariant derivative of the value
            dst = (gi * out_radix + col) * dim_e
            for e_out, x in value_terms[e]:
                pos = dst + e_out
                data[pos] = data.get(pos, ZERO) + x * v
            # exterior slots fed through delta: a_new at position q of gt
            # replaced a_old, which sits at the position its insertion sign
            # counts in the output's tuple
            for q, a_new in enumerate(gt):
                rest = gt[:q] + gt[q + 1 :]
                for a_old, x in form_terms[a_new]:
                    ins = insert_with_sign(rest, a_old)
                    if ins is None:
                        continue
                    sgn, key = ins
                    pos = (g_index[key] * out_radix + col) * dim_e + e
                    term = x * v
                    data[pos] = data.get(pos, ZERO) + (
                        term if (sgn < 0) != (q % 2 == 1) else -term)
            # tensor slots fed through the connection on B
            for slot, new in enumerate(bt):
                for old, x in slot_terms[new]:
                    pos = (gi * out_radix + col
                           + (old - new) * steps[slot]) * dim_e + e
                    data[pos] = data.get(pos, ZERO) - x * v


def own_table_nabla_into(acc, w, conn_coeff, conn_b, st):
    """homotopy._nabla_into as it was before it read a table of
    ce._ce_table's shape: acc += partial_nabla(w), each nonzero of w
    scattered through the transpose of the three term families, their
    coefficients listed per b0 as signed plain parts, by a term loop of its
    own.  moves[gi] lists (a_new, a_old, index, sign) per form term: e^gi =
    s1 e^a_new ^ e^rest and e^a_old ^ e^rest = s2 e^index, read off
    _merge_table, with sign -s1 * s2."""
    pair, k, l = w.pair, w.k, w.l
    m, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    b_radix = nb ** l
    out_radix = nb * b_radix
    steps = [nb ** (l - 1 - slot) for slot in range(l)]
    moves = [[] for _ in exterior_basis(m, k)]
    for column in zip(*_merge_table(m, 1, k - 1)):
        for a_new, strip in enumerate(column):
            if strip is not None:
                moves[strip[0]] += [(a_new, a_old, wedge[0],
                                     -strip[1] * wedge[1])
                                    for a_old, wedge in enumerate(column)
                                    if wedge is not None]
    families = []
    for b0 in range(nb):
        n_coeff = conn_coeff.nabla[m + b0].data
        n_b = conn_b.nabla[m + b0].data
        dl = st.delta[b0].data
        # the nonzeros of the three operators b0 applies, by input index:
        # the value, the form and each tensor slot
        families.append((
            [[(e_out, x.re, x.im) for e_out in range(dim_e)
              if (x := n_coeff[e_out * dim_e + e])] for e in range(dim_e)],
            [[(g_out, sign * x.re, sign * x.im)
              for a_new, a_old, g_out, sign in row
              if (x := dl[a_new * m + a_old])] for row in moves],
            [[(old - new, -x.re, -x.im) for old in range(nb)
              if (x := n_b[new * nb + old])] for new in range(nb)]))
    for pos, v in w.entries.items():
        vr, vi = (-v.re, -v.im) if k % 2 else (v.re, v.im)
        rest, e = divmod(pos, dim_e)
        gi, bi = divmod(rest, b_radix)
        terms = []
        for b0, (value, forms, slots) in enumerate(families):
            col = b0 * b_radix + bi
            dst = (gi * out_radix + col) * dim_e
            terms += [(dst + e_out, xr, xi) for e_out, xr, xi in value[e]]
            terms += [((g_out * out_radix + col) * dim_e + e, xr, xi)
                      for g_out, xr, xi in forms[gi]]
            for step in steps:
                terms += [(dst + shift * step * dim_e + e, xr, xi)
                          for shift, xr, xi in slots[bi // step % nb]]
        _scatter(acc, terms, vr, vi)


def replaced_compose_into(total, outer, inner, slot):
    """total += compose_cochains(outer, inner, slot): inner's value fed into
    outer's slot-th quotient argument, forms merged with merge_sign."""
    pair = outer.pair
    nb, dim_e = pair.dim_b, outer.module.dim
    b_radix = nb ** (outer.l + inner.l - 1)
    out_index = exterior_index(pair.dim_g, outer.k + inner.k)
    data = total.entries
    by_value = {}
    for g2, t2, m, c2 in inner.iter_nonzero():
        by_value.setdefault(m, []).append((g2, t2, c2))
    for g1, t1, e, c1 in outer.iter_nonzero():
        pre, mid, post = t1[: slot - 1], t1[slot - 1], t1[slot:]
        for g2, t2, c2 in by_value.get(mid, ()):
            step = merge_sign(g1, g2)
            if step is None:
                continue
            sign, merged = step
            idx = (out_index[merged] * b_radix
                   + tensor_index(pre + t2 + post, nb)) * dim_e + e
            term = c1 * c2
            data[idx] = data.get(idx, ZERO) + (term if sign > 0 else -term)


def replaced_chain_into(total, outer, inner, dim_e):
    """total += outer . inner for End(E)-valued cochains, values indexed
    out * dim_e + in: inner's output feeds outer's input, and the arguments
    are joined outer block first, forms shuffle-wedged."""
    nb = outer.pair.dim_b
    b_radix, inner_radix = nb ** (outer.l + inner.l), nb ** inner.l
    out_index = exterior_index(outer.pair.dim_g, outer.k + inner.k)
    data = total.entries
    by_output = {}
    for g2, t2, f2, c2 in inner.iter_nonzero():
        by_output.setdefault(f2 // dim_e, []).append(
            (g2, tensor_index(t2, nb), f2 % dim_e, c2))
    for g1, t1, f1, c1 in outer.iter_nonzero():
        e_out, mid = divmod(f1, dim_e)
        head = tensor_index(t1, nb) * inner_radix
        for g2, i2, e_in, c2 in by_output.get(mid, ()):
            step = merge_sign(g1, g2)
            if step is not None:
                idx = (((out_index[step[1]] * b_radix + head + i2) * dim_e
                        + e_out) * dim_e + e_in)
                term = c1 * c2
                data[idx] = data.get(idx, ZERO) + (term if step[0] > 0
                                                   else -term)


def replaced_slices(w, dim_in=None):
    """Group w's nonzeros by b-tuple as (form, out, coeff) hits, in flat
    order.  An End-valued w acts on a dim_in-dimensional space: the input
    index of its value ends the key and the output index is the hit's out."""
    slices = {}
    for gt, bt, f, c in w.iter_nonzero():
        if dim_in is not None:
            f, e_in = divmod(f, dim_in)
            bt = bt + (e_in,)
        slices.setdefault(bt, []).append((gt, f, c))
    return slices


def replaced_unfold_end(w):
    """Turn an End(B)-valued (k, l) cochain into a B-valued (k, l+1) one: the
    value at row*dim_b + col moves to value row, with col as the new last
    quotient argument."""
    pair = w.pair
    out = Cochain(pair, pair.quotient_module(), w.k, w.l + 1)
    for gt, bt, f, c in w.iter_nonzero():
        row, col = divmod(f, pair.dim_b)
        out.set(gt, bt + (col,), row, c)
    return out


# -- the differential the flat-position one replaced ---------------------------


def replaced_ce_table(pair, module, l):
    """The nonzeros the differential on l B-slots reads, listed per kernel
    call by input as plain (re, im) parts: (act, quot, brk, the B-slots'
    index weights, dim B).  act[a][e] holds (e_out, re, im) for a acting on
    the value, quot[a][b] (b_old, re, im) for a acting on a B-slot, and
    brk[s] (x, y, re, im), x < y, for [x, y] along s."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    rho_b = pair.quotient_module().action
    act, quot = [], []
    for a in range(n):
        rho, rows = module.action[a].data, rho_b[a].data
        act.append([[(e_out, x.re, x.im) for e_out in range(dim_e)
                     if (x := rho[e_out * dim_e + e])] for e in range(dim_e)])
        quot.append([[(old, x.re, x.im) for old in range(nb)
                      if (x := rows[new * nb + old])] for new in range(nb)]
                     if l else None)
    c = pair.d.c
    brk = [[(x, y, v.re, v.im) for x in range(n) for y in range(x + 1, n)
            if (v := c[x][y][s])] for s in range(n)]
    return act, quot, brk, [nb ** (l - 1 - slot) for slot in range(l)], nb


def replaced_ce_terms(table, gt, bi, e):
    """The terms (J, b-index, e_out, re, im) of d applied to the basis
    cochain that is 1 at (gt, bi, e), each output form built as a tuple: the
    action on the value, minus the action routed through each B-slot, and
    the bracket terms, with J found by bisect.  A key may be yielded more
    than once; callers add."""
    act, quot, brk, weights, nb = table
    k = len(gt)
    m = 0  # entries of gt below a, i.e. the position of a in J
    for a, rows in enumerate(act):
        if m < k and gt[m] == a:
            m += 1
            continue
        J = gt[:m] + (a,) + gt[m:]
        sign = -1 if m % 2 else 1
        for e_out, re, im in rows[e]:
            yield J, bi, e_out, sign * re, sign * im
        for w in weights:
            new = bi // w % nb
            for old, re, im in quot[a][new]:
                yield J, bi + (old - new) * w, e, -sign * re, -sign * im
    # gt = insert(s, rest) with sign (-1)^q; J = rest + {x, y}, x < y.
    for q, s in enumerate(gt):
        rest = gt[:q] + gt[q + 1:]
        for x, y, re, im in brk[s]:
            if x in rest or y in rest:
                continue
            mx = bisect(rest, x)  # entries of rest below x
            my = bisect(rest, y) + 1  # entries of rest below y, plus x
            J = rest[:mx] + (x,) + rest[mx:my - 1] + (y,) + rest[my - 1:]
            if (mx + my + q) % 2:
                re, im = -re, -im
            yield J, bi, e, re, im


def replaced_ce_image(w, table, entries):
    """d of the entries {position: value} of a cochain shaped like w, as its
    nonzeros {output position: value}, summed in a map of [re, im] pairs of
    its own and looked up in exterior_index."""
    g_basis, dim_e = w.g_basis(), w.module.dim
    out_index = exterior_index(w.pair.dim_g, w.k + 1)
    b_radix = w.pair.dim_b ** w.l
    acc = {}
    for pos, v in entries.items():
        vr, vi = v.re, v.im
        rest, e = divmod(pos, dim_e)
        gi, bi = divmod(rest, b_radix)
        for J, bo, e_out, cr, ci in replaced_ce_terms(table, g_basis[gi], bi,
                                                      e):
            out = (out_index[J] * b_radix + bo) * dim_e + e_out
            re, im = (cr * vr - ci * vi, cr * vi + ci * vr) if ci \
                else (cr * vr, cr * vi)
            old = acc.get(out)
            if old is None:
                acc[out] = [re, im]
            else:
                old[0] += re
                old[1] += im
    return {out: GaussScalar(re, im) for out, (re, im) in acc.items()
            if re or im}


def replaced_ce_into(total, w):
    """total += d(w) through replaced_ce_image."""
    if w.k < w.pair.dim_g:
        data = total.entries
        table = replaced_ce_table(w.pair, w.module, w.l)
        for out, x in replaced_ce_image(w, table, w.entries).items():
            data[out] = data[out] + x if out in data else x


def replaced_diff(table, el, algebra=None):
    """graded_diff through replaced_ce_table(pair, effective module, 0): the
    terms are summed in a map of [re, im] pairs keyed by output key."""
    cdim = algebra.dim if algebra is not None else None
    acc = {}
    for key, val in el.terms.items():
        vr, vi = val.re, val.im
        midx = key[1] if cdim is None else key[1] * cdim + key[2]
        for gt, _, e, cr, ci in replaced_ce_terms(table, key[0], 0, midx):
            out = (gt, e) if cdim is None else (gt,) + divmod(e, cdim)
            re, im = (cr * vr - ci * vi, cr * vi + ci * vr) if ci \
                else (cr * vr, cr * vi)
            old = acc.get(out)
            if old is None:
                acc[out] = [re, im]
            else:
                old[0] += re
                old[1] += im
    return GradedElement(el.pair, el.mdim, cdim, {
        out: GaussScalar(re, im) for out, (re, im) in acc.items() if re or im})


def matched_zero_gamma_closed_form(tower, n):
    """Independent oracle for towers over a matched pair with the zero
    extension: iterate the complement action on the subalgebra slot, then act
    on the last argument."""
    pair = tower.pair
    m, nb = pair.dim_g, pair.dim_b
    action = pair.quotient_module().action
    out = Cochain(pair, pair.quotient_module(), 1, n)
    for a in range(m):
        for bt in tensor_tuples(nb, n):
            vec = [ONE if s == a else ZERO for s in range(m)]
            for i in range(n - 1):
                vec = tower.st.delta[bt[i]].apply(vec)
            value = zero_vec(nb)
            for s, c in enumerate(vec):
                if not c.is_zero():
                    col = action[s].col(bt[n - 1])
                    for outb in range(nb):
                        value[outb] = value[outb] + c * col[outb]
            for outb in range(nb):
                if not value[outb].is_zero():
                    out.set((a,), bt, outb, value[outb])
    return out


# -- seeded mutations of the flat-position kernels' tables --------------------


def digit_table_off_by_one(digit_tables):
    """ce._digit_tables with the last entry of every high table moved by
    one: an entry whose high digits are all dim B - 1 lands one b-index
    early."""
    def mutated(nb, l, perm):
        hi, lo = digit_tables(nb, l, perm)
        return hi[:-1] + (hi[-1] - 1,), lo
    return mutated


def merge_table_sign_flip(merge_table):
    """ce._merge_table with the sign of its last wedge flipped, the one of
    the two highest-indexed forms that meet."""
    def mutated(n, k1, k2):
        table = [list(row) for row in merge_table(n, k1, k2)]
        cells = [(i1, i2) for i1, row in enumerate(table)
                 for i2, step in enumerate(row) if step is not None]
        if cells:
            i1, i2 = cells[-1]
            table[i1][i2] = (table[i1][i2][0], -table[i1][i2][1])
        return table
    return mutated


def acting_sign_flip(acting):
    """ce._acting with its sign negated: every move of an operator on the
    value and on the B-slots of a derivation's table comes out negated,
    while the derivation's terms on the form keep their sign."""
    def mutated(on_value, on_slots, weights, sign):
        return acting(on_value, on_slots, weights, -sign)
    return mutated


# -- the tuple-keyed bracket layer the flat-position one replaced -------------


class TupleKeyedElement:
    """GradedElement as it was: terms keyed (g-tuple, value index) or
    (g-tuple, value index, algebra index), summed key by key by add_term."""

    __slots__ = ("pair", "mdim", "cdim", "terms")

    def __init__(self, pair, mdim, cdim=None, terms=None):
        self.pair = pair
        self.mdim = mdim
        self.cdim = cdim
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if not val.is_zero():
                    self.terms[key] = val

    @classmethod
    def of(cls, el):
        """The tuple-keyed copy of an element's decoded terms."""
        return cls(el.pair, el.mdim, el.cdim, dict(el.terms))

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Exterior degree of a homogeneous element (0 for the zero element)."""
        degrees = {len(key[0]) for key in self.terms}
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous")
        return degrees.pop() if degrees else 0

    def add_term(self, key, val):
        acc = self.terms.get(key)
        acc = val if acc is None else acc + val
        if acc.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = acc

    def __add__(self, other):
        out = TupleKeyedElement(self.pair, self.mdim, self.cdim,
                                dict(self.terms))
        for key, val in other.terms.items():
            out.add_term(key, val)
        return out

    def __sub__(self, other):
        out = TupleKeyedElement(self.pair, self.mdim, self.cdim,
                                dict(self.terms))
        for key, val in other.terms.items():
            out.add_term(key, -val)
        return out

    def __neg__(self):
        return self.scale(GaussScalar(-1))

    def scale(self, s):
        if s.is_zero():
            return TupleKeyedElement(self.pair, self.mdim, self.cdim)
        return TupleKeyedElement(self.pair, self.mdim, self.cdim,
                                 {k: s * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return self.terms == other.terms

    def first_term(self):
        if not self.terms:
            return None
        key = min(self.terms, key=lambda k: (len(k[0]),) + tuple(map(str, k)))
        return key, self.terms[key]


def tuple_keyed_diff(tables, el, cdim=None):
    """graded_diff as it was, through tables[k], the term table of the
    effective module (base module (x) algebra) in degree k: each degree's
    terms, at flat positions gi * dim E + value index, are summed as d of a
    cochain is, and decoded back into keys."""
    n = el.pair.dim_g
    by_degree = {}
    for key, val in el.terms.items():
        k = len(key[0])
        midx = key[1] if cdim is None else key[1] * cdim + key[2]
        by_degree.setdefault(k, {})[
            exterior_index(n, k)[key[0]] * tables[k][-1] + midx] = val
    out = TupleKeyedElement(el.pair, el.mdim, cdim)
    for k, entries in by_degree.items():
        basis, dim_e = exterior_basis(n, k + 1), tables[k][-1]
        acc = {}, {}
        _ce_sum(acc, tables[k], entries)
        for pos, c in _flush(acc).items():
            gi, e = divmod(pos, dim_e)
            out.terms[(basis[gi], e) if cdim is None
                      else (basis[gi],) + divmod(e, cdim)] = c
    return out


def tuple_keyed_contract(slices, args, signed, mdim, algebra=None):
    """_contract as it was, on slices keyed by b-tuple (see
    replaced_slices): for each choice of one term per argument, the tuple of
    the terms' value indices is looked up; on a hit the terms' forms are
    wedged left to right with merge_sign, then each hit's form is wedged
    on, and each term is added by add_term."""
    cdim = algebra.dim if algebra is not None else None
    out = TupleKeyedElement(args[0].pair, mdim, cdim)
    terms = [arg.terms for arg in args]
    for keys in product(*terms):
        hits = slices.get(tuple([key[1] for key in keys]))
        if not hits:
            continue
        merged = keys[0][0]
        coeff = terms[0][keys[0]]
        sign = 1
        for i in range(1, len(keys)):
            step = merge_sign(merged, keys[i][0])
            if step is None:
                break
            sign *= step[0]
            merged = step[1]
            coeff = coeff * terms[i][keys[i]]
        else:
            for i in signed:
                if len(keys[i][0]) % 2:
                    sign = -sign
            if cdim is not None:
                found = algebra.basis_products([(key[2],) for key in keys])
                if not found:
                    continue
                cterms = found[0][1]
            for form, v_out, c in hits:
                ins = merge_sign(merged, form)
                if ins is None:
                    continue
                term = coeff * c
                if sign * ins[0] < 0:
                    term = -term
                if cdim is None:
                    out.add_term((ins[1], v_out), term)
                else:
                    for t, cv in cterms.items():
                        out.add_term((ins[1], v_out, t), term * cv)
    return out


def tuple_keyed_wedge(omega, el, sign=1):
    """_wedge as it was: omega merged onto every term with merge_sign."""
    out = TupleKeyedElement(el.pair, el.mdim, el.cdim)
    for key, val in el.terms.items():
        step = merge_sign(omega, key[0])
        if step is not None:
            out.terms[(step[1],) + key[1:]] = \
                val if sign * step[0] > 0 else -val
    return out


def tuple_keyed_decorated(forms, pools, nonzero, dim_g):
    """_decorated's walk as it was: the forms merged with merge_sign, the
    residuals wedged by tuple_keyed_wedge."""
    n = len(pools)
    nexts = {}
    for bs in nonzero:
        for p in range(n):
            nexts.setdefault(bs[:p], set()).add(bs[p])
    nexts = {prefix: sorted(bs) for prefix, bs in nexts.items()}

    def walk(fs, bs, merged, sign):
        if len(bs) == n:
            res = tuple_keyed_wedge(merged, nonzero[bs], sign)
            if not res.is_zero():
                yield fs, bs, res
            return
        following = nexts.get(bs)
        if not following:
            return
        for f, form in enumerate(forms):
            step = merge_sign(merged, form)
            if step is None or len(step[1]) + 2 > dim_g:
                continue
            for b in following:
                yield from walk(fs + (f,), bs + (b,), step[1], sign * step[0])

    return walk((), (), (), 1)


def tuple_keyed_slices(slices, arity, pair, mdim):
    """Slices (see homotopy._slices) as replaced_slices keys them: by the
    tuple of the key's arity digits, base dim B and the last one base mdim,
    with (form tuple, out, coeff) hits."""
    k, by_key = slices
    out = {}
    for key, hits in by_key.items():
        digits = []
        for radix in ([mdim] + [pair.dim_b] * (arity - 1))[:arity]:
            key, digit = divmod(key, radix)
            digits.insert(0, digit)
        out[tuple(digits)] = [(exterior_basis(pair.dim_g, k)[gi], o, c)
                              for gi, o, c in hits]
    return out


# -- the zoo fixtures the kernel tests share -----------------------------------


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


# -- the kernels' accumulator for tests, and the per-call flushing path -------


def scatter_into(total, kernel, *args, **kwargs):
    """total += kernel's image, through the kernel protocol: an accumulator
    seeded from total's entries, kernel(acc, *args, **kwargs) scattered into
    it, flushed back into total."""
    acc = ({pos: v.re for pos, v in total.entries.items()},
           {pos: v.im for pos, v in total.entries.items() if v.im})
    kernel(acc, *args, **kwargs)
    total.entries = _flush(acc)


def flushing_flush(entries, acc):
    """scalars._flush as it was, with its merging mode: entries + acc as one
    map {flat position: value}, one GaussScalar per position, with no
    position whose sum cancels.  entries is updated in place; acc's real map
    is converted in place and, when entries is empty, returned."""
    re_acc, im_acc = acc
    get, get_im = entries.get, im_acc.get
    for pos, re in re_acc.items():
        im, old = get_im(pos, 0), get(pos)
        if old is not None:
            re, im = old.re + re, old.im + im
        re_acc[pos] = GaussScalar(re, im) if re or im else None  # cancelled
    for pos in [pos for pos, x in re_acc.items() if x is None]:
        del re_acc[pos]
        entries.pop(pos, None)
    if not entries:
        return re_acc
    entries.update(re_acc)
    return entries


def per_call(kernel):
    """kernel (see the kernel protocol in ce) as the kernels ran before:
    into a total cochain, each call summing into an accumulator of its own
    and flushing it into total's stored values before it returns."""
    def into(total, *args, **kwargs):
        acc = {}, {}
        kernel(acc, *args, **kwargs)
        total.entries = flushing_flush(total.entries, acc)
    return into


class FlushingPath:
    """The tensor-level residuals and the module coherence tensors as they
    were summed: every kernel call flushed its partial sum into the
    residual's stored values (see per_call), and each term a residual
    shares (d R_n, R_i o_slot R_j, the shuffle coherence tensors) was formed
    on the same path, once per path."""

    def __init__(self, tower):
        self.tower = tower
        self.memo = {}

    def once(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def total(self, k, l, module=None):
        tower = self.tower
        return Cochain(tower.pair, module or tower.pair.quotient_module(), k, l)

    def d(self, n):
        def build():
            total = self.total(2, n)
            per_call(_ce_into)(total, self.tower.r[n])
            return total
        return self.once(("d", n), build)

    def composite(self, i, j, slot):
        def build():
            outer, inner = self.tower.r[i], self.tower.r[j]
            total = self.total(outer.k + inner.k, outer.l + inner.l - 1)
            per_call(_compose_into)(total, outer, inner, slot)
            return total
        return self.once(("o", i, j, slot), build)

    def torsion_antisymmetrization(self):
        tower, total = self.tower, self.total(1, 2)
        per_call(_add_permuted)(total, tower.r[2], (0, 1), (1, 0),
                                signs=(1, -1))
        per_call(_ce_into)(total, -tower.torsion())
        return total

    def ternary_symmetry_defect(self):
        tower, total = self.tower, self.total(1, 3)
        add_permuted = per_call(_add_permuted)
        add_permuted(total, tower.r[3], (0, 1, 2), (1, 0, 2), signs=(1, -1))
        per_call(_compose_into)(total, tower.r[2], -tower.torsion(), 1)
        omega = Cochain(tower.pair, end_module(tower.pair.quotient_module()),
                        0, 2, [x for row in tower.st.omega for om in row
                               for x in om.data])
        add_permuted(total, _unfold_end(ce_diff(omega)), (0, 1, 2))
        return total

    def coherence(self, n):
        def build():
            total = self.total(2, n)
            add_permuted = per_call(_add_permuted)
            add_permuted(total, self.d(n), range(n))
            for i in range(2, n):
                j = n + 1 - i
                for k in range(j, n + 1):
                    tail = tuple(range(k - 1, n))
                    add_permuted(total, self.composite(i, j, k - j + 1), *[
                        sigma + tail for sigma in _shuffles(k - j, j - 1)])
            return total
        return self.once(("coherence", n), build)

    def mixed_differential(self, n):
        tower, total = self.tower, self.total(2, n + 1)
        add_permuted = per_call(_add_permuted)
        add_permuted(total, self.d(n + 1), range(n + 1))
        per_call(_nabla_into)(total, self.d(n), tower.conn_b, tower.conn_b,
                              tower.st)
        add_permuted(total, self.composite(2, n, 2), range(n + 1))
        for j in range(1, n + 1):
            perm = list(range(1, j)) + [0, j] + list(range(j + 1, n + 1))
            add_permuted(total, self.composite(n, 2, j), perm)
        return total

    def module_coherence(self, n):
        tower, s = self.tower, self.tower.s
        total = self.total(2, n - 1, s[n].module)
        per_call(_ce_into)(total, s[n])
        for j in range(2, n):
            for k in range(j, n + 1):
                part = self.total(2, n - 1, s[n].module)
                if k < n:
                    per_call(_compose_into)(part, s[n + 1 - j], tower.r[j],
                                            k - j + 1)
                else:
                    per_call(_chain_into)(part, s[n + 1 - j], s[j],
                                          tower.module.dim)
                tail = tuple(range(k - 1, n - 1))
                per_call(_add_permuted)(total, part, *[
                    sigma + tail for sigma in _shuffles(k - j, j - 1)])
        return total

    def tensor_residuals(self):
        """homotopy.tensor_residuals on this path: (name, residual) pairs in
        report order."""
        depth = self.tower.depth
        out = [("torsion_antisymmetrization",
                self.torsion_antisymmetrization())]
        coherence = {n: self.coherence(n) for n in range(3, depth + 1)}
        if depth >= 3:
            out.append(("ternary_symmetry_defect",
                        self.ternary_symmetry_defect()))
            out.append(("nested_binary_coherence", coherence[3]))
        out += [("mixed_differential_n%d" % n, self.mixed_differential(n))
                for n in range(2, depth)]
        out += [("shuffle_coherence_n%d" % n, w) for n, w in coherence.items()]
        return out
