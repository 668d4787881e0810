"""Lie algebras by structure constants, subalgebra pairs, modules, matched pairs.

Everything is stored in an adapted basis: the first ``dim_g`` basis vectors of
a pair span the distinguished subalgebra, and the remaining vectors span the
chosen complement.  The inclusion/projection maps of the splitting are then
plain coordinate operations.
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    basis_vec,
    rref,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .scalars import GaussScalar, ZERO, as_scalar


class SubalgebraNotClosed(Exception):
    """The declared subalgebra span is not closed under the bracket."""


class NotASubalgebra(Exception):
    """A span handed to adapt_basis is dependent or not bracket-closed."""


class MatchedPairAxiomsFail(Exception):
    """Matched-pair compatibility identities do not hold."""


class NotABialgebra(Exception):
    """A cobracket fails the Lie bialgebra conditions."""


class Report:
    """Exact validation outcome: a list of violations, empty means valid."""

    def __init__(self, name):
        self.name = name
        self.entries = []

    def add(self, check, location, residual):
        self.entries.append({
            "check": check,
            "location": location,
            "residual": str(residual),
        })

    @property
    def ok(self):
        return not self.entries

    def __repr__(self):
        state = "ok" if self.ok else "%d violations" % len(self.entries)
        return "Report(%s: %s)" % (self.name, state)


def _first_nonzero(vec):
    for pos, x in enumerate(vec):
        if not x.is_zero():
            return pos, x
    return None


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its structure-constant tensor.

    ``c[i][j]`` is the coordinate vector of the bracket of basis vectors i, j.
    The anchor of the underlying one-object algebroid is identically zero and
    is not stored.
    """

    __slots__ = ("dim", "c")

    def __init__(self, dim, c):
        if len(c) != dim or any(len(row) != dim for row in c):
            raise ValueError("structure tensor must be dim x dim")
        self.dim = dim
        self.c = [[[as_scalar(x) for x in vec] for vec in row] for row in c]
        for row in self.c:
            for vec in row:
                if len(vec) != dim:
                    raise ValueError("bracket coordinates must have length dim")

    @classmethod
    def zero(cls, dim):
        z = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        return cls(dim, z)

    @classmethod
    def from_brackets(cls, dim, entries):
        """Build from sparse entries {(i, j): vector}; antisymmetry is completed."""
        alg = cls.zero(dim)
        for (i, j), vec in entries.items():
            vec = [as_scalar(x) for x in vec]
            if len(vec) != dim:
                raise ValueError("bracket coordinates must have length dim")
            alg.c[i][j] = vec
            alg.c[j][i] = [-x for x in vec]
        return alg

    def anchor(self, vec):
        """The anchor map into the (zero) tangent space of the point base.

        Identically zero by construction; kept so the one-object-algebroid
        reading of these algebras is explicit.  No computation consumes it.
        """
        return ()

    def bracket(self, u, v):
        """Bracket of coordinate vectors, extended bilinearly."""
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                coeff = a * b
                row = self.c[i][j]
                for k, x in enumerate(row):
                    if not x.is_zero():
                        out[k] = out[k] + coeff * x
        return out

    def ad(self, i):
        """Matrix of ad(x_i) acting on coordinates."""
        cols = [self.c[i][j] for j in range(self.dim)]
        return Matrix.from_rows(
            [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]
        )


def validate_lie_algebra(g: LieAlgebra) -> Report:
    """Exhaustive antisymmetry and Jacobi check with exact residuals.

    Jacobi runs over the nonzero structure constants only: the residual of a
    triple (i, j, k) is sum_s c_ab^s c_sc over its three cyclic orders
    (a, b, c), accumulated into a dense vector so that the first nonzero
    coordinate names the violation.
    """
    report = Report("lie_algebra")
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            res = vec_add(g.c[i][j], g.c[j][i])
            if not vec_is_zero(res):
                where = _first_nonzero(res)
                report.add("antisymmetry", (i, j, where[0]), where[1])
    nonzero = [[[(s, x) for s, x in enumerate(vec) if not x.is_zero()]
                for vec in row] for row in g.c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = [ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for s, x in nonzero[a][b]:
                        for t, y in nonzero[s][c]:
                            res[t] = res[t] + x * y
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("jacobi", (i, j, k, where[0]), where[1])
    return report


class LiePair:
    """A Lie algebra with a distinguished subalgebra in an adapted basis.

    The first ``dim_g`` basis vectors span the subalgebra g; the rest span the
    complement h, whose image in the quotient is the canonical basis of B.
    """

    __slots__ = ("d", "dim_g", "_b_module", "_g_algebra")

    def __init__(self, d: LieAlgebra, dim_g: int):
        if not 0 <= dim_g <= d.dim:
            raise ValueError("dim_g out of range")
        self.d = d
        self.dim_g = dim_g
        self._b_module = None
        self._g_algebra = None

    @property
    def dim_d(self):
        return self.d.dim

    @property
    def dim_b(self):
        return self.d.dim - self.dim_g

    def g_algebra(self) -> LieAlgebra:
        """The subalgebra g with its own structure constants."""
        if self._g_algebra is None:
            m = self.dim_g
            c = [[self.d.c[i][j][:m] for j in range(m)] for i in range(m)]
            self._g_algebra = LieAlgebra(m, c)
        return self._g_algebra

    def quotient_module(self) -> "GModule":
        """The quotient B with the action q([a, l]); flat by the Jacobi identity."""
        if self._b_module is None:
            m, nb = self.dim_g, self.dim_b
            action = []
            for a in range(m):
                rows = [[ZERO] * nb for _ in range(nb)]
                for b in range(nb):
                    h = self.d.c[a][m + b]
                    for out in range(nb):
                        rows[out][b] = h[m + out]
                action.append(Matrix.from_rows(rows) if nb else Matrix(0, 0, []))
            self._b_module = GModule(nb, action)
        return self._b_module


def make_pair(d: LieAlgebra, dim_g: int) -> LiePair:
    """Pair constructor; raises SubalgebraNotClosed with a witness."""
    for i in range(dim_g):
        for j in range(dim_g):
            tail = d.c[i][j][dim_g:]
            if not vec_is_zero(tail):
                raise SubalgebraNotClosed(
                    "bracket of basis vectors (%d, %d) leaves the subalgebra" % (i, j)
                )
    return LiePair(d, dim_g)


def adapt_basis(d: LieAlgebra, span_g):
    """Conjugate d into a basis whose first vectors are span_g.

    Returns (adapted LieAlgebra, transition Matrix T) with new coordinates
    related to old ones by old = T . new.  Raises NotASubalgebra when span_g is
    dependent or not closed under the bracket.
    """
    n = d.dim
    m = len(span_g)
    span = [[as_scalar(x) for x in v] for v in span_g]
    span_matrix = Matrix.from_rows([[v[i] for v in span] for i in range(n)]) \
        if span else Matrix(0, n, [])
    if span and rref(span_matrix)[2] != m:
        raise NotASubalgebra("dependent vectors in the given span")
    # Closure: each pairwise bracket must solve against the span.
    for i in range(m):
        for j in range(m):
            br = d.bracket(span[i], span[j])
            if solve(span_matrix, br) is None:
                raise NotASubalgebra(
                    "bracket of span vectors (%d, %d) leaves the span" % (i, j)
                )
    # Complete to a basis with standard vectors, deterministically.
    cols = [list(v) for v in span]
    for e in range(n):
        if len(cols) == n:
            break
        candidate = cols + [basis_vec(n, e)]
        mat = Matrix.from_rows([[v[i] for v in candidate] for i in range(n)])
        if rref(mat)[2] == len(candidate):
            cols.append(basis_vec(n, e))
    t = Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])
    # New structure constants: c'(i, j) = T^-1 [T e_i, T e_j].
    new_c = []
    for i in range(n):
        row = []
        for j in range(n):
            br = d.bracket(cols[i], cols[j])
            coords = solve(t, br)
            row.append(coords)
        new_c.append(row)
    return LieAlgebra(n, new_c), t


class GModule:
    """Finite-dimensional module over the subalgebra, given by action matrices."""

    __slots__ = ("dim", "action")

    def __init__(self, dim, action):
        self.dim = dim
        self.action = list(action)
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrices must be dim x dim")

    @property
    def dim_g(self):
        return len(self.action)


def check_module(g: LieAlgebra, module: GModule) -> Report:
    """Flatness check: commutators of action matrices realize the bracket."""
    report = Report("module_flatness")
    if module.dim_g != g.dim:
        report.add("arity", (), "expected %d matrices, got %d" % (g.dim, module.dim_g))
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


def trivial_module(dim_g: int, dim: int = 1) -> GModule:
    return GModule(dim, [Matrix.zeros(dim, dim) for _ in range(dim_g)])


def dual_module(m: GModule) -> GModule:
    """Dual action: rho*(a) = -rho(a)^T."""
    return GModule(m.dim, [-mat.transpose() for mat in m.action])


def tensor_module(*mods) -> GModule:
    """Tensor product with the Leibniz action; basis index is big-endian."""
    if not mods:
        raise ValueError("need at least one factor")
    out = mods[0]
    for nxt in mods[1:]:
        dim = out.dim * nxt.dim
        action = []
        for a in range(out.dim_g):
            mat = Matrix.zeros(dim, dim)
            left, right = out.action[a], nxt.action[a]
            for i in range(out.dim):
                for j in range(nxt.dim):
                    row = i * nxt.dim + j
                    for k in range(out.dim):
                        x = left[i, k]
                        if not x.is_zero():
                            mat.data[row * dim + (k * nxt.dim + j)] = \
                                mat.data[row * dim + (k * nxt.dim + j)] + x
                    for k in range(nxt.dim):
                        x = right[j, k]
                        if not x.is_zero():
                            mat.data[row * dim + (i * nxt.dim + k)] = \
                                mat.data[row * dim + (i * nxt.dim + k)] + x
            action.append(mat)
        out = GModule(dim, action)
    return out


def end_module(m: GModule) -> GModule:
    """End(E) with the action phi -> rho phi - phi rho; unit E_(r,s) at r*dim + s."""
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


def exterior_power_module(m: GModule, k: int) -> GModule:
    """Lambda^k of a module with the Leibniz action on wedges."""
    from .multilinear import exterior_basis, exterior_index, sort_with_sign

    basis = exterior_basis(m.dim, k)
    index = exterior_index(m.dim, k)
    dim = len(basis)
    action = []
    for a in range(m.dim_g):
        rho = m.action[a]
        mat = Matrix.zeros(dim, dim)
        for col, idx in enumerate(basis):
            for pos, i in enumerate(idx):
                for j in range(m.dim):
                    x = rho[j, i]
                    if x.is_zero():
                        continue
                    replaced = idx[:pos] + (j,) + idx[pos + 1 :]
                    sorted_ = sort_with_sign(replaced)
                    if sorted_ is None:
                        continue
                    sign, key = sorted_
                    row = index[key]
                    term = x if sign > 0 else -x
                    mat.data[row * dim + col] = mat.data[row * dim + col] + term
        action.append(mat)
    return GModule(dim, action)


def direct_sum_module(m1: GModule, m2: GModule) -> GModule:
    if m1.dim_g != m2.dim_g:
        raise ValueError("mismatched number of action matrices")
    dim = m1.dim + m2.dim
    action = []
    for a in range(m1.dim_g):
        mat = Matrix.zeros(dim, dim)
        for i in range(m1.dim):
            for j in range(m1.dim):
                mat.data[i * dim + j] = m1.action[a][i, j]
        for i in range(m2.dim):
            for j in range(m2.dim):
                mat.data[(m1.dim + i) * dim + (m1.dim + j)] = m2.action[a][i, j]
        action.append(mat)
    return GModule(dim, action)


class GAlgebra:
    """Commutative associative algebra with the subalgebra acting by derivations."""

    __slots__ = ("module", "mult")

    def __init__(self, module: GModule, mult):
        self.module = module
        self.mult = [[[as_scalar(x) for x in vec] for vec in row] for row in mult]
        d = module.dim
        if len(self.mult) != d or any(len(r) != d for r in self.mult):
            raise ValueError("mult tensor must be dim x dim")

    @property
    def dim(self):
        return self.module.dim

    def product(self, u, v):
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                coeff = a * b
                for k, x in enumerate(self.mult[i][j]):
                    if not x.is_zero():
                        out[k] = out[k] + coeff * x
        return out

    def product_basis(self, i, j):
        return self.mult[i][j]


def check_g_algebra(g: LieAlgebra, algebra: GAlgebra) -> Report:
    """Commutativity, associativity, derivation property; exact residuals."""
    report = Report("g_algebra")
    flat = check_module(g, algebra.module)
    for entry in flat.entries:
        report.entries.append(entry)
    d = algebra.dim
    for i in range(d):
        for j in range(i + 1, d):
            res = vec_sub(algebra.mult[i][j], algebra.mult[j][i])
            if not vec_is_zero(res):
                where = _first_nonzero(res)
                report.add("commutativity", (i, j, where[0]), where[1])
    for i in range(d):
        for j in range(d):
            for k in range(d):
                res = vec_sub(
                    algebra.product(algebra.mult[i][j], basis_vec(d, k)),
                    algebra.product(basis_vec(d, i), algebra.mult[j][k]),
                )
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("associativity", (i, j, k, where[0]), where[1])
    for a in range(g.dim):
        rho = algebra.module.action[a]
        for i in range(d):
            for j in range(d):
                lhs = rho.apply(algebra.mult[i][j])
                rhs = vec_add(
                    algebra.product(rho.apply(basis_vec(d, i)), basis_vec(d, j)),
                    algebra.product(basis_vec(d, i), rho.apply(basis_vec(d, j))),
                )
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("derivation", (a, i, j, where[0]), where[1])
    return report


class MatchedPairData:
    """Two Lie algebras acting on each other: nabla = A on B, delta = B on A."""

    __slots__ = ("a", "b", "nabla", "delta")

    def __init__(self, a: LieAlgebra, b: LieAlgebra, nabla, delta):
        self.a = a
        self.b = b
        self.nabla = list(nabla)
        self.delta = list(delta)
        if len(self.nabla) != a.dim or len(self.delta) != b.dim:
            raise ValueError("action count mismatch")


def check_matched_pair(m: MatchedPairData) -> Report:
    """Validates both algebras, both actions, and the mixed compatibility laws."""
    report = Report("matched_pair")
    for label, alg in (("a", m.a), ("b", m.b)):
        sub = validate_lie_algebra(alg)
        for entry in sub.entries:
            report.add(label + "_" + entry["check"], entry["location"], entry["residual"])
    nab = check_module(m.a, GModule(m.b.dim, m.nabla))
    for entry in nab.entries:
        report.add("nabla_flatness", entry["location"], entry["residual"])
    delt = check_module(m.b, GModule(m.a.dim, m.delta))
    for entry in delt.entries:
        report.add("delta_flatness", entry["location"], entry["residual"])

    na, nb = m.a.dim, m.b.dim
    # nabla_X [Y1,Y2] = [nabla_X Y1, Y2] + [Y1, nabla_X Y2]
    #                   + nabla_{delta_{Y2} X} Y1 - nabla_{delta_{Y1} X} Y2
    for x in range(na):
        for y1 in range(nb):
            for y2 in range(nb):
                lhs = m.nabla[x].apply(m.b.c[y1][y2])
                t1 = m.b.bracket(m.nabla[x].col(y1), basis_vec(nb, y2))
                t2 = m.b.bracket(basis_vec(nb, y1), m.nabla[x].col(y2))
                t3 = _act_combo(m.nabla, m.delta[y2].col(x), basis_vec(nb, y1))
                t4 = _act_combo(m.nabla, m.delta[y1].col(x), basis_vec(nb, y2))
                res = vec_sub(lhs, vec_add(vec_add(t1, t2), vec_sub(t3, t4)))
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("mixed_nabla", (x, y1, y2, where[0]), where[1])
    # delta_Y [X1,X2] = [delta_Y X1, X2] + [X1, delta_Y X2]
    #                   + delta_{nabla_{X2} Y} X1 - delta_{nabla_{X1} Y} X2
    for y in range(nb):
        for x1 in range(na):
            for x2 in range(na):
                lhs = m.delta[y].apply(m.a.c[x1][x2])
                t1 = m.a.bracket(m.delta[y].col(x1), basis_vec(na, x2))
                t2 = m.a.bracket(basis_vec(na, x1), m.delta[y].col(x2))
                t3 = _act_combo(m.delta, m.nabla[x2].col(y), basis_vec(na, x1))
                t4 = _act_combo(m.delta, m.nabla[x1].col(y), basis_vec(na, x2))
                res = vec_sub(lhs, vec_add(vec_add(t1, t2), vec_sub(t3, t4)))
                if not vec_is_zero(res):
                    where = _first_nonzero(res)
                    report.add("mixed_delta", (y, x1, x2, where[0]), where[1])
    return report


def _act_combo(matrices, coeffs, vec):
    """Apply a coefficient combination of action matrices to vec."""
    out = zero_vec(matrices[0].rows if matrices else 0)
    for s, c in enumerate(coeffs):
        if not c.is_zero():
            out = vec_add(out, vec_scale(c, matrices[s].apply(vec)))
    return out


def matched_sum(m: MatchedPairData) -> LiePair:
    """The Lie algebra on A + B defined by a matched pair, as a pair with g = A."""
    report = check_matched_pair(m)
    if not report.ok:
        raise MatchedPairAxiomsFail(report.entries[0])
    na, nb = m.a.dim, m.b.dim
    n = na + nb
    c = [[zero_vec(n) for _ in range(n)] for _ in range(n)]

    def emb_a(vec):
        return list(vec) + zero_vec(nb)

    def emb_b(vec):
        return zero_vec(na) + list(vec)

    for i in range(na):
        for j in range(na):
            c[i][j] = emb_a(m.a.c[i][j])
    for i in range(nb):
        for j in range(nb):
            c[na + i][na + j] = emb_b(m.b.c[i][j])
    for i in range(na):
        for j in range(nb):
            # [X + 0, 0 + Y] = -delta_Y X + nabla_X Y
            vec = emb_a(vec_scale(GaussScalar(-1), m.delta[j].col(i)))
            vec = vec_add(vec, emb_b(m.nabla[i].col(j)))
            c[i][na + j] = vec
            c[na + j][i] = vec_scale(GaussScalar(-1), vec)
    d = LieAlgebra(n, c)
    jac = validate_lie_algebra(d)
    if not jac.ok:
        raise MatchedPairAxiomsFail(jac.entries[0])
    return LiePair(d, na)


def pair_to_matched(pair: LiePair) -> MatchedPairData:
    """Split a pair whose complement is itself a subalgebra into matched data."""
    na, nb = pair.dim_g, pair.dim_b
    d = pair.d
    for i in range(nb):
        for j in range(nb):
            head = d.c[na + i][na + j][:na]
            if not vec_is_zero(head):
                raise SubalgebraNotClosed(
                    "complement bracket (%d, %d) has a subalgebra component" % (i, j)
                )
    a_alg = pair.g_algebra()
    b_c = [[d.c[na + i][na + j][na:] for j in range(nb)] for i in range(nb)]
    b_alg = LieAlgebra(nb, b_c)
    nabla = []
    for x in range(na):
        cols = [d.c[x][na + y][na:] for y in range(nb)]
        nabla.append(Matrix.from_rows(
            [[cols[y][k] for y in range(nb)] for k in range(nb)])
            if nb else Matrix(0, 0, []))
    delta = []
    for y in range(nb):
        cols = [d.c[na + y][x][:na] for x in range(na)]
        delta.append(Matrix.from_rows(
            [[cols[x][k] for x in range(na)] for k in range(na)])
            if na else Matrix(0, 0, []))
    return MatchedPairData(a_alg, b_alg, nabla, delta)


def bialgebra_pair(g: LieAlgebra, cobracket) -> MatchedPairData:
    """Matched pair (g, g*) from a cobracket delta: g -> Lambda^2 g.

    ``cobracket[i]`` is an antisymmetric dim x dim Matrix M with
    delta(x_i) = sum_{j<k} M[j,k] x_j ^ x_k.  The dual bracket must satisfy
    Jacobi and the two actions (both coadjoint) must satisfy the matched-pair
    laws; otherwise NotABialgebra is raised.
    """
    n = g.dim
    if len(cobracket) != n:
        raise ValueError("need one cobracket matrix per basis vector")
    for m in cobracket:
        if m.rows != n or m.cols != n:
            raise NotABialgebra("cobracket matrices must be dim x dim")
        if not (m + m.transpose()).is_zero():
            raise NotABialgebra("cobracket matrices must be antisymmetric")
    # Dual bracket: [x*_j, x*_k] = sum_i cobracket[i][j,k] x*_i.
    dual_c = [[[cobracket[i][j, k] for i in range(n)] for k in range(n)]
              for j in range(n)]
    g_star = LieAlgebra(n, dual_c)
    star_report = validate_lie_algebra(g_star)
    if not star_report.ok:
        raise NotABialgebra(star_report.entries[0])
    # nabla_X = coadjoint action of g on g*; delta_alpha = coadjoint of g* on g.
    nabla = [-g.ad(i).transpose() for i in range(n)]
    delta = [-g_star.ad(i).transpose() for i in range(n)]
    data = MatchedPairData(g, g_star, nabla, delta)
    report = check_matched_pair(data)
    if not report.ok:
        raise NotABialgebra(report.entries[0])
    return data
