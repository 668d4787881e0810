"""Lie algebras by structure constants, subalgebra pairs, modules, coefficient
algebras and their validators.

Everything is stored in an adapted basis: the first ``dim_g`` basis vectors of
a pair span the distinguished subalgebra, and the remaining vectors span the
chosen complement.  The inclusion/projection maps of the splitting are then
plain coordinate operations.  Basis changes and matched pairs are in zoo.
"""

from __future__ import annotations

from .linalg import Matrix, vec_is_zero, zero_vec
from .scalars import ONE, ZERO, GaussScalar, _flush, _scatter, as_scalar


class NotACocycle(Exception):
    """Internal invariant broke: an output guaranteed closed failed the check."""


class SubalgebraNotClosed(Exception):
    """The declared subalgebra span is not closed under the bracket."""


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


def _nonzeros(vec):
    """[(position, re, im)] for the nonzero entries of a list of scalars: the
    terms _scatter sums."""
    return [(p, x.re, x.im) for p, x in enumerate(vec) if x.re or x.im]


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its structure-constant tensor.

    ``c[i][j]`` is the coordinate vector of the bracket of basis vectors i, j.
    """

    __slots__ = ("dim", "c")

    def __init__(self, dim, c):
        if len(c) != dim or any(len(row) != dim for row in c):
            raise ValueError("structure tensor must be dim x dim")
        self.dim = dim
        self.c = [[[x if x.__class__ is GaussScalar else as_scalar(x)
                    for x in vec] for vec in row] for row in c]
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
                for k, x in enumerate(self.c[i][j]):
                    if not x.is_zero():
                        out[k] = out[k] + coeff * x
        return out

    def ad(self, i, lo=0, hi=None):
        """Matrix of ad(x_i) on coordinates, restricted to the square block of
        basis vectors lo..hi-1 (the whole algebra by default): entry (k, j) is
        the x_(lo+k) coordinate of [x_i, x_(lo+j)]."""
        hi = self.dim if hi is None else hi
        row = self.c[i]
        return Matrix.from_rows([[row[j][k] for j in range(lo, hi)]
                                 for k in range(lo, hi)])


def validate_lie_algebra(g: LieAlgebra) -> Report:
    """Exhaustive antisymmetry and Jacobi check with exact residuals.

    Both run over the nonzero structure constants only, summed as plain
    parts (scalars._scatter): the antisymmetry residual of a pair i <= j is
    c_ij + c_ji, the Jacobi residual of a triple i < j < k is sum_s c_ab^s
    c_sc over its three cyclic orders (a, b, c).  _flush builds no value
    for a residual that cancels, and the least coordinate of one that does
    not names the violation.
    """
    report = Report("lie_algebra")
    n = g.dim
    nonzero = [[_nonzeros(vec) for vec in row] for row in g.c]
    for i in range(n):
        for j in range(i, n):
            if nonzero[i][j] or nonzero[j][i]:
                acc = ({}, {})
                _scatter(acc, nonzero[i][j], 1, 0)
                _scatter(acc, nonzero[j][i], 1, 0)
                res = _flush(acc)
                if res:
                    t = min(res)
                    report.add("antisymmetry", (i, j, t), res[t])
    for i in range(n):
        for j in range(i + 1, n):
            ij = nonzero[i][j]
            for k in range(j + 1, n):
                jk, ki = nonzero[j][k], nonzero[k][i]
                if not (ij or jk or ki):
                    continue
                acc = ({}, {})
                for ab, c in ((ij, k), (jk, i), (ki, j)):
                    for s, xr, xi in ab:
                        _scatter(acc, nonzero[s][c], xr, xi)
                res = _flush(acc)
                if res:
                    t = min(res)
                    report.add("jacobi", (i, j, k, t), res[t])
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
            m = self.dim_g
            self._b_module = GModule(self.dim_b, [self.d.ad(a, m, self.d.dim)
                                                  for a in range(m)])
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


def _rows(mat: Matrix):
    """The nonzero entries (column, re, im) of each row of mat."""
    d = mat.cols
    return [_nonzeros(mat.data[r * d:(r + 1) * d]) for r in range(mat.rows)]


def _flatness_residual(rows, bracket, i, j):
    """[rho_i, rho_j] - sum_k c^k rho_k as {row * dim + col: value}, for
    rows[a] = _rows(rho_a) (a = i, j and each k with c^k != 0) and c the
    coordinates bracket of [x_i, x_j], each row summed as plain parts: the
    one residual behind flatness, curvature, the obstruction cocycle and
    compatibility, which are its blocks."""
    d = len(rows[i])
    bracket = _nonzeros(bracket)
    out = {}
    for r in range(d):
        acc = ({}, {})
        for m, xr, xi in rows[i][r]:
            _scatter(acc, rows[j][m], xr, xi)
        for m, xr, xi in rows[j][r]:
            _scatter(acc, rows[i][m], -xr, -xi)
        for k, xr, xi in bracket:
            _scatter(acc, rows[k][r], -xr, -xi)
        for col, x in _flush(acc).items():
            out[r * d + col] = x
    return out


def check_module(g: LieAlgebra, module: GModule) -> Report:
    """Flatness check: commutators of action matrices realize the bracket.

    The least position of a residual (_flatness_residual) that does not
    cancel names the violation.
    """
    report = Report("module_flatness")
    if module.dim_g != g.dim:
        report.add("arity", (), "expected %d matrices, got %d" % (g.dim, module.dim_g))
        return report
    rows = [_rows(mat) for mat in module.action]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            res = _flatness_residual(rows, g.c[i][j], i, j)
            if res:
                pos = min(res)
                report.add("flatness", (i, j, pos), res[pos])
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
    """End(E) = E (x) E* with the action phi -> rho phi - phi rho; unit E_(r,s)
    at r*dim + s."""
    return tensor_module(m, dual_module(m))


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
    """Commutative associative algebra with the subalgebra acting by derivations.

    mult maps (i, j) to the nonzero terms [(k, coeff), ...] of e_i e_j; a zero
    product of basis vectors has no key.
    """

    __slots__ = ("module", "mult")

    def __init__(self, module: GModule, mult):
        self.module = module
        self.mult = mult

    @property
    def dim(self):
        return self.module.dim

    def basis_products(self, factors):
        """[(cs, terms)]: for each choice cs of one basis index from each of
        factors, in product order, the nonzero terms {k: coeff} of
        e_c1 ... e_cn, multiplied left to right; a zero partial product is
        not extended."""
        level = [((c,), {c: ONE}) for c in factors[0]]
        for choices in factors[1:]:
            level = [(cs + (c,), prod) for cs, terms in level for c in choices
                     if (prod := _times(self.mult, terms.items(), [(c, ONE)]))]
        return level


def _times(mult, u, v, acc=None):
    """The nonzero entries of acc, a map index -> coeff (empty by default),
    plus u v, for lists u and v of (basis index, coeff) terms multiplied
    through a map of nonzero basis products (see GAlgebra)."""
    acc = {} if acc is None else dict(acc)
    for s, x in u:
        for t, y in v:
            for k, z in mult.get((s, t), ()):
                acc[k] = acc.get(k, ZERO) + x * y * z
    return {k: x for k, x in acc.items() if not x.is_zero()}


def check_g_algebra(g: LieAlgebra, algebra: GAlgebra) -> Report:
    """Commutativity, associativity, derivation property; exact residuals.

    Each identity on basis vectors is formed only where a nonzero product or
    a nonzero column of an action matrix reaches it, and is summed over
    those nonzeros; the lowest index of a nonzero residual names the
    violation.
    """
    report = Report("g_algebra")
    report.entries.extend(check_module(g, algebra.module).entries)
    d = algebra.dim
    mult = algebra.mult

    def add(check, where, residual):
        if residual:
            k = min(residual)
            report.add(check, where + (k,), residual[k])

    for i, j in sorted({(min(key), max(key)) for key in mult
                        if key[0] != key[1]}):
        # e_i e_j - e_j e_i
        add("commutativity", (i, j), _times(
            mult, [(j, -ONE)], [(i, ONE)], dict(mult.get((i, j), ()))))
    rows = {}  # rows[s]: the k with e_s e_k != 0
    for s, k in sorted(mult):
        rows.setdefault(s, []).append(k)
    # (e_i e_j) e_k - e_i (e_j e_k) vanishes unless e_i has a nonzero product
    # and e_i e_j or e_j e_k is nonzero
    for i in sorted(rows):
        for j in sorted(set(rows).union(rows[i])):
            ij = mult.get((i, j), ())
            for k in sorted(set(rows.get(j, ())).union(
                    *(rows.get(s, ()) for s, _ in ij))):
                res = _times(mult, ij, [(k, ONE)])
                add("associativity", (i, j, k), _times(
                    mult, [(i, -ONE)], mult.get((j, k), ()), res))
    for a in range(g.dim):
        rho = algebra.module.action[a]
        # rcol[i]: the nonzero entries (s, rho[s, i]) of column i
        rcol = [[(s, rho[s, i]) for s in range(d) if not rho[s, i].is_zero()]
                for i in range(d)]
        if not any(rcol):
            continue
        for i in range(d):
            for j in range(d):
                if not ((i, j) in mult or rcol[i] or rcol[j]):
                    continue
                # rho(e_i e_j) - rho(e_i) e_j - e_i rho(e_j)
                res = {}
                for k, x in mult.get((i, j), ()):
                    for r, y in rcol[k]:
                        res[r] = res.get(r, ZERO) + y * x
                res = _times(mult, rcol[i], [(j, -ONE)], res)
                add("derivation", (a, i, j),
                    _times(mult, [(i, -ONE)], rcol[j], res))
    return report
