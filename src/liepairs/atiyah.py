"""The obstruction layer: exact elimination and cohomology, the obstruction
class and its repair, scalar characteristic cochains and the Todd cochain.

One sparse eliminator (see _eliminate) runs rank, solve, rref, the kernel
basis and the cohomology queries, with deterministic pivoting, so every result
is reproducible bit for bit.  The tower, which never decides a class, reads
its connections and cocycle from ce and does not compile this module.

The transcendental prefactor of the scalar classes is never folded into the
coefficients: it is reported as a symbolic string next to an exact tensor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .ce import (
    Cochain,
    Connection,
    _ce_sum,
    _ce_table,
    atiyah_cocycle,
    curvature,
    extend_by_zero,
    is_cocycle,
)
from .lie_core import (
    GModule,
    LiePair,
    NotACocycle,
    Report,
    direct_sum_module,
    dual_module,
    exterior_power_module,
)
from .linalg import Matrix, basis_vec
from .multilinear import exterior_index
from .scalars import ONE, ZERO, GaussScalar, _flush, _sum, as_scalar


def compatibility_report(conn: Connection) -> Report:
    """Mixed-curvature check R(a, x) = 0 on all basis pairs a in g, x in d."""
    report = Report("compatibility")
    for a in range(conn.pair.dim_g):
        for x in range(conn.pair.dim_d):
            r = curvature(conn, a, x)
            if not r.is_zero():
                pos = next(i for i, v in enumerate(r.data) if not v.is_zero())
                report.add("mixed_curvature", (a, x, pos), r.data[pos])
    return report


class AtiyahClassReport:
    """Outcome of the obstruction computation for the canonical extension.

    coboundary_rank is the rank of the degree-0 differential on
    B* (x) End(E), read off the elimination that looked for the primitive.
    """

    __slots__ = ("vanishes", "cocycle", "primitive", "repaired",
                 "coboundary_rank")

    def __init__(self, vanishes, cocycle, primitive, repaired,
                 coboundary_rank):
        self.vanishes = vanishes
        self.cocycle = cocycle
        self.primitive = primitive
        self.repaired = repaired
        self.coboundary_rank = coboundary_rank


def connection_minus_section(conn: Connection, phi: Cochain) -> Connection:
    """nabla' = nabla - phi for a section phi of B* (x) End(E)."""
    module = conn.module
    nabla = list(conn.nabla)
    for b in range(conn.pair.dim_b):
        delta = Matrix.zeros(module.dim, module.dim)
        for row in range(module.dim):
            for col in range(module.dim):
                delta.data[row * module.dim + col] = \
                    phi.get((), (b,), row * module.dim + col)
        nabla[conn.pair.dim_g + b] = nabla[conn.pair.dim_g + b] - delta
    return Connection(conn.pair, module, nabla)


def atiyah_class(pair: LiePair, module: GModule,
                 conn: Connection = None) -> AtiyahClassReport:
    """Obstruction class data: representative cocycle, primitive and repair.

    When a primitive phi exists the repaired connection nabla - phi is
    compatible, which the caller can re-verify with compatibility_report.
    """
    if conn is None:
        conn = extend_by_zero(pair, module)
    cocycle = atiyah_cocycle(conn)
    rank_d0, primitive = _primitive(cocycle)
    repaired = None
    if primitive is not None:
        repaired = connection_minus_section(conn, primitive)
    return AtiyahClassReport(primitive is not None, cocycle, primitive, repaired,
                             rank_d0)


def direct_sum_connection(c1: Connection, c2: Connection) -> Connection:
    """Block-diagonal connection on the direct sum module."""
    if c1.pair is not c2.pair:
        raise ValueError("connections live over different pairs")
    blocks = direct_sum_module(GModule(c1.module.dim, c1.nabla),
                               GModule(c2.module.dim, c2.nabla))
    return Connection(c1.pair, direct_sum_module(c1.module, c2.module),
                      blocks.action)


# -- bigraded scalar coefficients ---------------------------------------------


class BiForm:
    """Element of the bigraded commutative coefficient algebra
    Lambda g* (x) Lambda B*, with the Koszul sign of the graded tensor product.

    Entries built from the obstruction cocycle have equal bidegrees and are
    therefore even, so everything in the characteristic-class calculus commutes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def constant(cls, value):
        value = value if isinstance(value, GaussScalar) else GaussScalar(value)
        if value.is_zero():
            return cls()
        return cls({((), ()): value})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return BiForm(_sum((self.terms, 1), (other.terms, 1)))

    def __sub__(self, other):
        return BiForm(_sum((self.terms, 1), (other.terms, -1)))

    def scale(self, s):
        s = s if isinstance(s, GaussScalar) else GaussScalar(s)
        if s.is_zero():
            return BiForm()
        return BiForm({k: s * v for k, v in self.terms.items()})

    def __mul__(self, other):
        shift = 1 + max((g[-1] for g, _ in (*self.terms, *other.terms) if g),
                        default=-1)
        return _unpacked(_products([(_packed(self, shift),
                                     _packed(other, shift))]), shift)

    def component(self, gdeg, bdeg):
        return BiForm({k: v for k, v in self.terms.items()
                       if len(k[0]) == gdeg and len(k[1]) == bdeg})


# The product kernel.  A packed form is a list of terms
# (mask, parity, re, im): the g-indices are the bits of mask below a shift
# (at least every g-index + 1) and the B-indices the bits above it, parity is
# _parity_mask(mask), and re and im are plain ints or Fractions.  With the
# B-bits above the g-bits, the inversions of two disjoint masks are those of
# the g-tuples, those of the B-tuples and one per pair (b in left, g in
# right): the Koszul factor (-1)^(|b1| |g2|).


def _parity_mask(mask):
    """Bit k set iff an odd number of mask's bits lie below k, so that
    (left & _parity_mask(mask)).bit_count() is the number of inversions
    (i in left, j in mask, i > j) mod 2."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= -(low << 1)
        mask ^= low
    return out


def _products(pairs):
    """The sum of l * r over pairs (l, r) of packed forms as an accumulator
    {mask: [re, im]}: each product of two terms carries its wedge sign, and
    none is taken where their masks meet."""
    acc = {}
    for left, right in pairs:
        for m1, _, r1, i1 in left:
            for m2, p2, r2, i2 in right:
                if m1 & m2:
                    continue
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                if (m1 & p2).bit_count() & 1:
                    re, im = -re, -im
                mask = m1 | m2
                old = acc.get(mask)
                if old is None:
                    acc[mask] = [re, im]
                else:
                    old[0] += re
                    old[1] += im
    return acc


def _finished(acc):
    """The packed form of an accumulator, zeros dropped."""
    return [(mask, _parity_mask(mask), re, im)
            for mask, (re, im) in acc.items() if re or im]


def _indices(mask):
    """The positions of mask's bits, ascending."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _packed(form, shift):
    """The packed form of a BiForm whose g-indices are all below shift."""
    acc = {}
    for (gt, bt), val in form.terms.items():
        mask = sum(1 << a for a in gt) | sum(1 << (shift + b) for b in bt)
        acc[mask] = [val.re, val.im]
    return _finished(acc)


def _unpacked(acc, shift):
    """The BiForm of an accumulator: one GaussScalar per nonzero mask."""
    low = (1 << shift) - 1
    return BiForm({(_indices(mask & low), _indices(mask >> shift)):
                   GaussScalar(re, im)
                   for mask, (re, im) in acc.items() if re or im})


def _mat_mul(a, b):
    dim = len(a)
    return [[_finished(_products((a[i][k], b[k][j]) for k in range(dim)))
             for j in range(dim)] for i in range(dim)]


def _power_traces(alpha, n):
    """[tr alpha, ..., tr alpha^n] for alpha = (packed matrix, shift).

    Powers are formed only up to alpha^h, h = ceil(n / 2); past h, tr alpha^m
    is read as sum_ij (alpha^h)_ij (alpha^(m-h))_ji, so alpha^(n-1) is never
    formed.  Below h the same sum runs against alpha^0, the identity."""
    rows, shift = alpha
    dim = len(rows)
    half = (n + 1) // 2
    one = [(0, 0, 1, 0)]
    powers = [[[one if i == j else [] for j in range(dim)]
               for i in range(dim)], rows]
    while len(powers) <= half:
        powers.append(_mat_mul(powers[-1], rows))
    traces = []
    for m in range(1, n + 1):
        p = min(m, half)
        left, right = powers[p], powers[m - p]
        traces.append(_unpacked(_products(
            (left[i][j], right[j][i]) for i in range(dim) for j in range(dim)),
            shift))
    return traces


def obstruction_biform_matrix(conn: Connection):
    """The obstruction cocycle as a packed End(E)-matrix over the bigraded
    algebra, with its shift: (rows, dim g)."""
    cocycle = atiyah_cocycle(conn)
    dim, shift = conn.module.dim, conn.pair.dim_g
    rows = [[{} for _ in range(dim)] for _ in range(dim)]
    for (a,), (b,), e, val in cocycle.iter_nonzero():
        row, col = divmod(e, dim)
        rows[row][col][1 << a | 1 << (shift + b)] = [val.re, val.im]
    return [[_finished(acc) for acc in row] for row in rows], shift


def _todd_log_coefficients(n):
    """[c_1, ..., c_n] with log(x / (1 - exp(-x))) = sum_m c_m x^m, exact.

    Its derivative 1/x - 1/(e^x - 1) is -sum_m B_m x^(m-1) / m!, so
    c_m = -B_m / (m * m!), with B_m from sum_{j<=m} C(m+1, j) B_j = 0.
    """
    bernoulli = [Fraction(1)]
    coeffs = []
    factorial = 1
    for m in range(1, n + 1):
        bernoulli.append(-sum(comb(m + 1, j) * b
                              for j, b in enumerate(bernoulli)) / (m + 1))
        factorial *= m
        coeffs.append(-bernoulli[m] / (m * factorial))
    return coeffs


def _diagonal_cochain(pair: LiePair, bi_form: BiForm, k: int) -> Cochain:
    """Package the (k, k)-component of a BiForm as a Lambda^k B*-valued cochain."""
    b_dual = dual_module(pair.quotient_module())
    module = exterior_power_module(b_dual, k)
    out = Cochain(pair, module, k, 0)
    b_index = exterior_index(pair.dim_b, k)
    for (gt, bt), val in bi_form.component(k, k).terms.items():
        out.set(gt, (), b_index[bt], val)
    return out


class ScalarClass:
    """tr(alpha^k) as an exact cochain plus the symbolic prefactor."""

    __slots__ = ("k", "cochain", "prefactor")

    def __init__(self, k, cochain, prefactor):
        self.k = k
        self.cochain = cochain
        self.prefactor = prefactor


def scalar_class(pair: LiePair, module: GModule, k: int,
                 conn: Connection = None) -> ScalarClass:
    """Exact trace-power cochain in Lambda^k g* (x) Lambda^k B*.

    The transcendental factor (1/k!) (i/2pi)^k stays symbolic.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if conn is None:
        conn = extend_by_zero(pair, module)
    alpha = obstruction_biform_matrix(conn)
    # alpha's entries have bidegree (1, 1), so tr(alpha^k) is zero past
    # bidegree (depth, depth) and no power is formed there
    depth = min(pair.dim_g, pair.dim_b)
    trace = _power_traces(alpha, k)[-1] if k <= depth else BiForm()
    cochain = _diagonal_cochain(pair, trace, k)
    if not is_cocycle(cochain):
        raise NotACocycle("scalar class cochain is not closed")
    return ScalarClass(k, cochain, "(1/%d!)*(i/(2*pi))^%d" % (k, k))


class ToddClass:
    """Inhomogeneous Todd cochain: one exact component per diagonal bidegree."""

    __slots__ = ("components", "biform")

    def __init__(self, components, biform):
        self.components = components
        self.biform = biform


def todd_biform(conn: Connection) -> BiForm:
    """det(alpha / (1 - exp(-alpha))) as exp(sum_m c_m tr(alpha^m)), exact.

    The entries of alpha have equal bidegrees, so they are even and commute,
    and tr log f(alpha) = sum_m c_m tr(alpha^m) for log f(x) = sum_m c_m x^m.
    Every term past bidegree (depth, depth) vanishes, so both series stop there.
    """
    pair = conn.pair
    depth = min(pair.dim_g, pair.dim_b)
    alpha = obstruction_biform_matrix(conn)
    log_trace = BiForm()
    for coeff, trace in zip(_todd_log_coefficients(depth),
                            _power_traces(alpha, depth)):
        log_trace = log_trace + trace.scale(GaussScalar(coeff))
    result = BiForm.constant(1)
    tpower = BiForm.constant(1)
    factorial = 1
    for m in range(1, depth + 1):
        tpower = tpower * log_trace
        factorial *= m
        result = result + tpower.scale(GaussScalar(Fraction(1, factorial)))
    return result


def todd_class(pair: LiePair, module: GModule,
               conn: Connection = None) -> ToddClass:
    if conn is None:
        conn = extend_by_zero(pair, module)
    biform = todd_biform(conn)
    depth = min(pair.dim_g, pair.dim_b)
    components = {}
    for k in range(depth + 1):
        cochain = _diagonal_cochain(pair, biform, k)
        if not is_cocycle(cochain):
            raise NotACocycle("Todd component %d is not closed" % k)
        components[k] = cochain
    return ToddClass(components, biform)


# -- exact elimination and cohomology -----------------------------------------


def _eliminate(rows, cols):
    """Forward elimination of sparse rows {column: value} over the columns
    0 .. cols - 1 in order.  A column's pivot is the shortest remaining row
    holding it (Markowitz's minimum-degree rule, ties to the first row), so
    fill-in stays small, and the pivot columns are the leftmost independent
    ones.  Returns [(column, pivot row scaled to 1 there)] in column order;
    rows is left as it was."""
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    holders = {}  # column -> the live rows holding it
    for i, row in live.items():
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots = []
    for col in range(cols):
        others = holders.pop(col, None)
        if not others:
            continue
        p = min(others, key=lambda i: (len(live[i]), i))
        others.discard(p)
        pivot = live.pop(p)
        inv = ONE / pivot.pop(col)
        for c in pivot:
            holders[c].discard(p)
            pivot[c] = inv * pivot[c]
        for i in others:
            row = live[i]
            f = row.pop(col)
            for c, v in pivot.items():
                old = row.get(c)
                if old is None:
                    row[c] = -(f * v)
                    holders[c].add(i)
                elif (old := old - f * v).is_zero():
                    del row[c]
                    holders[c].discard(i)
                else:
                    row[c] = old
        pivot[col] = ONE
        pivots.append((col, pivot))
    return pivots


def _back_substitute(pivots, x, rhs=-1):
    """x with each pivot column's entry solved from its pivot row, bottom
    up: the row's entry at column rhs (none by default) minus its other
    entries times x."""
    for col, row in reversed(pivots):
        acc = row.get(rhs, ZERO)
        for c, v in row.items():
            if c != col and c != rhs:
                acc = acc - v * x[c]
        x[col] = acc
    return x


def _kernel(pivots, cols):
    """[(free column, kernel vector)] in column order, each vector 1 at its
    free column and 0 at the others."""
    pivot_cols = {col for col, _ in pivots}
    return [(free, _back_substitute(pivots, basis_vec(cols, free)))
            for free in range(cols) if free not in pivot_cols]


def _sparse_rows(m: Matrix):
    return [{c: x for c, x in enumerate(m.row(r)) if x} for r in range(m.rows)]


def rref(m: Matrix):
    """Reduced row echelon form; returns (rref, pivot column tuple, rank).

    Row r is 1 at the r-th pivot column, and at each free column minus that
    column's kernel vector at the pivot; the rows past the rank are zero."""
    pivots = _eliminate(_sparse_rows(m), m.cols)
    cols = tuple(col for col, _ in pivots)
    out = Matrix.zeros(m.rows, m.cols)
    for r, col in enumerate(cols):
        out.data[r * m.cols + col] = ONE
    for free, v in _kernel(pivots, m.cols):
        for r, col in enumerate(cols):
            out.data[r * m.cols + free] = -v[col]
    return out, cols, len(cols)


def pivot_columns(rows, cols):
    """The leftmost independent columns of sparse rows {column: value} over
    cols columns, in order; their number is the rank."""
    return tuple(col for col, _ in _eliminate(rows, cols))


def rank(m: Matrix) -> int:
    return len(pivot_columns(_sparse_rows(m), m.cols))


def solve_rows(rows, cols):
    """(rank, x) for the sparse rows of [m | rhs], rhs in column cols: rank
    is m's rank and x one exact solution of m.x = rhs, free variables zero,
    or None when there is none."""
    pivots = _eliminate(rows, cols + 1)
    if pivots and pivots[-1][0] == cols:
        return len(pivots) - 1, None
    return len(pivots), _back_substitute(pivots, [ZERO] * cols, cols)


def solve(m: Matrix, rhs):
    """One exact solution of m.x = rhs (free variables zero), or None."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    rows = _sparse_rows(m)
    for row, x in zip(rows, map(as_scalar, rhs)):
        if x:
            row[m.cols] = x
    return solve_rows(rows, m.cols)[1]


def nullspace_basis(m: Matrix):
    """Echelon-normalized kernel basis, ordered by free-column index."""
    return [v for _, v in _kernel(_eliminate(_sparse_rows(m), m.cols), m.cols)]



def _diff_columns(pair: LiePair, module: GModule, k: int, l: int = 0):
    """The degree-k differential w.r.t. the canonical cochain bases as sparse
    columns {row: value}: the image of each basis cochain."""
    table = _ce_table(pair, module, k, l)
    columns = []
    for col in range(Cochain(pair, module, k, l).size):
        acc = {}, {}
        _ce_sum(acc, table, {col: ONE})
        columns.append(_flush(acc))
    return columns


def diff_matrix(pair: LiePair, module: GModule, k: int, l: int = 0) -> Matrix:
    """Matrix of the degree-k differential w.r.t. the canonical cochain
    bases: the dense view of _diff_columns."""
    columns = _diff_columns(pair, module, k, l)
    cols = len(columns)
    mat = Matrix.zeros(Cochain(pair, module, k + 1, l).size, cols)
    for c, image in enumerate(columns):
        for r, v in image.items():
            mat.data[r * cols + c] = v
    return mat


def _transposed(columns, size):
    """Sparse columns {row: value} as size sparse rows {column: value}."""
    rows = [{} for _ in range(size)]
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows[r][c] = v
    return rows


def _primitive(w: Cochain):
    """(rank of d_(k-1), phi) from one elimination of [d_(k-1) | w], phi a
    deterministic primitive with d(phi) = w, or None when w is not exact."""
    columns = _diff_columns(w.pair, w.module, w.k - 1, w.l)
    rank_prev, x = solve_rows(_transposed(columns + [w._nonzeros()], w.size),
                              len(columns))
    return rank_prev, None if x is None \
        else Cochain(w.pair, w.module, w.k - 1, w.l, x)


def coboundary_primitive(w: Cochain):
    """A deterministic phi with d(phi) = w, or None when w is not exact."""
    return None if w.k == 0 else _primitive(w)[1]


def _rank(pair: LiePair, module: GModule, k: int, l: int) -> int:
    return len(pivot_columns(_diff_columns(pair, module, k, l),
                             Cochain(pair, module, k + 1, l).size))


def cohomology_dim(pair: LiePair, module: GModule, k: int, l: int = 0,
                   rank_below: int = None) -> int:
    """dim ker(d_k) - rank(d_(k-1)); 0 above the top degree dim g, where
    there are no cochains.  rank_below, when the caller has it, is
    rank(d_(k-1)), which is then not computed again."""
    if k < 0:
        raise ValueError("degree out of range")
    if k > pair.dim_g:
        return 0
    if k and rank_below is None:
        rank_below = _rank(pair, module, k - 1, l)
    return Cochain(pair, module, k, l).size - _rank(pair, module, k, l) \
        - (rank_below if k else 0)


def cohomology_representatives(pair: LiePair, module: GModule, k: int, l: int = 0):
    """(dimension, representative cochains) with a deterministic choice.

    Representatives are the kernel basis vectors independent of the
    coboundaries and of the vectors before them: the pivot columns past the
    coboundaries of [d_(k-1) | kernel basis].
    """
    size = Cochain(pair, module, k, l).size
    images = _diff_columns(pair, module, k - 1, l) if k else []
    rows = _transposed(_diff_columns(pair, module, k, l),
                       Cochain(pair, module, k + 1, l).size)
    kernel = [v for _, v in _kernel(_eliminate(rows, size), size)]
    columns = images + [{i: x for i, x in enumerate(v) if x} for v in kernel]
    reps = [Cochain(pair, module, k, l, kernel[c - len(images)])
            for c in pivot_columns(_transposed(columns, size), len(columns))
            if c >= len(images)]
    return len(reps), reps
