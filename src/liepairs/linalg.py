"""Exact linear algebra over the Gaussian rationals.

rank, solve, rref and the kernel basis all run one sparse eliminator (see
_eliminate) and its back substitution.  Pivoting is deterministic, so every
result is reproducible bit for bit.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, as_scalar


class Matrix:
    """Dense row-major matrix of GaussScalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(data), rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = [as_scalar(x) for x in data]

    @classmethod
    def _trusted(cls, rows, cols, data):
        """A matrix over a fresh list of GaussScalars, taken as it is: the
        constructor for the arithmetic below, whose entries need no coercion."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i * n + i] = ONE
        return m

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r * self.cols + c]

    def row(self, r):
        return self.data[r * self.cols : (r + 1) * self.cols]

    def col(self, c):
        return [self.data[r * self.cols + c] for r in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)

    def is_zero(self):
        return all(x.is_zero() for x in self.data)

    def __add__(self, other):
        _shape_check(self, other)
        return Matrix._trusted(self.rows, self.cols,
                               [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        _shape_check(self, other)
        return Matrix._trusted(self.rows, self.cols,
                               [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix._trusted(self.rows, self.cols, [-a for a in self.data])

    def scale(self, s):
        s = as_scalar(s)
        return Matrix._trusted(self.rows, self.cols, [s * a for a in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch for product")
        out = Matrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.data[base + k]
                if a.is_zero():
                    continue
                obase = k * other.cols
                tbase = i * other.cols
                for j in range(other.cols):
                    b = other.data[obase + j]
                    if not b.is_zero():
                        out.data[tbase + j] = out.data[tbase + j] + a * b
        return out

    def apply(self, vec):
        """Matrix-vector product on a plain list of scalars."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for i in range(self.rows):
            acc = ZERO
            base = i * self.cols
            for j, v in enumerate(vec):
                if not v.is_zero():
                    a = self.data[base + j]
                    if not a.is_zero():
                        acc = acc + a * v
            out[i] = acc
        return out

    def transpose(self):
        out = Matrix.zeros(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.data[i * self.cols + i]
        return acc

    def commutator(self, other):
        return self @ other - other @ self


def _shape_check(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


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


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_is_zero(v):
    return all(a.is_zero() for a in v)


def zero_vec(n):
    return [ZERO] * n


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v
