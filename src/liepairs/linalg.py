"""Dense exact linear algebra over the Gaussian rationals.

Pivoting is deterministic (leftmost column, topmost row) so every result is
reproducible bit for bit.
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

    def augment(self, vec):
        rows = [self.row(r) + [vec[r]] for r in range(self.rows)]
        return Matrix.from_rows(rows) if rows else Matrix(0, self.cols + 1, [])


def _shape_check(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


def rref(m: Matrix):
    """Reduced row echelon form; returns (rref, pivot column tuple, rank).

    Only the pivot row's nonzero columns are scaled and eliminated; every other
    cell stays as it is, which is exact because x - f * 0 = x."""
    work = [list(m.row(r)) for r in range(m.rows)]
    pivots = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for r in range(lead, m.rows):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        row = work[lead]
        # Left of col the pivot row is already zero.
        support = [c for c in range(col, m.cols) if not row[c].is_zero()]
        inv = ONE / row[col]
        for c in support:
            row[c] = inv * row[c]
        for r, other in enumerate(work):
            f = other[col]
            if r != lead and not f.is_zero():
                for c in support:
                    other[c] = other[c] - f * row[c]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    flat = [x for row in work for x in row]
    return Matrix._trusted(m.rows, m.cols, flat), tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def solve(m: Matrix, rhs):
    """One exact solution of m.x = rhs (free variables zero), or None."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    red, pivots, _ = rref(m.augment([as_scalar(x) for x in rhs]))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, col in enumerate(pivots):
        x[col] = red[r, m.cols]
    return x


def nullspace_basis(m: Matrix):
    """Echelon-normalized kernel basis, ordered by free-column index."""
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for r, col in enumerate(pivots):
            v[col] = -red[r, free]
        basis.append(v)
    return basis


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_is_zero(v):
    return all(a.is_zero() for a in v)


def zero_vec(n):
    return [ZERO] * n


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v
