"""Exact dense matrices and vectors over the Gaussian rationals: the
container for module actions, connections and elimination input.  Products
are formed on nonzeros by lie_core's flatness kernel, and the eliminator
behind rank, solve, rref and the kernel basis is in atiyah, the only layer
that eliminates, so the tower commands do not compile it.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, GaussScalar, as_scalar


class Matrix:
    """Dense row-major matrix of GaussScalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(data), rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = [x if x.__class__ is GaussScalar else as_scalar(x)
                     for x in data]

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

    def transpose(self):
        out = Matrix.zeros(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out


def _shape_check(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


def vec_is_zero(v):
    return all(a.is_zero() for a in v)


def zero_vec(n):
    return [ZERO] * n


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v
