"""Exact dense matrices and vectors over the Gaussian rationals.

The eliminator behind rank, solve, rref and the kernel basis is in atiyah,
the only layer that eliminates, so the tower commands do not compile it.
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


def vec_is_zero(v):
    return all(a.is_zero() for a in v)


def zero_vec(n):
    return [ZERO] * n


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v
