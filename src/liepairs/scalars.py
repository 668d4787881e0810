"""Exact scalars: the Gaussian rationals Q(i).

Every quantity in this library is a GaussScalar, so no rounding can occur
anywhere.  Each part is stored as a plain ``int`` whenever it is integral and
as a ``Fraction`` (lowest terms, denominator > 1) only otherwise.  Almost all
scalars the library builds are real integers, and ``int`` arithmetic costs a
small fraction of ``Fraction`` arithmetic.  Equality and hashing cannot tell
the two storages apart, because ``3 == Fraction(3)`` and
``hash(3) == hash(Fraction(3))``.  Division stays exact through ``Fraction``.
Scalars serialize as strings like "2", "-1/3" or "1/2+3/4*i".
"""

from __future__ import annotations

import re
from fractions import Fraction


def _part(x):
    """Canonical storage of one rational part: an int when integral."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussScalar:
    """An exact complex rational a + b*i (a, b arbitrary-precision rationals)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _part(re))
        _set_im(self, _part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussScalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which the guard allows.
        return (GaussScalar, (self.re, self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussScalar:
            other = as_scalar(other)
        return _scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussScalar:
            other = as_scalar(other)
        return _scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussScalar:
            other = as_scalar(other)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        if not ai and not bi:
            return _scalar(ar * br, 0)
        return _scalar(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __truediv__(self, other):
        other = as_scalar(other)
        n = Fraction(other.re * other.re + other.im * other.im)
        if n == 0:
            raise ZeroDivisionError("division by zero GaussScalar")
        return _scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def conjugate(self):
        return _scalar(self.re, -self.im)

    # -- predicates and hashing ---------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        if other.__class__ is not GaussScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return not self.im and self.re == other
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussScalar(%r)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_new = object.__new__
_set_re = GaussScalar.re.__set__
_set_im = GaussScalar.im.__set__


def _scalar(re, im) -> GaussScalar:
    """Build a result from int or Fraction parts, storing integral parts as int.

    Sets the slots directly: no Fraction round trip, no coercion."""
    if re.__class__ is not int and re.denominator == 1:
        re = re.numerator
    if im.__class__ is not int and im.denominator == 1:
        im = im.numerator
    s = _new(GaussScalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


# The accumulator: sums of products kept as plain (re, im) parts in a pair of
# maps {position: part}, so that no GaussScalar is built per term.  Whoever
# owns an output scatters every term of it into one accumulator and flushes
# it once: the tower kernels into their caller's, the validators into a
# residual's.


def _scatter(acc, terms, vr, vi):
    """acc += (xr + i xi)(vr + i vi) at p for each (p, xr, xi) of terms: acc
    is a caller's own pair of maps {position: real, imaginary part}."""
    re_acc, im_acc = acc
    get_re, get_im = re_acc.get, im_acc.get
    for p, xr, xi in terms:
        re, im = (xr * vr - xi * vi, xr * vi + xi * vr) if xi \
            else (xr * vr, xr * vi)
        re_acc[p] = get_re(p, 0) + re
        if im:
            im_acc[p] = get_im(p, 0) + im


def _flush(acc):
    """acc (see _scatter) as one map {flat position: value}, one GaussScalar
    per position, with no position whose sum cancels.  acc's real map is
    converted in place and returned, so no second map is held beside it."""
    re_acc, im_acc = acc
    get_im = im_acc.get
    for pos, re in re_acc.items():
        im = get_im(pos, 0)
        re_acc[pos] = _scalar(re, im) if re or im else None  # cancelled
    for pos in [pos for pos, x in re_acc.items() if x is None]:
        del re_acc[pos]
    return re_acc


def _sum(*signed):
    """The sum of sign * entries over (entries, sign) pairs, entries a map
    {position: GaussScalar} and sign +-1, through the accumulator."""
    acc = {}, {}
    for entries, sign in signed:
        _scatter(acc, [(p, v.re, v.im) for p, v in entries.items()], sign, 0)
    return _flush(acc)


def as_scalar(value) -> GaussScalar:
    """Coerce ints, Fractions and GaussScalars to GaussScalar."""
    if isinstance(value, GaussScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussScalar(value)
    raise TypeError("cannot coerce %r to GaussScalar" % (value,))


ZERO = GaussScalar(0)
ONE = GaussScalar(1)
I = GaussScalar(0, 1)


def _format_fraction(q: int | Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(s: GaussScalar) -> str:
    """Canonical string form: "0", "a/b", "c/d*i" or "a/b+c/d*i"."""
    if not s.im:
        return _format_fraction(s.re)
    imag = _format_fraction(abs(s.im)) + "*i"
    if not s.re:
        return imag if s.im > 0 else "-" + imag
    sign = "+" if s.im > 0 else "-"
    return _format_fraction(s.re) + sign + imag


def _parse_fraction(text: str) -> int | Fraction:
    """One part, [+-]digits or [+-]digits/digits.  Fraction alone would also
    take decimals, "_" and exponents: "1e999999" is a million-digit integer;
    int() alone would take "_" and non-ASCII digits.  Past the gate, text
    without "/" is read by int(), at a fraction of Fraction()'s cost."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError("malformed rational %r" % text)
    return Fraction(text) if "/" in text else int(text)


def parse_scalar(text: str) -> GaussScalar:
    """Parse "a/b", "a/b+c/d*i", "c*i", "i" or plain integers."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if "i" not in s:
        return GaussScalar(_parse_fraction(s))
    # Split the imaginary tail off at the last sign that is not leading.
    split = -1
    for pos in range(1, len(s)):
        if s[pos] in "+-":
            split = pos
    real_part, imag_part = (s[:split], s[split:]) if split > 0 else ("", s)
    if not imag_part.endswith("i"):
        raise ValueError("malformed scalar %r" % text)
    coeff = imag_part[:-1]
    if coeff.endswith("*"):
        num = coeff[:-1]
        if num in ("", "+", "-"):
            raise ValueError("malformed scalar %r" % text)
        im = _parse_fraction(num)
    elif coeff in ("", "+"):
        im = 1
    elif coeff == "-":
        im = -1
    else:
        raise ValueError("imaginary part needs '*i' in %r" % text)
    re = _parse_fraction(real_part) if real_part else 0
    return GaussScalar(re, im)
