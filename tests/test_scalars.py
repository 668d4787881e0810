import copy
import pickle
import random

from fractions import Fraction

import pytest

from liepairs.scalars import (
    GaussScalar,
    I,
    ONE,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)


def rand_scalar(rng):
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return GaussScalar(q(), q())


def test_basic_arithmetic():
    a = GaussScalar(1, 2)
    b = GaussScalar(3, -1)
    assert a + b == GaussScalar(4, 1)
    assert a - b == GaussScalar(-2, 3)
    assert a * b == GaussScalar(5, 5)
    assert -a == GaussScalar(-1, -2)
    assert I * I == GaussScalar(-1)


def test_division_and_inverse():
    a = GaussScalar(1, 1)
    assert a / a == ONE
    assert (ONE / a) * a == ONE
    assert GaussScalar(5) / GaussScalar(2) == GaussScalar(Fraction(5, 2))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * (ONE / a) == ONE


def test_immutability_and_hash():
    a = GaussScalar(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(3)
    assert hash(GaussScalar(1, 2)) == hash(GaussScalar(1, 2))
    assert as_scalar(3) == GaussScalar(3)
    assert as_scalar(Fraction(1, 2)) == GaussScalar(Fraction(1, 2))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", GaussScalar(0)),
        ("3", GaussScalar(3)),
        ("-7/2", GaussScalar(Fraction(-7, 2))),
        ("i", I),
        ("-i", -I),
        ("2*i", GaussScalar(0, 2)),
        ("-3/4*i", GaussScalar(0, Fraction(-3, 4))),
        ("1/2+3/4*i", GaussScalar(Fraction(1, 2), Fraction(3, 4))),
        ("1-2*i", GaussScalar(1, -2)),
        ("-1/3-1/3*i", GaussScalar(Fraction(-1, 3), Fraction(-1, 3))),
        ("007", GaussScalar(7)),
        ("+7", GaussScalar(7)),
        ("-0", GaussScalar(0)),
        ("-0/5", GaussScalar(0)),
        ("+3/6", GaussScalar(Fraction(1, 2))),
        ("007*i", GaussScalar(0, 7)),
        ("-0+i", I),
        ("2-i", GaussScalar(2, -1)),
    ],
)
def test_parse(text, expected):
    got = parse_scalar(text)
    assert got == expected
    # integral parts are ints, as GaussScalar stores them
    assert (type(got.re), type(got.im)) == (type(expected.re),
                                            type(expected.im))


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        s = rand_scalar(rng)
        assert parse_scalar(format_scalar(s)) == s
    assert format_scalar(ZERO) == "0"
    assert format_scalar(GaussScalar(0, -1)) == "-1*i"
    assert format_scalar(GaussScalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"


def test_parse_rejects_garbage():
    for bad in ["", "one", "1+*i", "i*i", "1/2/3", "1e3", "2.0", "2_0"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(bad)


# -- differential test: int-first storage against plain Fraction pairs ---------


def _operand(rng):
    """An int, a Fraction, or a GaussScalar with integral or fractional parts."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return q()
    if kind == 2:
        return GaussScalar(q())
    return GaussScalar(q(), q())


def _pair(x):
    """The (Fraction, Fraction) reference of an operand."""
    if isinstance(x, GaussScalar):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _ref(op, x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    if op == "add":
        return a + c, b + d
    if op == "sub":
        return a - c, b - d
    if op == "mul":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y, "div": lambda x, y: x / y}


def _check_storage(s, ref):
    for part, want in ((s.re, ref[0]), (s.im, ref[1])):
        assert part == want
        if want.denominator == 1:
            assert type(part) is int
        else:
            assert type(part) is Fraction
    assert hash(s) == hash(ref)
    assert s == GaussScalar(*ref)
    if not ref[1]:
        assert s == ref[0] and s == GaussScalar(ref[0])


def test_int_first_arithmetic_matches_fraction_pairs():
    rng = random.Random(23)
    for _ in range(2000):
        x, y = _operand(rng), _operand(rng)
        if not any(isinstance(v, GaussScalar) for v in (x, y)):
            x = GaussScalar(x)
        for op, fn in _OPS.items():
            if op == "div" and _pair(y) == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    fn(x, y)
                continue
            _check_storage(fn(x, y), _ref(op, x, y))
        if isinstance(x, GaussScalar):
            a, b = _pair(x)
            _check_storage(-x, (-a, -b))
            _check_storage(x.conjugate(), (a, -b))


def test_integral_parts_are_stored_as_int():
    assert GaussScalar(3) == GaussScalar(Fraction(3))
    assert hash(GaussScalar(3)) == hash(GaussScalar(Fraction(3)))
    assert hash(GaussScalar(3)) == hash((Fraction(3), Fraction(0)))
    s = GaussScalar(Fraction(6, 2), Fraction(-4, 4))
    assert type(s.re) is int and type(s.im) is int
    half = GaussScalar(Fraction(1, 2))
    assert type((half + half).re) is int
    assert type((half * GaussScalar(2)).re) is int
    assert type((GaussScalar(6) / GaussScalar(3)).re) is int
    assert type((GaussScalar(1) / GaussScalar(3)).re) is Fraction
    assert GaussScalar(2, 1) != 2
    assert format_scalar(GaussScalar(Fraction(-6, 3), Fraction(4, 2))) == "-2+2*i"


def test_copy_and_pickle_round_trip():
    values = [ZERO, ONE, I, GaussScalar(-7), GaussScalar(Fraction(3, 4), 2),
              GaussScalar(5, Fraction(-1, 3))]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert type(y.re) is type(x.re) and type(y.im) is type(x.im)
    assert type(pickle.loads(pickle.dumps(GaussScalar(Fraction(6, 3)))).re) is int
    rebuilt = copy.deepcopy([ONE, {I: GaussScalar(2)}])
    assert rebuilt == [ONE, {I: GaussScalar(2)}]
    with pytest.raises(AttributeError):
        copy.copy(ONE).re = 2
