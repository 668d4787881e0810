"""Cochain complex of the subalgebra with values in (tensor powers of B*) x E,
and the connections whose curvature is its obstruction cocycle.

A Cochain of bidegree (k, l) is a coefficient tensor over (sorted exterior
multi-index of g, length-l tuple of B indices, E index), kept as a map from
flat position to value that holds its nonzeros.  The differential
d(e^I (x) v) = sum_a e^a ^ e^I (x) a.v + d(e^I) (x) v, a acting on the value
and on every B-slot, is one of the flat-position kernels below, read off
the table every derivation of cochains reads (see _ce_table): each input
nonzero is scattered through moves listed per exterior index, so its cost
follows the input's sparsity.  Whether a cochain is exact is decided in
atiyah.  A connection's curvature, and the obstruction cocycle as its
(g, B) blocks, are read off lie_core's flatness kernel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul

from .lie_core import (GModule, LiePair, NotACocycle, _flatness_residual,
                        _rows, end_module)
from .linalg import Matrix
from .multilinear import (exterior_basis, exterior_index, merge_sign,
                          tensor_index, tensor_tuples)
from .scalars import ZERO, _flush, _scatter, _sum


class Cochain:
    """Element of Lambda^k g* (x) (B*)^(x l) (x) E over the canonical basis.

    entries maps a flat position (see flat_index) to its value; a position it
    lacks holds zero.  The kernels and + store nonzeros only; a zero written
    directly, through data or entries, is ignored by equality, hashing,
    iter_nonzero and every kernel that reads the cochain.  data is the same
    map indexed like the dense tensor (see DenseView).  A dense coefficient
    list, as linear algebra returns one, may be passed as data.
    """

    __slots__ = ("pair", "module", "k", "l", "size", "entries")

    def __init__(self, pair: LiePair, module: GModule, k: int, l: int, data=None):
        self.pair = pair
        self.module = module
        self.k = k
        self.l = l
        self.size = self.g_count() * self.b_count() * module.dim
        self.entries = {}
        if data is not None:
            if len(data) != self.size:
                raise ValueError("coefficient tensor has wrong shape")
            self.entries = {pos: v for pos, v in enumerate(data)
                            if not v.is_zero()}

    @property
    def data(self):
        return DenseView(self)

    # -- index plumbing -------------------------------------------------------

    def g_basis(self):
        return exterior_basis(self.pair.dim_g, self.k)

    def g_count(self):
        return len(exterior_basis(self.pair.dim_g, self.k))

    def b_count(self):
        return self.pair.dim_b ** self.l

    def flat_index(self, gi: int, bi: int, e: int) -> int:
        return (gi * self.b_count() + bi) * self.module.dim + e

    def _position(self, g_tuple, b_tuple, e):
        gi = exterior_index(self.pair.dim_g, self.k)[tuple(g_tuple)]
        return self.flat_index(gi, tensor_index(tuple(b_tuple), self.pair.dim_b),
                               e)

    def get(self, g_tuple, b_tuple, e):
        return self.data[self._position(g_tuple, b_tuple, e)]

    def set(self, g_tuple, b_tuple, e, value):
        self.data[self._position(g_tuple, b_tuple, e)] = value

    def iter_nonzero(self):
        """(g_tuple, b_tuple, e, coeff) per nonzero entry, in flat order."""
        return self._decode(sorted(self.entries.items()))

    def _decode(self, items):
        """iter_nonzero over (position, value) items, in their order, each
        b-tuple decoded from its index once."""
        g_basis = self.g_basis()
        nb, dim_e = self.pair.dim_b, self.module.dim
        b_radix = nb ** self.l
        weights = [nb ** (self.l - 1 - slot) for slot in range(self.l)]
        b_tuples = {}
        for pos, c in items:
            if c.re or c.im:
                rest, e = divmod(pos, dim_e)
                gi, bi = divmod(rest, b_radix)
                bt = b_tuples.get(bi)
                if bt is None:
                    bt = b_tuples[bi] = tuple(bi // w % nb for w in weights)
                yield g_basis[gi], bt, e, c

    # -- structure ------------------------------------------------------------

    def _like(self, entries):
        """A cochain of this shape holding entries."""
        out = Cochain(self.pair, self.module, self.k, self.l)
        out.entries = entries
        return out

    def _nonzeros(self):
        return {pos: c for pos, c in self.entries.items() if not c.is_zero()}

    def copy(self):
        return self._like(dict(self.entries))

    def is_zero(self):
        return all(c.is_zero() for c in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.k, self.l, self.size, self._nonzeros()) == \
            (other.k, other.l, other.size, other._nonzeros())

    def __hash__(self):
        return hash((self.k, self.l, self.size,
                     frozenset(self._nonzeros().items())))

    def __add__(self, other):
        self._match(other)
        return self._like(_sum((self.entries, 1), (other.entries, 1)))

    def __sub__(self, other):
        self._match(other)
        return self._like(_sum((self.entries, 1), (other.entries, -1)))

    def __neg__(self):
        return self._like({pos: -v for pos, v in self.entries.items()})

    def _match(self, other):
        if self.k != other.k or self.l != other.l \
                or self.module.dim != other.module.dim:
            raise ValueError("cochain shape mismatch")

    def first_nonzero(self):
        """A nonzero cochain's witness: its first nonzero entry in flat order
        as a dict, or None.  Only that entry is decoded."""
        pos = min((pos for pos, c in self.entries.items() if c.re or c.im),
                  default=None)
        if pos is None:
            return None
        for gt, bt, e, c in self._decode([(pos, self.entries[pos])]):
            return {"g": gt, "b": bt, "e": e, "value": str(c)}

    def permute_b_args(self, perm):
        """New cochain w'(...; b_1..b_l) = w(...; b_perm(1)..b_perm(l))."""
        return _summed(self.pair, self.module, self.k, self.l, _add_permuted,
                       self, perm)


class DenseView:
    """A cochain's entries indexed like its dense coefficient tensor: len is
    the dense size, a position without an entry reads ZERO, iteration yields
    every value in flat order, and a position outside range(len) raises
    IndexError on read and on write."""

    __slots__ = ("entries", "size")

    def __init__(self, w: Cochain):
        self.entries = w.entries
        self.size = w.size

    def __len__(self):
        return self.size

    def _checked(self, pos):
        if not 0 <= pos < self.size:
            raise IndexError("cochain position %d outside range(%d)"
                             % (pos, self.size))
        return pos

    def __getitem__(self, pos):
        return self.entries.get(self._checked(pos), ZERO)

    def __setitem__(self, pos, value):
        self.entries[self._checked(pos)] = value

    def __iter__(self):
        get = self.entries.get
        return (get(pos, ZERO) for pos in range(self.size))

    def __eq__(self, other):
        """Equal to another view, or to a list, with the same dense values."""
        if isinstance(other, DenseView):
            other = list(other)
        return list(self) == other


# The kernel protocol: each kernel, the differential among them, scatters its
# image of w into acc, its caller's accumulator (scalars._scatter) over the
# flat positions of the image's shape, and never flushes.  It reads
# w.entries and finds its indices by divmod on flat positions and in tables,
# never by decoding tuples: every wedge of basis forms is read off
# _merge_table.  Every derivation, d and homotopy's prepending derivative
# alike, scatters through _ce_sum alone, from a table of _ce_table's shape.
# The owner of an output scatters every term of it into one
# accumulator and flushes it once, through _summed: one GaussScalar per
# position, none per term or per kernel call, and no sum that cancels.


def _summed(pair, module, k, l, into, *args) -> Cochain:
    """The (k, l)-cochain with values in module that into(acc, *args)
    scatters into one accumulator, flushed once."""
    acc = {}, {}
    into(acc, *args)
    out = Cochain(pair, module, k, l)
    out.entries = _flush(acc)
    return out


@lru_cache(maxsize=None)
def _merge_table(n, k1, k2):
    """table[i1][i2]: the wedge of the basis forms of degrees k1 and k2 on n
    generators at exterior indices i1, i2 as (merged index, sign), or None.
    The one place the kernels' wedges and strips of forms are worked out."""
    index = exterior_index(n, k1 + k2)
    return tuple(tuple(None if (step := merge_sign(f1, f2)) is None
                       else (index[step[1]], step[0])
                       for f2 in exterior_basis(n, k2))
                 for f1 in exterior_basis(n, k1))


@lru_cache(maxsize=None)
def _form_starts(n):
    """The number of basis forms of Lambda g* on n generators below each
    degree 0 .. n + 1: the form of degree k at exterior index gi has
    degree-major index _form_starts(n)[k] + gi."""
    return tuple(accumulate((comb(n, k) for k in range(n + 1)), initial=0))


@lru_cache(maxsize=None)
def _form_at(n, f):
    """(degree, exterior index) of the form at degree-major index f."""
    starts, k = _form_starts(n), 0
    while starts[k + 1] <= f:
        k += 1
    return k, f - starts[k]


def _form_index(n, form):
    """The degree-major index of a sorted form tuple (see _form_starts)."""
    return _form_starts(n)[len(form)] + exterior_index(n, len(form))[form]


@lru_cache(maxsize=None)
def _digit_tables(nb, l, perm):
    """How a permutation of l B-slots moves a b-index s: by hi[s // nb^h] +
    lo[s % nb^h], h = l // 2, since the move is additive over s's base-nb
    digits and each table sums those of its half (nb^ceil(l/2) entries)."""
    moves = [nb ** (l - 1 - p) - nb ** (l - 1 - i) for i, p in enumerate(perm)]
    halves = moves[:l - l // 2], moves[l - l // 2:]
    return tuple(tuple(sum(map(mul, digits, half))
                       for digits in tensor_tuples(nb, len(half)))
                 for half in halves)


def _add_permuted(acc, w, *perms, signs=None):
    """acc += the sum over perms of sign * w.permute_b_args(perm), in one
    pass over w: the entry of w at b-tuple s lands at the t with t[perm[i]]
    = s[i].  signs holds one +-1 per perm, +1 each by default."""
    if any(sorted(perm) != list(range(w.l)) for perm in perms):
        raise ValueError("perm must be a permutation of the %d B-slots" % w.l)
    nb, dim_e = w.pair.dim_b, w.module.dim
    lo_radix, hi_radix = nb ** (w.l // 2), nb ** (w.l - w.l // 2)
    moves = [_digit_tables(nb, w.l, tuple(perm)) + (sign < 0,) for perm, sign
             in zip(perms, signs or [1] * len(perms))]
    # each term is +-v: _scatter's work, inlined on the hottest kernel
    re_acc, im_acc = acc
    get_re, get_im = re_acc.get, im_acc.get
    for pos, v in w.entries.items():
        vr, vi = v.re, v.im
        hi, lo = divmod(pos // dim_e, lo_radix)
        hi %= hi_radix
        for hi_moves, lo_moves, neg in moves:
            p = pos + (hi_moves[hi] + lo_moves[lo]) * dim_e
            re_acc[p] = get_re(p, 0) - vr if neg else get_re(p, 0) + vr
            if vi:
                im_acc[p] = get_im(p, 0) - vi if neg else get_im(p, 0) + vi


def _acting(on_value, on_slots, weights, sign):
    """The (value, slots) lists of one move of a derivation's table (see
    _ce_table): sign times the matrix on_value acting on the value, and sign
    times the dual of on_slots acting on each B-slot, of index weight w in
    weights.  value[e] and slots[slot][new] list (shift, re, im) per nonzero
    of column e of on_value and of row new of on_slots."""
    dim_e, rho = on_value.rows, on_value.data
    nb, rows = on_slots.rows, on_slots.data
    value = [[(e_out - e, sign * x.re, sign * x.im) for e_out in range(dim_e)
              if (x := rho[e_out * dim_e + e]).re or x.im]
             for e in range(dim_e)]
    slots = [[[((old - new) * w * dim_e, -sign * x.re, -sign * x.im)
               for old in range(nb) if (x := rows[new * nb + old]).re or x.im]
              for new in range(nb)] for w in weights]
    return value, slots


def _ce_table(pair: LiePair, module: GModule, k: int, l: int):
    """The differential on (k, l)-cochains in the table every derivation
    reads (through _ce_terms): flat moves per input exterior index gi, as
    (moves, forms, the B-slots' index weights, dim B, the size of one input
    form's block, dim E).  An entry at offset at = bi * dim E + e of gi's
    block sends each (shift, re, im) of a list to off + at + shift.
    moves[gi] holds (off, value, slots) per operator acting on the value and
    dually on the B-slots (see _acting): here per a with e^a ^ e^gi = sign
    e^J, off J's block, a times sign.  forms[gi] holds (off, re, im) per
    term of the derivation of Lambda g*, here of d e^gi: e^gi = sign e^s ^
    e^rest, and d e^s = -sum_(x<y) c^s_xy e^x ^ e^y is wedged onto e^rest.
    Every wedge and strip is read off _merge_table."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    stride = nb ** l * dim_e
    weights = [nb ** (l - 1 - slot) for slot in range(l)]
    rho_b = pair.quotient_module().action
    actions = [{sign: _acting(module.action[a], rho_b[a], weights, sign)
                for sign in (1, -1)} for a in range(n)]
    moves = [[] for _ in exterior_basis(n, k)]
    for a, row in enumerate(_merge_table(n, 1, k)):
        for gi, step in enumerate(row):
            if step is not None:
                moves[gi].append((step[0] * stride,) + actions[a][step[1]])
    c = pair.d.c
    d_forms = [[(xy, v) for xy, (x, y) in enumerate(exterior_basis(n, 2))
                if (v := c[x][y][s]).re or v.im] for s in range(n)]
    forms = [[] for _ in exterior_basis(n, k)]
    wedges = _merge_table(n, 2, k - 1)
    for s, row in enumerate(_merge_table(n, 1, k - 1)):
        for rest, strip in enumerate(row):
            if strip is not None:
                gi, sign = strip
                forms[gi] += [(wedge[0] * stride, -sign * wedge[1] * v.re,
                               -sign * wedge[1] * v.im)
                              for xy, v in d_forms[s]
                              if (wedge := wedges[xy][rest]) is not None]
    return moves, forms, weights, nb, stride, dim_e


def _ce_terms(table, pos):
    """The terms (position, re, im) of the table's derivation (see
    _ce_table) applied to the basis cochain that is 1 at flat position pos.
    A position may be listed more than once; callers add."""
    moves, forms, weights, nb, stride, dim_e = table
    gi, at = divmod(pos, stride)
    bi, e = divmod(at, dim_e)
    terms = [(off + at, re, im) for off, re, im in forms[gi]]
    for off, value, slots in moves[gi]:
        dst = off + at
        terms += [(dst + shift, re, im) for shift, re, im in value[e]]
        for w, rows in zip(weights, slots):
            terms += [(dst + shift, re, im)
                      for shift, re, im in rows[bi // w % nb]]
    return terms


def _ce_sum(acc, table, entries, sign=1):
    """acc += sign times the table's derivation of entries {flat position:
    value} of a cochain the table fits."""
    for pos, v in entries.items():
        _scatter(acc, _ce_terms(table, pos), sign * v.re, sign * v.im)


def _ce_into(acc, w, sign=1):
    """acc += sign * d(w)."""
    _ce_sum(acc, _ce_table(w.pair, w.module, w.k, w.l), w.entries, sign)


def ce_diff(w: Cochain) -> Cochain:
    """Exact degree-(k+1) image of the Chevalley-Eilenberg differential."""
    return _summed(w.pair, w.module, w.k + 1, w.l, _ce_into, w)


def is_cocycle(w: Cochain) -> bool:
    return ce_diff(w).is_zero()


# -- connections --------------------------------------------------------------


class Connection:
    """Linear extension of the subalgebra action to the whole algebra.

    ``nabla[x]`` is the End(E) matrix of the covariant derivative along the
    x-th basis vector of d; the first dim_g slots must equal the module action.
    """

    __slots__ = ("pair", "module", "nabla")

    def __init__(self, pair: LiePair, module: GModule, nabla):
        self.pair = pair
        self.module = module
        self.nabla = list(nabla)
        if len(self.nabla) != pair.dim_d:
            raise ValueError("need one matrix per basis vector of d")
        for x, mat in enumerate(self.nabla):
            if mat.rows != module.dim or mat.cols != module.dim:
                raise ValueError("connection matrices must match the module")
        for a in range(pair.dim_g):
            if self.nabla[a] != module.action[a]:
                raise ValueError(
                    "connection does not extend the action at slot %d" % a)


def extend_by_zero(pair: LiePair, module: GModule) -> Connection:
    """The canonical extension that kills the complement directions."""
    zero = Matrix.zeros(module.dim, module.dim)
    return Connection(pair, module,
                      list(module.action) + [zero] * pair.dim_b)


def curvature(conn: Connection, i: int, j: int) -> Matrix:
    """R(x_i, x_j) = [nabla_i, nabla_j] - nabla_([x_i, x_j]), read off the
    flatness residual of the matrices it involves."""
    bracket = conn.pair.d.c[i][j]
    rows = {a: _rows(conn.nabla[a])
            for a in {i, j}.union(k for k, x in enumerate(bracket) if x)}
    out = Matrix.zeros(conn.module.dim, conn.module.dim)
    for pos, x in _flatness_residual(rows, bracket, i, j).items():
        out.data[pos] = x
    return out


def atiyah_cocycle(conn: Connection) -> Cochain:
    """The obstruction cochain (a, b) -> R(a, j(b)) in degree (1, 1), End(E)-valued.

    Raises NotACocycle if the output fails the closedness check, which would
    signal a bug in this library rather than bad input.
    """
    pair, module = conn.pair, conn.module
    m, nb, size = pair.dim_g, pair.dim_b, module.dim ** 2
    rows = [_rows(mat) for mat in conn.nabla]
    out = Cochain(pair, end_module(module), 1, 1)
    for a in range(m):
        for b in range(nb):
            at = (a * nb + b) * size
            for pos, x in _flatness_residual(rows, pair.d.c[a][m + b], a,
                                             m + b).items():
                out.entries[at + pos] = x
    if not is_cocycle(out):
        raise NotACocycle("curvature cochain is not closed")
    return out


def end_connection(conn: Connection) -> Connection:
    """Induced connection on End(E): the commutator with each nabla matrix."""
    nabla = GModule(conn.module.dim, conn.nabla)
    return Connection(conn.pair, end_module(conn.module),
                      end_module(nabla).action)
