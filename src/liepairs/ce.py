"""Cochain complex of the subalgebra with values in (tensor powers of B*) x E,
and the connections whose curvature is its obstruction cocycle.

A Cochain of bidegree (k, l) is a coefficient tensor over (sorted exterior
multi-index of g, length-l tuple of B indices, E index), kept as a map from
flat position to value that holds its nonzeros.  The differential follows the
usual alternating-sum formula, with the module action on the value and on
every B-slot folded in.  It is applied entry by entry to the input's
nonzeros, so its cost follows the input's sparsity.  Whether a cochain is
exact is decided in atiyah.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from operator import mul

from .lie_core import GModule, LiePair, NotACocycle, end_module
from .linalg import Matrix
from .multilinear import (exterior_basis, exterior_index, tensor_index,
                          tensor_tuples)
from .scalars import ZERO, GaussScalar, _scalar


class Cochain:
    """Element of Lambda^k g* (x) (B*)^(x l) (x) E over the canonical basis.

    entries maps a flat position (see flat_index) to its value; a position it
    lacks holds zero.  It holds the nonzeros, and may hold zeros a sum left
    behind, which equality, hashing and iter_nonzero ignore.  data is the same
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
        out = self.copy()
        data = out.entries
        for pos, v in other.entries.items():
            data[pos] = data.get(pos, ZERO) + v
        return out

    def __sub__(self, other):
        return self + -other

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
        out = Cochain(self.pair, self.module, self.k, self.l)
        _add_permuted(out, self, perm)
        return out


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


# The kernel protocol: each kernel adds its image of w into total, a cochain
# of the image's shape.  It reads w.entries, skips stored zeros and finds
# its indices by divmod on flat positions and in cached tables, never by
# decoding tuples.  It sums plain (re, im) parts (see _scatter), and _flush
# builds one GaussScalar per position, none per term.


def _scatter(acc, terms, vr, vi):
    """acc += (xr + i xi)(vr + i vi) at p for each (p, xr, xi) of terms: acc
    is a kernel's own pair of maps {flat position: real, imaginary part}."""
    re_acc, im_acc = acc
    get_re, get_im = re_acc.get, im_acc.get
    for p, xr, xi in terms:
        re, im = (xr * vr - xi * vi, xr * vi + xi * vr) if xi or vi \
            else (xr * vr, 0)
        re_acc[p] = get_re(p, 0) + re
        if im:
            im_acc[p] = get_im(p, 0) + im


def _flush(total, acc):
    """total += acc (see _scatter), one GaussScalar per position.  acc's
    real map is converted in place, and an empty total adopts it, so no
    second map is held beside it."""
    re_acc, im_acc = acc
    data = total.entries
    get, get_im = data.get, im_acc.get
    for pos, re in re_acc.items():
        im, old = get_im(pos, 0), get(pos)
        if old is not None:
            re, im = old.re + re, old.im + im
        re_acc[pos] = _scalar(re, im) if re or im else ZERO  # cancelled
    if data:
        data.update(re_acc)
    else:
        total.entries = re_acc


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


def _add_permuted(total, w, *perms, signs=None):
    """total += the sum over perms of sign * w.permute_b_args(perm), in one
    pass over w: the entry of w at b-tuple s lands at the t with t[perm[i]]
    = s[i].  signs holds one +-1 per perm, +1 each by default."""
    if any(sorted(perm) != list(range(w.l)) for perm in perms):
        raise ValueError("perm must be a permutation of the %d B-slots" % w.l)
    nb, dim_e = w.pair.dim_b, w.module.dim
    lo_radix, hi_radix = nb ** (w.l // 2), nb ** (w.l - w.l // 2)
    moves = [_digit_tables(nb, w.l, tuple(perm)) + (sign < 0,) for perm, sign
             in zip(perms, signs or [1] * len(perms))]
    # each term is +-v: _scatter's work, inlined on the hottest kernel
    acc = re_acc, im_acc = {}, {}
    get_re, get_im = re_acc.get, im_acc.get
    for pos, v in w.entries.items():
        vr, vi = v.re, v.im
        if not (vr or vi):
            continue
        hi, lo = divmod(pos // dim_e, lo_radix)
        hi %= hi_radix
        for hi_moves, lo_moves, neg in moves:
            p = pos + (hi_moves[hi] + lo_moves[lo]) * dim_e
            re_acc[p] = get_re(p, 0) - vr if neg else get_re(p, 0) + vr
            if vi:
                im_acc[p] = get_im(p, 0) - vi if neg else get_im(p, 0) + vi
    _flush(total, acc)


def _ce_table(pair: LiePair, module: GModule, l: int):
    """The nonzeros the differential on l B-slots reads, listed per kernel
    call by input as plain (re, im) parts: (act, quot, brk, the B-slots'
    index weights, dim B).  act[a][e] holds (e_out, re, im) for a acting on
    the value, quot[a][b] (b_old, re, im) for a acting on a B-slot, and
    brk[s] (x, y, re, im), x < y, for [x, y] along s."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    rho_b = pair.quotient_module().action
    act, quot = [], []
    for a in range(n):
        rho, rows = module.action[a].data, rho_b[a].data
        act.append([[(e_out, x.re, x.im) for e_out in range(dim_e)
                     if (x := rho[e_out * dim_e + e])] for e in range(dim_e)])
        quot.append([[(old, x.re, x.im) for old in range(nb)
                      if (x := rows[new * nb + old])] for new in range(nb)]
                     if l else None)
    c = pair.d.c
    brk = [[(x, y, v.re, v.im) for x in range(n) for y in range(x + 1, n)
            if (v := c[x][y][s])] for s in range(n)]
    return act, quot, brk, [nb ** (l - 1 - slot) for slot in range(l)], nb


def _ce_terms(table, gt, bi, e):
    """Yield the terms (J, b-index, e_out, re, im) of d applied to the basis
    cochain that is 1 at (gt, bi, e) and 0 elsewhere, read off the table.

    The transpose of the three term families of the differential: the action
    on the value, minus the action routed through each B-slot, and the
    bracket terms.  A key may be yielded more than once; callers add.
    """
    act, quot, brk, weights, nb = table
    k = len(gt)
    m = 0  # entries of gt below a, i.e. the position of a in J
    for a, rows in enumerate(act):
        if m < k and gt[m] == a:
            m += 1
            continue
        J = gt[:m] + (a,) + gt[m:]
        sign = -1 if m % 2 else 1
        for e_out, re, im in rows[e]:
            yield J, bi, e_out, sign * re, sign * im
        for w in weights:
            new = bi // w % nb
            for old, re, im in quot[a][new]:
                yield J, bi + (old - new) * w, e, -sign * re, -sign * im
    # gt = insert(s, rest) with sign (-1)^q; J = rest + {x, y}, x < y.
    for q, s in enumerate(gt):
        rest = gt[:q] + gt[q + 1 :]
        for x, y, re, im in brk[s]:
            if x in rest or y in rest:
                continue
            mx = bisect(rest, x)  # entries of rest below x
            my = bisect(rest, y) + 1  # entries of rest below y, plus x
            J = rest[:mx] + (x,) + rest[mx : my - 1] + (y,) + rest[my - 1 :]
            if (mx + my + q) % 2:
                re, im = -re, -im
            yield J, bi, e, re, im


def _ce_image(w, table, entries):
    """d of the entries {position: value} of a cochain shaped like w, as its
    nonzeros {output position: value}: the terms are summed as plain parts,
    and one GaussScalar is built per output position."""
    g_basis, dim_e = w.g_basis(), w.module.dim
    out_index = exterior_index(w.pair.dim_g, w.k + 1)
    b_radix = w.pair.dim_b ** w.l
    acc = {}
    for pos, v in entries.items():
        vr, vi = v.re, v.im
        rest, e = divmod(pos, dim_e)
        gi, bi = divmod(rest, b_radix)
        for J, bo, e_out, cr, ci in _ce_terms(table, g_basis[gi], bi, e):
            out = (out_index[J] * b_radix + bo) * dim_e + e_out
            re, im = (cr * vr - ci * vi, cr * vi + ci * vr) if ci \
                else (cr * vr, cr * vi)
            old = acc.get(out)
            if old is None:
                acc[out] = [re, im]
            else:
                old[0] += re
                old[1] += im
    return {out: GaussScalar(re, im) for out, (re, im) in acc.items()
            if re or im}


def _ce_into(total, w):
    """total += d(w)."""
    if w.k < w.pair.dim_g:
        data = total.entries
        table = _ce_table(w.pair, w.module, w.l)
        for out, x in _ce_image(w, table, w.entries).items():
            data[out] = data[out] + x if out in data else x


def ce_diff(w: Cochain) -> Cochain:
    """Exact degree-(k+1) image of the Chevalley-Eilenberg differential."""
    out = Cochain(w.pair, w.module, w.k + 1, w.l)
    _ce_into(out, w)
    return out


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
            if not (self.nabla[a] - module.action[a]).is_zero():
                raise ValueError(
                    "connection does not extend the action at slot %d" % a)


def extend_by_zero(pair: LiePair, module: GModule) -> Connection:
    """The canonical extension that kills the complement directions."""
    zero = Matrix.zeros(module.dim, module.dim)
    return Connection(pair, module,
                      list(module.action) + [zero] * pair.dim_b)


def curvature(conn: Connection, i: int, j: int) -> Matrix:
    """R(x_i, x_j) = [nabla_i, nabla_j] - nabla_([x_i, x_j])."""
    out = conn.nabla[i].commutator(conn.nabla[j])
    for s, c in enumerate(conn.pair.d.c[i][j]):
        if not c.is_zero():
            out = out - conn.nabla[s].scale(c)
    return out


def atiyah_cocycle(conn: Connection) -> Cochain:
    """The obstruction cochain (a, b) -> R(a, j(b)) in degree (1, 1), End(E)-valued.

    Raises NotACocycle if the output fails the closedness check, which would
    signal a bug in this library rather than bad input.
    """
    pair, module = conn.pair, conn.module
    endo = end_module(module)
    out = Cochain(pair, endo, 1, 1)
    for a in range(pair.dim_g):
        for b in range(pair.dim_b):
            r = curvature(conn, a, pair.dim_g + b)
            for row in range(module.dim):
                for col in range(module.dim):
                    x = r[row, col]
                    if not x.is_zero():
                        out.set((a,), (b,), row * module.dim + col, x)
    if not is_cocycle(out):
        raise NotACocycle("curvature cochain is not closed")
    return out


def end_connection(conn: Connection) -> Connection:
    """Induced connection on End(E): the commutator with each nabla matrix."""
    nabla = GModule(conn.module.dim, conn.nabla)
    return Connection(conn.pair, end_module(conn.module),
                      end_module(nabla).action)
