"""Cochain complex of the subalgebra with values in (tensor powers of B*) x E.

A Cochain of bidegree (k, l) is a coefficient tensor over (sorted exterior
multi-index of g, length-l tuple of B indices, E index), kept as a map from
flat position to value that holds its nonzeros.  The differential follows the
usual alternating-sum formula, with the module action on the value and on
every B-slot folded in.  It is applied entry by entry to the input's
nonzeros, so its cost follows the input's sparsity.
"""

from __future__ import annotations

from operator import mul

from .lie_core import GModule, LiePair
from .linalg import Matrix, nullspace_basis, rref, solve, vec_is_zero
from .multilinear import (
    exterior_basis,
    exterior_index,
    tensor_index,
    tensor_tuples,
)
from .scalars import ZERO


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
        """Yields (g_tuple, b_tuple, e, coeff) over nonzero entries, in flat
        order, each b-tuple decoded from its index once."""
        g_basis = self.g_basis()
        nb, dim_e = self.pair.dim_b, self.module.dim
        b_radix = nb ** self.l
        weights = [nb ** (self.l - 1 - slot) for slot in range(self.l)]
        b_tuples = {}
        for pos, c in sorted(self._nonzeros().items()):
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
        """A nonzero cochain's witness: its first entry in flat order as a
        dict, or None."""
        for gt, bt, e, c in self.iter_nonzero():
            return {"g": gt, "b": bt, "e": e, "value": str(c)}
        return None

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


# Each kernel below adds its image of w into total, a cochain of the image's
# shape: it reads w's nonzeros and writes total.entries directly, as
# data[pos] = data.get(pos, ZERO) + term, so its cost follows those nonzeros.


def _add_permuted(total, w, perm):
    """total += w.permute_b_args(perm): the entry of w at b-tuple s lands at
    the t with t[perm[i]] = s[i]."""
    if sorted(perm) != list(range(w.l)):
        raise ValueError("perm must be a permutation of the %d B-slots" % w.l)
    nb, dim_e = w.pair.dim_b, w.module.dim
    b_radix = nb ** w.l
    g_index = exterior_index(w.pair.dim_g, w.k)
    weights = [nb ** (w.l - 1 - p) for p in perm]
    data = total.entries
    for gt, bt, e, v in w.iter_nonzero():
        pos = (g_index[gt] * b_radix + sum(map(mul, bt, weights))) * dim_e + e
        data[pos] = data.get(pos, ZERO) + v


def _ce_terms(pair: LiePair, module: GModule, gt, bt, e):
    """Yield the nonzero terms (J, b-tuple, e_out, coeff) of d applied to the
    basis cochain that is 1 at (gt, bt, e) and 0 elsewhere.

    The transpose of the three term families of the differential: the action
    on the value, minus the action routed through each B-slot, and the
    bracket terms.  A key may be yielded more than once; callers add.
    """
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    rho_b = pair.quotient_module().action
    k = len(gt)
    m = 0  # entries of gt below a, i.e. the position of a in J
    for a in range(n):
        if m < k and gt[m] == a:
            m += 1
            continue
        J = gt[:m] + (a,) + gt[m:]
        odd = m % 2
        rho_e = module.action[a].data
        for e_out in range(dim_e):
            x = rho_e[e_out * dim_e + e]
            if not x.is_zero():
                yield J, bt, e_out, -x if odd else x
        rho = rho_b[a].data
        for slot, new in enumerate(bt):
            head, tail = bt[:slot], bt[slot + 1 :]
            row = new * nb
            for old in range(nb):
                x = rho[row + old]
                if not x.is_zero():
                    yield J, head + (old,) + tail, e, x if odd else -x
    # gt = insert(s, rest) with sign (-1)^q; J = rest + {x, y}, x < y.
    c = pair.d.c
    for q, s in enumerate(gt):
        rest = gt[:q] + gt[q + 1 :]
        free = [x for x in range(n) if x not in rest]
        for i, x in enumerate(free):
            mx = x - i  # entries of rest below x
            cx = c[x]
            for j in range(i + 1, len(free)):
                y = free[j]
                coeff = cx[y][s]
                if coeff.is_zero():
                    continue
                my = y - j + 1  # entries of rest below y, plus x
                J = rest[:mx] + (x,) + rest[mx : my - 1] + (y,) + rest[my - 1 :]
                yield J, bt, e, -coeff if (mx + my + q) % 2 else coeff


def _ce_into(total, w):
    """total += d(w)."""
    pair = w.pair
    n, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    if w.k + 1 > n:
        return
    out_index = exterior_index(n, w.k + 1)
    b_radix = nb ** w.l
    data = total.entries
    for gt, bt, e, v in w.iter_nonzero():
        for J, bt_out, e_out, coeff in _ce_terms(pair, w.module, gt, bt, e):
            pos = (out_index[J] * b_radix + tensor_index(bt_out, nb)) \
                * dim_e + e_out
            data[pos] = data.get(pos, ZERO) + coeff * v


def ce_diff(w: Cochain) -> Cochain:
    """Exact degree-(k+1) image of the Chevalley-Eilenberg differential."""
    out = Cochain(w.pair, w.module, w.k + 1, w.l)
    _ce_into(out, w)
    return out


def is_cocycle(w: Cochain) -> bool:
    return ce_diff(w).is_zero()


def diff_matrix(pair: LiePair, module: GModule, k: int, l: int = 0) -> Matrix:
    """Matrix of the degree-k differential w.r.t. the canonical cochain bases."""
    n, nb, dim_e = pair.dim_g, pair.dim_b, module.dim
    g_basis = exterior_basis(n, k)
    bts = tensor_tuples(nb, l)
    b_index = {bt: bi for bi, bt in enumerate(bts)}
    b_radix = len(bts)
    out_index = exterior_index(n, k + 1)
    cols = len(g_basis) * b_radix * dim_e
    mat = Matrix.zeros(len(out_index) * b_radix * dim_e, cols)
    data = mat.data
    col = 0
    for gt in g_basis:
        for bt in bts:
            for e in range(dim_e):
                for J, bt_out, e_out, coeff in _ce_terms(pair, module, gt, bt, e):
                    row = (out_index[J] * b_radix + b_index[bt_out]) * dim_e + e_out
                    pos = row * cols + col
                    data[pos] = data[pos] + coeff
                col += 1
    return mat


def coboundary_primitive(w: Cochain):
    """A deterministic phi with d(phi) = w, or None when w is not exact."""
    if w.k == 0:
        return None
    mat = diff_matrix(w.pair, w.module, w.k - 1, w.l)
    x = solve(mat, w.data)
    if x is None:
        return None
    return Cochain(w.pair, w.module, w.k - 1, w.l, x)


def cohomology_dim(pair: LiePair, module: GModule, k: int, l: int = 0) -> int:
    """dim ker(d_k) - rank(d_(k-1)); 0 above the top degree dim g, where
    there are no cochains."""
    if k < 0:
        raise ValueError("degree out of range")
    if k > pair.dim_g:
        return 0
    d_k = diff_matrix(pair, module, k, l)
    kernel = d_k.cols - rref(d_k)[2]
    if k == 0:
        return kernel
    d_prev = diff_matrix(pair, module, k - 1, l)
    return kernel - rref(d_prev)[2]


def cohomology_representatives(pair: LiePair, module: GModule, k: int, l: int = 0):
    """(dimension, representative cochains) with a deterministic rref-based choice.

    Representatives are the kernel basis vectors that add new pivots once the
    coboundary space has been rref-reduced.
    """
    d_k = diff_matrix(pair, module, k, l)
    kernel = nullspace_basis(d_k)
    image_rows = []
    if k > 0:
        d_prev = diff_matrix(pair, module, k - 1, l)
        src_dim = d_prev.cols
        for col in range(src_dim):
            vec = d_prev.col(col)
            if not vec_is_zero(vec):
                image_rows.append(vec)
    reps = []
    rows = list(image_rows)
    current_rank = rref(Matrix.from_rows(rows))[2] if rows else 0
    for v in kernel:
        candidate = rows + [v]
        new_rank = rref(Matrix.from_rows(candidate))[2]
        if new_rank > current_rank:
            reps.append(Cochain(pair, module, k, l, list(v)))
            rows = candidate
            current_rank = new_rank
    return len(reps), reps
