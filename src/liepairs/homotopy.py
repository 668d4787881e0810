"""Curvature towers, multibrackets, homotopy witnesses and identity sweeps.

The tower starts from the obstruction cocycle of the quotient connection and
grows by the mixed covariant derivative that prepends one quotient argument.
All identities this library verifies are evaluated exactly, with the sign
conventions fixed once:

  * the prepending derivative carries (-1)^k on a degree-k input;
  * the arity-k bracket carries (-1)^(sum of exterior degrees);
  * shuffle sums permute the first k-1 arguments only, the k-th stays put.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import prod
from types import MappingProxyType

from .ce import (
    Cochain,
    Connection,
    _acting,
    _add_permuted,
    _ce_into,
    _ce_sum,
    _ce_table,
    _form_at,
    _form_index,
    _form_starts,
    _merge_table,
    _summed,
    atiyah_cocycle,
    ce_diff,
    curvature,
    end_connection,
)
from .lie_core import (
    GAlgebra,
    GModule,
    LiePair,
    check_g_algebra,
    end_module,
    tensor_module,
    trivial_module,
)
from .multilinear import exterior_basis, _shuffles
from .scalars import GaussScalar, ONE, _flush, _scatter, _sum


class ArityBeyondTower(Exception):
    """A bracket of arity beyond the built tower depth was requested."""


class NotCommutativeAlgebra(Exception):
    """The coefficient algebra failed its commutativity/derivation checks."""


# -- splitting tensors ----------------------------------------------------------


class SplittingTensors:
    """The three tensors a splitting and a connection on B determine:
    delta[b] : g -> g, the projected bracket with the lifted b;
    beta[b1][b2] in B, the torsion of the connection on B;
    omega[b1][b2] in End(B), its curvature on complement pairs.
    """

    __slots__ = ("delta", "beta", "omega")

    def __init__(self, delta, beta, omega):
        self.delta = delta
        self.beta = beta
        self.omega = omega


def splitting_tensors(pair: LiePair, conn_b: Connection) -> SplittingTensors:
    m, nb = pair.dim_g, pair.dim_b
    delta = [pair.d.ad(m + b, 0, m) for b in range(nb)]
    beta = []
    for b1 in range(nb):
        row = []
        for b2 in range(nb):
            vec = [conn_b.nabla[m + b1][out, b2]
                   - conn_b.nabla[m + b2][out, b1]
                   - pair.d.c[m + b1][m + b2][m + out]
                   for out in range(nb)]
            row.append(vec)
        beta.append(row)
    omega = [[curvature(conn_b, m + b1, m + b2) for b2 in range(nb)]
             for b1 in range(nb)]
    return SplittingTensors(delta, beta, omega)


# -- the prepending covariant derivative ----------------------------------------


def partial_nabla(w: Cochain, conn_coeff: Connection, conn_b: Connection,
                  st: SplittingTensors) -> Cochain:
    """Prepend one quotient argument: degree (k, l) -> (k, l+1).

    (-1)^k (out)(a_1..a_k; b_0, b_1..b_l) =
        nabla_{j(b_0)} w(a's; b's)
        - sum_i w(..., delta_{b_0} a_i, ...; b's)
        - sum_s w(a's; ..., nabla_{j(b_0)} b_s, ...).
    """
    return _summed(w.pair, w.module, w.k, w.l + 1, _nabla_into, w,
                   conn_coeff, conn_b, st)


def _nabla_into(acc, w, conn_coeff: Connection, conn_b: Connection,
                st: SplittingTensors):
    """acc += partial_nabla(w) (see the kernel protocol in ce), read off a
    table of ce._ce_table's shape by _ce_sum: b0 prepended as the leading
    B-index moves every term by b0 blocks of w's form.  So per input form
    gi and per b0, one (off, value, slots) move applies nabla_{j(b0)} to
    the value and its dual on B to the slots (see _acting), and the form
    terms apply delta_{b0} as a derivation of Lambda g*: e^gi = s1 e^a_new
    ^ e^rest and e^a_old ^ e^rest = s2 e^J, read off _merge_table, give
    -s1 * s2 * delta_{b0}[a_new, a_old] at J.  (-1)^k is in every
    coefficient."""
    pair, k, l = w.pair, w.k, w.l
    m, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    stride = nb ** l * dim_e
    weights = [nb ** (l - 1 - slot) for slot in range(l)]
    sign = -1 if k % 2 else 1
    strips = [[] for _ in exterior_basis(m, k)]
    for column in zip(*_merge_table(m, 1, k - 1)):
        for a_new, strip in enumerate(column):
            if strip is not None:
                strips[strip[0]] += [(a_new * m + a_old, wedge[0],
                                      -sign * strip[1] * wedge[1])
                                     for a_old, wedge in enumerate(column)
                                     if wedge is not None]
    moves = [[] for _ in strips]
    forms = [[] for _ in strips]
    for b0 in range(nb):
        acting = _acting(conn_coeff.nabla[m + b0], conn_b.nabla[m + b0],
                         weights, sign)
        dl = st.delta[b0].data
        for gi, row in enumerate(strips):
            moves[gi].append(((gi * nb + b0) * stride,) + acting)
            forms[gi] += [((g_out * nb + b0) * stride, s * x.re, s * x.im)
                          for ij, g_out, s in row if (x := dl[ij])]
    _ce_sum(acc, (moves, forms, weights, nb, stride, dim_e), w.entries)


# -- the tower -------------------------------------------------------------------


class BracketTower:
    """The family of multilinear curvature derivatives, plus module analogues.

    The brackets read R_n, S_n and the torsion through their slices.  A plain
    tower forms its slices afresh at every call, so a bracket called on it
    reads it as it stands.  A verify run's checks share one cached view
    instead (see cached_view): its memo holds the state of the run, each part
    formed once, by the first check that needs it (see once):

      * the bracket slices;
      * the B-valued tensors: the torsion, d R_n, the composites
        R_i o_slot R_j and the shuffle coherence tensors (R_n is the tower's
        own);
      * each side's effective module for each coefficient algebra, and the
        term table of its differential in each degree, and the same for the
        trivial module that forms are differentiated on (see _side_tables);
      * the first failure, or None, of each lemma instance (see
        _lemma_failures), and the coefficient algebra's check_g_algebra
        violations under ("algebra", algebra) (see _sweep; `liepairs verify`
        puts there the violations its validation gate found for the named
        algebra, so a run checks each algebra once).

    verify_leibniz, verify_module and check_proof_identities read the view
    they are given, or make a fresh one from a plain tower; `liepairs verify`
    hands one view to all three."""

    __slots__ = ("pair", "conn_b", "depth", "st", "r", "module", "conn_e", "s",
                 "memo")

    def __init__(self, pair, conn_b, depth, st, r, module=None, conn_e=None,
                 s=None):
        self.pair = pair
        self.conn_b = conn_b
        self.depth = depth
        self.st = st
        self.r = r
        self.module = module
        self.conn_e = conn_e
        self.s = s
        # None on a plain tower, a dict on a cached view
        self.memo = None

    def cached_view(self):
        """A view of this tower, sharing its tensors, that forms each part of
        a run's state once: a tensor changed in place afterwards is not seen.
        A view is its own cached view."""
        if self.memo is not None:
            return self
        view = BracketTower(self.pair, self.conn_b, self.depth, self.st,
                            self.r, self.module, self.conn_e, self.s)
        view.memo = {}
        return view

    def once(self, key, build):
        """build(), kept under key on a cached view; a plain tower calls it
        every time."""
        if self.memo is None:
            return build()
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def side_module(self, side):
        """The module of a side: "v" is B, "w" the tower's module side, and
        "1" the trivial module, on which forms are differentiated."""
        if side == "1":
            return trivial_module(self.pair.dim_g, 1)
        return self.pair.quotient_module() if side == "v" else self.module

    def r_slice(self, n):
        """R_n's nonzeros grouped by b-index (see _slices)."""
        return self.once(("r_slice", n), lambda: _slices(self.r[n]))

    def s_slice(self, n):
        """The same for S_n, each key ending with the module input index."""
        return self.once(("s_slice", n),
                         lambda: _slices(self.s[n], self.module.dim))

    def beta_slice(self):
        """The same for the torsion, whose forms are empty."""
        return self.once("beta_slice", lambda: _slices(self.torsion()))

    def torsion(self):
        """The torsion as a cochain (see _torsion_cochain)."""
        return self.once("torsion", lambda: _torsion_cochain(self))

    def d(self, n):
        """d R_n, of bidegree (2, n)."""
        return self.once(("d", n), lambda: _summed(
            self.pair, self.pair.quotient_module(), 2, n, _ce_into, self.r[n]))

    def composite(self, i, j, slot):
        """R_i o_slot R_j, of bidegree (2, i + j - 1)."""
        return self.once(("o", i, j, slot), lambda: compose_cochains(
            self.r[i], self.r[j], slot))

    def coherence(self, n):
        """The degree-n shuffle coherence tensor, of bidegree (2, n) (see
        _coherence_into)."""
        return self.once(("coherence", n), lambda: _summed(
            self.pair, self.pair.quotient_module(), 2, n, _coherence_into,
            self, n))


def _slices(w: Cochain, dim_in=None):
    """(w.k, {b-index: [(exterior index, out, coeff)]}), w's nonzeros as
    hits by b-index.  An End-valued w acts on a dim_in-dimensional space:
    its key is b-index * dim_in + the input index of its value, and out the
    output index."""
    dim_e, b_radix, dim_in = w.module.dim, w.b_count(), dim_in or 1
    slices = {}
    for pos, c in w.entries.items():
        if c.re or c.im:
            rest, f = divmod(pos, dim_e)
            gi, bi = divmod(rest, b_radix)
            out, e_in = divmod(f, dim_in)
            slices.setdefault(bi * dim_in + e_in, []).append((gi, out, c))
    return w.k, slices


def _slice_element(pair, mdim, k, hits, cdim=None, cterms=None):
    """The element of the hits (see _slices) of form degree k, each times
    each coefficient of cterms {algebra index: coeff} (by default, once)."""
    start = _form_starts(pair.dim_g)[k]
    return _element(pair, mdim, cdim, {
        ((start + gi) * mdim + o) * (cdim or 1) + t: c * cv
        for gi, o, c in hits for t, cv in (cterms or {0: ONE}).items()})


def _torsion_cochain(tower: BracketTower) -> Cochain:
    """The torsion beta as a B-valued (0, 2) cochain, listed in flat order:
    b1, b2, then the value."""
    pair = tower.pair
    return Cochain(pair, pair.quotient_module(), 0, 2,
                   [x for row in tower.st.beta for vec in row for x in vec])


def _unfold_end(w: Cochain) -> Cochain:
    """Turn an End(B)-valued (k, l) cochain into a B-valued (k, l+1) one: the
    value at row*dim_b + col moves to value row, with col as the new last
    quotient argument."""
    nb = w.pair.dim_b
    out = Cochain(w.pair, w.pair.quotient_module(), w.k, w.l + 1)
    out.entries = {(pos // nb ** 2 * nb + pos % nb) * nb + pos // nb % nb: c
                   for pos, c in w.entries.items()}
    return out


def build_tower(pair: LiePair, conn_b: Connection, depth: int = 4,
                module: GModule = None, conn_e: Connection = None) -> BracketTower:
    """Tower of depth >= 2 over a connection on B, optionally with a module side."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if conn_b.module.dim != pair.dim_b:
        raise ValueError("conn_b must live on the quotient module")
    st = splitting_tensors(pair, conn_b)
    r = {2: _unfold_end(atiyah_cocycle(conn_b))}
    for n in range(2, depth):
        r[n + 1] = partial_nabla(r[n], conn_b, conn_b, st)
    s = None
    if module is not None:
        if conn_e is None:
            raise ValueError("a module side needs its connection")
        s = {2: atiyah_cocycle(conn_e)}
        conn_end = end_connection(conn_e)
        for n in range(2, depth):
            s[n + 1] = partial_nabla(s[n], conn_end, conn_b, st)
    return BracketTower(pair, conn_b, depth, st, r, module, conn_e, s)


# -- graded elements -------------------------------------------------------------


class GradedElement:
    """Sparse element of (+)_k Lambda^k g* (x) M, optionally (x) C.

    entries maps a flat position to a nonzero value, as Cochain.entries
    does: (form, value index, algebra index) sits at (F * dim M + value
    index) * dim C + algebra index, F the form's degree-major index (see
    ce._form_starts), dim C = 1 without an algebra.  So an element may mix
    degrees, and flat order is (degree, form, value, algebra).  terms is the
    decoded view, keyed (g-tuple, value index[, algebra index]), the keys
    that basis, the terms argument and add_term encode.
    """

    __slots__ = ("pair", "mdim", "cdim", "entries")

    def __init__(self, pair, mdim, cdim=None, terms=None):
        self.pair = pair
        self.mdim = mdim
        self.cdim = cdim
        self.entries = {self._position(key): val
                        for key, val in (terms or {}).items() if val}

    @classmethod
    def basis(cls, pair, mdim, g_tuple, midx, cdim=None, cidx=None):
        key = (tuple(g_tuple), midx) if cdim is None \
            else (tuple(g_tuple), midx, cidx)
        return cls(pair, mdim, cdim, {key: ONE})

    def _position(self, key):
        return ((_form_index(self.pair.dim_g, key[0]) * self.mdim + key[1])
                * (self.cdim or 1) + (key[2] if self.cdim is not None else 0))

    @property
    def terms(self):
        """The decoded view {key: value}, read-only, in flat order."""
        n, cd, decoded = self.pair.dim_g, self.cdim or 1, {}
        for pos, val in sorted(self.entries.items()):
            f, at = divmod(pos, self.mdim * cd)
            k, gi = _form_at(n, f)
            decoded[(exterior_basis(n, k)[gi],)
                    + (divmod(at, cd) if self.cdim else (at,))] = val
        return MappingProxyType(decoded)

    def _like(self, entries):
        return _element(self.pair, self.mdim, self.cdim, entries)

    def is_zero(self):
        return not self.entries

    def degree(self):
        """Exterior degree of a homogeneous element (0 for the zero element)."""
        dim = self.mdim * (self.cdim or 1)
        degrees = {_form_at(self.pair.dim_g, pos // dim)[0]
                   for pos in self.entries}
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous")
        return degrees.pop() if degrees else 0

    def add_term(self, key, val):
        pos = self._position(key)
        old = self.entries.pop(pos, None)
        self.entries.update(_sum(({pos: val}, 1),
                                 ({pos: old} if old else {}, 1)))

    def __add__(self, other):
        return self._like(_sum((self.entries, 1), (other.entries, 1)))

    def __sub__(self, other):
        return self._like(_sum((self.entries, 1), (other.entries, -1)))

    def __neg__(self):
        return self.scale(GaussScalar(-1))

    def scale(self, s):
        return self._like({pos: s * v for pos, v in self.entries.items()}
                          if s else {})

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.terms == other.terms

    def first_term(self):
        """The witness (key, value): the least key by form degree, then by
        the str of each index, so that index 10 comes before index 2."""
        return min(self.terms.items(), default=None, key=lambda item: (
            len(item[0][0]),) + tuple(map(str, item[0])))

    def __repr__(self):
        return "GradedElement(%d terms)" % len(self.entries)


def _element(pair, mdim, cdim, entries):
    """The GradedElement of that shape holding entries."""
    out = GradedElement(pair, mdim, cdim)
    out.entries = entries
    return out


def _effective_module(base: GModule, algebra) -> GModule:
    return base if algebra is None else tensor_module(base, algebra.module)


def graded_diff(pair: LiePair, base_module: GModule, el: GradedElement,
                algebra: GAlgebra = None) -> GradedElement:
    """Unary bracket: the cochain differential applied term by term."""
    module = _effective_module(base_module, algebra)
    return _diff(lambda k: _ce_table(pair, module, k, 0), el)


def _side_tables(tower, side, algebra):
    """_diff's table_of on side's effective module, the module its elements
    are differentiated on: the side's module, tensored with the algebra's
    when there is one.  The module and each degree's table are kept on a
    cached view, built once per run."""
    module = tower.once(("effective", side, algebra), lambda:
                        _effective_module(tower.side_module(side), algebra))
    return lambda k: tower.once(("diff_table", side, algebra, k),
                                lambda: _ce_table(tower.pair, module, k, 0))


def _diff(table_of, el) -> GradedElement:
    """graded_diff through table_of(k), the term table (see ce._ce_table) of
    the effective module in degree k: the terms of degree k sit at the flat
    positions of a (k, 0)-cochain on it shifted by the forms of lower
    degree, and are summed as d of a cochain is."""
    n, dim_e = el.pair.dim_g, el.mdim * (el.cdim or 1)
    starts = _form_starts(n)
    by_degree = {}
    for pos, val in el.entries.items():
        k = _form_at(n, pos // dim_e)[0]
        by_degree.setdefault(k, {})[pos - starts[k] * dim_e] = val
    out = el._like({})
    for k, entries in by_degree.items():
        acc, shift = ({}, {}), starts[k + 1] * dim_e
        _ce_sum(acc, table_of(k), entries)
        for pos, c in _flush(acc).items():
            out.entries[pos + shift] = c
    return out


def _contract(slices, args, signed, mdim, algebra=None) -> GradedElement:
    """The contraction behind every multibracket and homotopy witness.

    Each argument's terms are grouped by form, and each choice of one form
    per argument is wedged once, left to right; then each choice of one
    term per form is looked up in slices (see _slices) by its value indices
    read as digits, base dim B and the last one base mdim, and each hit's
    form is wedged on.  Every wedge is read off _merge_table.  The sign is
    the product of the merge signs and (-1)^(form degree) of the form
    chosen for each argument whose position is in signed.  With an algebra,
    the terms' algebra indices are multiplied in argument order (see
    GAlgebra.basis_products), and a zero product skips the choice.
    """
    pair, (kt, by_key), last = args[0].pair, slices, len(args) - 1
    n, nb = pair.dim_g, pair.dim_b
    cdim = algebra.dim if algebra is not None else None
    groups = []
    for i, arg in enumerate(args):
        weight = mdim * nb ** (last - 1 - i) if i < last else 1
        acd = arg.cdim or 1
        by_form = {}
        for pos, val in arg.entries.items():
            f, at = divmod(pos, arg.mdim * acd)
            v, c = divmod(at, acd)
            by_form.setdefault(f, []).append((v * weight, c, val))
        groups.append([(_form_at(n, f), terms)
                       for f, terms in by_form.items()])
    acc = {}, {}
    for choice in product(*groups):
        (km, gm), sign = choice[0][0], 1
        for (k, gi), _ in choice[1:]:
            step = _merge_table(n, km, k)[gm][gi]
            if step is None:
                break
            km, gm, sign = km + k, step[0], sign * step[1]
        else:
            if km + kt > n:
                continue
            if sum(choice[i][0][0] for i in signed) % 2:
                sign = -sign
            row, start = _merge_table(n, km, kt)[gm], _form_starts(n)[km + kt]
            for picks in product(*[terms for _, terms in choice]):
                hits = by_key.get(sum([pick[0] for pick in picks]))
                if not hits:
                    continue
                vr, vi = sign, 0
                for _, _, val in picks:
                    vr, vi = (vr * val.re - vi * val.im,
                              vr * val.im + vi * val.re)
                terms = [(((start + hit[0]) * mdim + out) * (cdim or 1),
                          hit[1] * c.re, hit[1] * c.im)
                         for gi, out, c in hits if (hit := row[gi])]
                if cdim is None:
                    _scatter(acc, terms, vr, vi)
                    continue
                found = algebra.basis_products([(pick[1],) for pick in picks])
                for t, cv in (found[0][1].items() if found else ()):
                    _scatter(acc, [(p + t, xr, xi) for p, xr, xi in terms],
                             vr * cv.re - vi * cv.im, vr * cv.im + vi * cv.re)
    return _element(pair, mdim, cdim, _flush(acc))


def lambda_k(tower: BracketTower, args,
             algebra: GAlgebra = None) -> GradedElement:
    """Arity-k bracket on Lambda g* (x) B (x C): graded_diff at k = 1, and
    for k >= 2 wedge the forms and apply the k-th tower tensor, with the
    printed (-1)^(sum of form degrees) prefix."""
    k = len(args)
    if k == 0:
        raise ValueError("need at least one argument")
    if k == 1:
        return _diff(_side_tables(tower, "v", algebra), args[0])
    if k > tower.depth:
        raise ArityBeyondTower("arity %d exceeds tower depth %d"
                               % (k, tower.depth))
    return _contract(tower.r_slice(k), args, range(k), tower.pair.dim_b,
                     algebra)


def mu_k(tower: BracketTower, vargs, w: GradedElement,
         algebra: GAlgebra = None) -> GradedElement:
    """Module bracket of arity len(vargs) + 1; the module element comes last
    and its form degree is included in the sign prefix as printed."""
    if tower.module is None:
        raise ValueError("tower was built without a module side")
    k = len(vargs) + 1
    if k == 1:
        return _diff(_side_tables(tower, "w", algebra), w)
    if k > tower.depth:
        raise ArityBeyondTower("arity %d exceeds tower depth %d"
                               % (k, tower.depth))
    return _contract(tower.s_slice(k), list(vargs) + [w], range(k),
                     tower.module.dim, algebra)


# -- the two-argument homotopy bracket and its witnesses --------------------------


def two_bracket(tower: BracketTower, v1: GradedElement,
                v2: GradedElement) -> GradedElement:
    """Binary bracket normalized with (-1)^(second form degree)."""
    return _contract(tower.r_slice(2), (v1, v2), (1,), tower.pair.dim_b)


def theta_witness(tower: BracketTower, v1: GradedElement,
                  v2: GradedElement) -> GradedElement:
    """Skew-symmetrization witness: (-1)^(first degree) forms wedged onto the
    torsion tensor."""
    return _contract(tower.beta_slice(), (v1, v2), (0,), tower.pair.dim_b)


def xi_witness(tower: BracketTower, v0, v1, v2) -> GradedElement:
    """Jacobiator witness: (-1)^(deg0 + deg2) forms wedged onto the ternary
    tower tensor."""
    if 3 not in tower.r:
        raise ArityBeyondTower("ternary witness needs depth >= 3")
    return _contract(tower.r_slice(3), (v0, v1, v2), (0, 2),
                     tower.pair.dim_b)


# -- sweeps -------------------------------------------------------------------------


class VerifyReport:
    """Outcome of an identity sweep: how many tuples ran, which violated."""

    def __init__(self, identity):
        self.identity = identity
        self.checked = 0
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def add_violation(self, n, tuple_keys, witness, identity=None):
        key, val = witness
        self.violations.append({
            "identity": identity or self.identity,
            "n": n,
            "tuple": tuple_keys,
            "witness": repr(key),
            "residual": str(val),
        })

    def __repr__(self):
        return "VerifyReport(%s: %d checked, %d violations)" % (
            self.identity, self.checked, len(self.violations))


def _forms(dim_g: int, degree_cap: int):
    """Basis forms of Lambda g* up to the degree cap, in sweep order."""
    return [gt for k in range(min(degree_cap, dim_g) + 1)
            for gt in exterior_basis(dim_g, k)]


def _basis_elements(pair: LiePair, mdim: int, degree_cap: int,
                    algebra: GAlgebra = None):
    """Basis-decomposable elements of Lambda g* (x) M (x C) up to degree cap,
    for an mdim-dimensional M: one per flat position, in flat order."""
    cdim = algebra.dim if algebra is not None else None
    forms = _form_starts(pair.dim_g)[min(degree_cap, pair.dim_g) + 1]
    return [_element(pair, mdim, cdim, {pos: ONE})
            for pos in range(forms * mdim * (cdim or 1))]


# -- factoring through Omega_A-multilinearity ------------------------------------


def _wedge(omega, el: GradedElement, sign=1) -> GradedElement:
    """sign * omega ^ el: the sorted form tuple omega wedged onto the left of
    every term of el, each wedge read off _merge_table."""
    n, dim = el.pair.dim_g, el.mdim * (el.cdim or 1)
    starts, ko = _form_starts(n), len(omega)
    go = _form_index(n, omega) - starts[ko]
    out = el._like({})
    for pos, val in el.entries.items():
        f, at = divmod(pos, dim)
        k, gi = _form_at(n, f)
        step = _merge_table(n, ko, k)[go][gi]
        if step is not None:
            out.entries[(starts[ko + k] + step[0]) * dim + at] = \
                val if sign * step[1] > 0 else -val
    return out


def _decorated(forms, pools, nonzero, dim_g):
    """Decide the tuples that carry forms from their degree-0 residuals.

    Write omega.x for x with the form omega wedged onto the left of its terms,
    and Omega = omega_1 ^ ... ^ omega_n, merged left to right.  Two facts hold
    whatever the tower tensors are (_lemma_failures checks both exactly):

      (D) d(omega.x) = d(omega).x + (-1)^|omega| omega.d(x);
      (C) _contract(.., omega.x_i, ..) = (-1)^(|omega| (s_i + |x_1| + .. +
          |x_(i-1)|)) omega._contract(x), with s_i = 1 when position i is
          signed: the forms are merged left to right, so omega passes the
          forms of the earlier arguments and nothing else.

    So on degree-0 entries b_i every residual R factors through the wedge:
    R(omega_1.b_1, .., omega_n.b_n) = s * Omega ^ R(b_1, .., b_n), and the
    d(omega) terms cancel by the Leibniz rule of d on Lambda g*.  The sign s
    depends only on the form degrees k_i:

      * generalized Jacobi, on the Leibniz and the module side, s = +1.
        lambda_k and mu_k sign every position and their tensors carry one
        form, so pulling Omega_in out of an inner bracket costs
        (-1)^|Omega_in|, pulling Omega out of the outer one (-1)^|Omega|, and
        passing the later omegas over the inner bracket's form
        (-1)^(k_(k+1) + .. + k_n).  Reordering the shuffled omegas costs the
        Koszul sign of the shuffle, which cancels the one in the sum.  With
        the front sign (-1)^(front degrees) the exponents add to 2|Omega|.
      * skew-symmetry homotopy, s = (-1)^k_2.  The binary bracket signs
        position 1, so <omega_1.b_1, omega_2.b_2> = (-1)^k_2 Omega ^
        <b_1, b_2>, and the swapped term times tau(k_1, k_2) =
        (-1)^((k_1 + 1)(k_2 + 1)) is (-1)^k_2 tau(0, 0) Omega ^ <b_2, b_1>.
        theta signs position 0: theta(omega_1.b_1, omega_2.b_2) =
        (-1)^k_1 Omega ^ theta(b_1, b_2), d adds (-1)^|Omega| by (D), and in
        theta(d(omega_1.b_1), .) and theta(., d(omega_2.b_2)) the signs of d
        and of passing omega_2 over the form of d(b_1) bring each term to
        (-1)^k_2 times its degree-0 value.
      * Jacobi homotopy, s = (-1)^k_1.  The three nested binary terms and
        the four xi terms (xi signs positions 0 and 2) each come to (-1)^k_1
        times their degree-0 value in the same way, tau sign included.

    The two homotopy witnesses report only the first failing tuple in
    product order.  An element's index there is (form index) * (pool size) +
    (pool index), so a tuple with forms comes after its degree-0 part, which
    fails whenever it does: they read degree-0 tuples alone, off tensors the
    run holds (see check_proof_identities).  The skew-symmetry residual on
    (b_1, b_2) is the torsion_antisymmetrization residual at (b_1, b_2), and
    the Jacobi residual on (b_0, b_1, b_2) is minus the arity-3 shuffle
    coherence tensor there.

    The entries come from forms x pools[i], in that order; nonzero maps a
    tuple of pool indices to its nonzero degree-0 generalized-Jacobi residual
    (forms of degree 2).  Yields (form indices, pool indices, residual) for
    every tuple with a nonzero residual (s = +1), in product order.  Tuples
    whose degree-0 residual is zero are never visited.
    """
    n = len(pools)
    forms = [(len(form), _form_index(dim_g, form)
              - _form_starts(dim_g)[len(form)]) for form in forms]
    nexts = {}
    for bs in nonzero:
        for p in range(n):
            nexts.setdefault(bs[:p], set()).add(bs[p])
    nexts = {prefix: sorted(bs) for prefix, bs in nexts.items()}

    def walk(fs, bs, merged, sign):
        km, gm = merged
        if len(bs) == n:
            res = _wedge(exterior_basis(dim_g, km)[gm], nonzero[bs], sign)
            if not res.is_zero():
                yield fs, bs, res
            return
        following = nexts.get(bs)
        if not following:
            return
        for f, (k, gi) in enumerate(forms):
            step = _merge_table(dim_g, km, k)[gm][gi]
            if step is None or km + k + 2 > dim_g:
                continue
            for b in following:
                yield from walk(fs + (f,), bs + (b,), (km + k, step[0]),
                                sign * step[1])

    return walk((), (), (0, 0), 1)


def _lemma_failures(tower, forms, sides, brackets, algebra=None):
    """Check the two facts behind _decorated exactly; return the first
    failure of each as (lemma, arity, where, residual).

    graded_diff_derivation is (D) on each side named in sides, "v" for
    B-valued and "w" for module-valued elements (see _derivation_failure);
    contract_form_linearity is (C) for each bracket in brackets, a list of
    (name, signed positions, bracket(args), side of each argument) (see
    _linearity_failure).  Each instance, one side or one bracket, is checked
    once per run for its algebra and form cap: the run's view, tower, keeps
    its first failure, or None, and every later check of the run reads it
    there.  Nothing is checked when forms has degree 0 only.
    """
    cap = len(forms[-1])
    if not cap:
        return []
    derivation = [((side,), partial(_derivation_failure, tower, side, forms,
                                    algebra))
                  for side in sides]
    linearity = [((bracket[0],), partial(_linearity_failure, tower, bracket,
                                         forms, algebra))
                 for bracket in brackets]
    out = []
    for lemma, instances in (("graded_diff_derivation", derivation),
                             ("contract_form_linearity", linearity)):
        hits = (tower.once((lemma,) + key + (algebra, cap), check)
                for key, check in instances)
        hit = next(filter(None, hits), None)
        if hit is not None:
            out.append((lemma,) + hit)
    return out


def _derivation_failure(tower, side, forms, algebra):
    """The first failure of (D) on one side, as (arity, where, residual), or
    None: every basis form omega of positive degree in forms against every
    basis element x up to the cap, each differentiated on the side's
    effective module (see _side_tables), and d omega on the trivial module
    "1", whose tables the view keeps as well."""
    pair, cap = tower.pair, len(forms[-1])
    table_of = _side_tables(tower, side, algebra)
    d_form = _side_tables(tower, "1", None)
    d_omegas = {w: _diff(d_form, GradedElement.basis(pair, 1, w, 0)).terms
                for w in forms if w}
    for x in _basis_elements(pair, tower.side_module(side).dim, cap,
                             algebra):
        dx = _diff(table_of, x)
        for w, dw in d_omegas.items():
            res = _diff(table_of, _wedge(w, x))
            res = res - _wedge(w, dx, -1 if len(w) % 2 else 1)
            for (form, _), c in dw.items():
                res = res - _wedge(form, x).scale(c)
            if not res.is_zero():
                return 1, [w, x.first_term()[0]], res
    return None


def _linearity_failure(tower, bracket, forms, algebra):
    """The first failure of (C) for one bracket, as (arity, where, residual),
    or None: in every position and for every basis form omega of positive
    degree in forms, on two argument tuples: the degree-0 basis elements of
    each position's side summed with distinct coefficients, and the same
    tuple with its first entry wedged onto the first basis 1-form."""
    name, signed, evaluate, arg_sides = bracket
    pair = tower.pair
    cdim = algebra.dim if algebra is not None else None
    omegas = [w for w in forms if w]
    plain = []
    for side in arg_sides:
        # its degree-0 basis elements, in order, sit at positions 0, 1, ..
        mdim = tower.side_module(side).dim
        plain.append(_element(pair, mdim, cdim, {
            pos: GaussScalar(pos + 1) for pos in range(mdim * (cdim or 1))}))
    for args in (plain, [_wedge(omegas[0], plain[0])] + plain[1:]):
        base = evaluate(args)
        before = 0
        for i, arg in enumerate(args):
            for w in omegas:
                odd = len(w) * ((i in signed) + before) % 2
                res = evaluate(args[:i] + [_wedge(w, arg)] + args[i + 1:]) \
                    - _wedge(w, base, -1 if odd else 1)
                if not res.is_zero():
                    return len(args), [name, i, w], res
            before += arg.degree()
    return None


def _degree0_residuals(tower, n, module_side=False, algebra=None):
    """The nonzero map _decorated reads at arity n, keyed by tuples of pool
    indices.  At n = 1 it holds d(d(x_i)) for each degree-0 basis element
    x_i of the last side's pool, differentiated on that side's effective
    module.  At n >= 2 it comes from one tensor of all degree-0 residuals
    (the run's coherence tensor, or _module_into on the module side), sliced
    by tuple.  With an algebra the residual on (b_1 (x) c_1, ..) is the
    slice at b times c_1 .. c_n, multiplied in argument order, and a tuple
    whose product is zero is never formed (see GAlgebra.basis_products); its
    pool indices are b_i * dim C + c_i.  A plain tower is read through a fresh
    cached view."""
    tower = tower.cached_view()
    pair = tower.pair
    if n == 1:
        side = "w" if module_side else "v"
        table_of = _side_tables(tower, side, algebra)
        pool = _basis_elements(pair, tower.side_module(side).dim, 0, algebra)
        return {(i,): res for i, x in enumerate(pool)
                if not (res := _diff(table_of, _diff(table_of, x))).is_zero()}
    tensor = _summed(pair, tower.s[n].module, 2, n - 1, _module_into, tower,
                     n) if module_side else tower.coherence(n)
    dim_in = tower.module.dim if module_side else None
    mdim = dim_in or pair.dim_b
    k, slices = _slices(tensor, dim_in)
    cdim = algebra.dim if algebra is not None else None
    products = [((0,) * n, None)] if algebra is None \
        else algebra.basis_products([range(cdim)] * n)
    out = {}
    for key, hits in slices.items():
        # the key's digits: the b-index's, then the module input index
        bt = []
        for radix in [mdim] + [pair.dim_b] * (n - 1):
            key, digit = divmod(key, radix)
            bt.insert(0, digit)
        for cs, cterms in products:
            out[tuple(b * (cdim or 1) + c for b, c in zip(bt, cs))] = \
                _slice_element(pair, mdim, k, hits, cdim, cterms)
    return out


def _sweep(tower: BracketTower, identity, max_n, degree_cap, last, brackets,
           algebra: GAlgebra = None) -> VerifyReport:
    """Residual sweep over every basis tuple of arity n <= max_n up to the
    degree cap whose first n - 1 entries are B-valued and whose last entry
    lies on the side named last ("v" or "w"), on tower, the run's cached
    view.

    The degree-0 residuals of each arity come from _degree0_residuals: d(d(x))
    of each basis element at n = 1, one tensor per arity, formed once per
    run, for n >= 2.  Every tuple with forms is decided through the wedge
    (see _decorated), so checked counts the tuples by arithmetic.  The two
    lemmas the factoring rests on are checked first, over the brackets named
    in brackets, each instance once per run (see _lemma_failures); a failing
    lemma is reported as a violation under its own name.
    """
    if max_n > tower.depth:
        raise ArityBeyondTower("max_n %d exceeds tower depth %d"
                               % (max_n, tower.depth))
    pair = tower.pair
    if algebra is not None:
        found = tower.once(("algebra", algebra), lambda: check_g_algebra(
            pair.g_algebra(), algebra).entries)
        if found:
            raise NotCommutativeAlgebra(found[0])
    report = VerifyReport(identity)
    forms = _forms(pair.dim_g, degree_cap)
    sides = ["v"] if last == "v" else ["v", last]
    for lemma, n, where, res in _lemma_failures(tower, forms, sides, brackets,
                                                algebra):
        report.add_violation(n, where, res.first_term(), lemma)
    # the degree-0 basis elements of a side, by pool index = flat position
    cdim = algebra.dim if algebra is not None else None
    pools = {side: range(tower.side_module(side).dim * (cdim or 1))
             for side in sides}
    for n in range(1, max_n + 1):
        args_pools = [pools["v"]] * (n - 1) + [pools[last]]
        report.checked += len(forms) ** n * prod(map(len, args_pools))
        nonzero = _degree0_residuals(tower, n, last == "w", algebra)
        for fs, bs, res in _decorated(forms, args_pools, nonzero, pair.dim_g):
            report.add_violation(n, [
                (forms[f],) + (divmod(b, cdim) if cdim else (b,))
                for f, b in zip(fs, bs)], res.first_term())
    return report


def verify_leibniz(tower: BracketTower, max_n: int, degree_cap: int,
                   algebra: GAlgebra = None) -> VerifyReport:
    """Exhaustive residual sweep over basis-decomposable tuples.

    Multilinearity makes basis tuples a complete check at each degree profile.
    A cached view of the tower shares its state with the other checks of the
    run (see BracketTower); a plain tower is read through a fresh one.
    """
    tower = tower.cached_view()
    return _sweep(tower, "leibniz", max_n, degree_cap, "v",
                  _lambda_brackets(tower, max_n, algebra), algebra)


def verify_module(tower: BracketTower, max_n: int, degree_cap: int,
                  algebra: GAlgebra = None) -> VerifyReport:
    """Sweep of the module identity over (V, ..., V, W) basis tuples; the
    tower is read as by verify_leibniz."""
    if tower.module is None:
        raise ValueError("tower was built without a module side")
    tower = tower.cached_view()
    brackets = _lambda_brackets(tower, max_n, algebra) + [
        ("mu_%d" % k, range(k),
         lambda args: mu_k(tower, args[:-1], args[-1], algebra),
         ["v"] * (k - 1) + ["w"])
        for k in range(2, max_n + 1)]
    return _sweep(tower, "leibniz_module", max_n, degree_cap, "w", brackets,
                  algebra)


def _lambda_brackets(tower, max_n, algebra):
    """lambda_2 .. lambda_max_n as _lemma_failures brackets: every position is
    signed."""
    return [("lambda_%d" % k, range(k),
             lambda args: lambda_k(tower, args, algebra), ["v"] * k)
            for k in range(2, max_n + 1)]


# -- tensor-level proof identities ----------------------------------------------------


def compose_cochains(outer: Cochain, inner: Cochain, slot: int) -> Cochain:
    """Feed inner's value into one quotient slot of outer, shuffle-wedging the
    exterior arguments (outer block first).  slot is 1-based."""
    return _summed(outer.pair, outer.module, outer.k + inner.k,
                   outer.l + inner.l - 1, _compose_into, outer, inner, slot)


def _compose_into(acc, outer, inner, slot: int):
    """acc += compose_cochains(outer, inner, slot) (see the kernel protocol
    in ce): inner's value meets outer's slot-th B-index (see
    _product_into)."""
    nb, dim_e = outer.pair.dim_b, outer.module.dim
    tail_radix, inner_radix = nb ** (outer.l - slot), inner.b_count()

    def outer_key(b1, e):
        head, tail = divmod(b1, tail_radix)
        head, mid = divmod(head, nb)
        return mid, (head * inner_radix * tail_radix + tail) * dim_e + e
    _product_into(acc, outer, outer_key, inner,
                  lambda i2, value: (value, i2 * tail_radix * dim_e),
                  nb ** (outer.l - 1) * inner_radix * dim_e)


def _chain_into(acc, outer, inner, dim_e: int):
    """acc += outer . inner for End(E)-valued cochains, values indexed
    out * dim_e + in: inner's output feeds outer's input, arguments joined
    outer block first, forms shuffle-wedged (see _product_into)."""
    dd, inner_radix = dim_e * dim_e, inner.b_count()
    # outer meets on its input index, inner on its output index
    _product_into(
        acc, outer,
        lambda b1, f1: (f1 % dim_e, b1 * inner_radix * dd + f1 - f1 % dim_e),
        inner, lambda i2, f2: (f2 // dim_e, i2 * dd + f2 % dim_e),
        outer.b_count() * inner_radix * dd)


def _product_into(acc, outer, outer_key, inner, inner_key, g_stride):
    """The kernel behind _compose_into and _chain_into: a nonzero of outer
    (inner) at exterior index g, b-index b and value v has (key, offset) =
    outer_key(b, v) (inner_key(b, v)), and each pair with one key adds sign
    * c1 * c2 at g * g_stride + both offsets (g, sign: see _merge_table)."""
    def split(w, key_of):
        for pos, c in w.entries.items():
            rest, v = divmod(pos, w.module.dim)
            g, b = divmod(rest, w.b_count())
            yield (g,) + key_of(b, v) + (c.re, c.im)

    groups = {}
    for g2, key, offset2, br, bi in split(inner, inner_key):
        groups.setdefault(key, []).append((g2, offset2, br, bi))
    merge = _merge_table(outer.pair.dim_g, outer.k, inner.k)
    for g1, key, offset, ar, ai in split(outer, outer_key):
        row = merge[g1]
        _scatter(acc, [(step[0] * g_stride + offset + offset2, step[1] * br,
                        step[1] * bi) for g2, offset2, br, bi in
                       groups.get(key, ()) if (step := row[g2])], ar, ai)


def _torsion_into(acc, tower: BracketTower):
    """Torsion antisymmetrization, bidegree (1, 2): swapping the two slots of
    the binary tensor costs the differential of the torsion."""
    _add_permuted(acc, tower.r[2], (0, 1), (1, 0), signs=(1, -1))
    _ce_into(acc, -tower.torsion())


def _ternary_into(acc, tower: BracketTower):
    """Ternary symmetry defect, bidegree (1, 3): the swap of the first two
    slots against the torsion-fed binary tensor and the differential of the
    curvature."""
    _add_permuted(acc, tower.r[3], (0, 1, 2), (1, 0, 2), signs=(1, -1))
    # minus R_2(beta(b0, b1), b2)
    _compose_into(acc, tower.r[2], -tower.torsion(), 1)
    # plus (d omega)(b0, b1) applied to b2; omega(b1, b2)'s row-major entries
    # are the values at (b1, b2) in flat order
    b = tower.pair.quotient_module()
    omega_cochain = Cochain(tower.pair, end_module(b), 0, 2,
                            [x for row in tower.st.omega for om in row
                             for x in om.data])
    _add_permuted(acc, _unfold_end(ce_diff(omega_cochain)), (0, 1, 2))


def _coherence_into(acc, tower: BracketTower, n: int):
    """Degree-n shuffle coherence, bidegree (2, n): the differential of R_n
    against shuffle sums of nested lower tensors."""
    _add_permuted(acc, tower.d(n), range(n))
    for i in range(2, n):
        j = n + 1 - i
        for k in range(j, n + 1):
            # composite argument order: sigma's two blocks, position k, then
            # the untouched tail; one pass scatters it through all shuffles
            tail = tuple(range(k - 1, n))
            _add_permuted(acc, tower.composite(i, j, k - j + 1),
                          *[sigma + tail for sigma in _shuffles(k - j, j - 1)])


def _module_into(acc, tower: BracketTower, n: int):
    """Degree-n module coherence, End(E)-valued of bidegree (2, n - 1): d S_n
    against shuffle sums of S_i o_slot R_j and, for the inner bracket that
    holds the module argument, S_i . S_j (see _chain_into).  At
    (J; b's; out * dim E + in) it is the module identity's residual on
    (b's, e_in) at (J, out)."""
    s = tower.s
    _ce_into(acc, s[n])
    for j in range(2, n):
        for k in range(j, n + 1):
            # S_i o R_j, or S_i . S_j, flushed once to be permuted
            into, args = (_compose_into, (tower.r[j], k - j + 1)) if k < n \
                else (_chain_into, (s[j], tower.module.dim))
            part = _summed(tower.pair, s[n].module, 2, n - 1, into,
                           s[n + 1 - j], *args)
            tail = tuple(range(k - 1, n - 1))
            _add_permuted(acc, part,
                          *[sigma + tail for sigma in _shuffles(k - j, j - 1)])


def _mixed_into(acc, tower: BracketTower, n: int):
    """Degree-n mixed differential, bidegree (2, n + 1): the anticommutator
    of the two derivatives on R_n."""
    _add_permuted(acc, tower.d(n + 1), range(n + 1))
    _nabla_into(acc, tower.d(n), tower.conn_b, tower.conn_b, tower.st)
    _add_permuted(acc, tower.composite(2, n, 2), range(n + 1))
    for j in range(1, n + 1):
        # composite canonical order: b_1..b_(j-1), b_0, b_j, b_(j+1)..b_n
        perm = list(range(1, j)) + [0, j] + list(range(j + 1, n + 1))
        _add_permuted(acc, tower.composite(n, 2, j), perm)


def tensor_residuals(tower: BracketTower):
    """The tensor-level identities behind the bracket construction, as
    (name, residual) pairs in report order; every residual vanishes on a tower
    built from a valid pair and extending connection.

    Each residual is a Cochain the kernels scatter every term of into one
    accumulator, from the nonzeros of the terms, flushed once.  The tensors
    the identities share (each d R_n, each composite R_i o_slot R_j, each
    shuffle coherence tensor, which the Leibniz sweep reads too) are formed
    once per run, on the run's cached view; a plain tower is read through a
    fresh one.
    """
    tower = tower.cached_view()

    def residual(k, l, into, *args):
        return _summed(tower.pair, tower.pair.quotient_module(), k, l, into,
                       tower, *args)

    out = [("torsion_antisymmetrization", residual(1, 2, _torsion_into))]
    coherence = {n: tower.coherence(n) for n in range(3, tower.depth + 1)}
    if tower.depth >= 3:
        out.append(("ternary_symmetry_defect", residual(1, 3, _ternary_into)))
        # the nested binary coherence is the shuffle coherence at arity three
        out.append(("nested_binary_coherence", coherence[3]))
    out += [("mixed_differential_n%d" % n, residual(2, n + 1, _mixed_into, n))
            for n in range(2, tower.depth)]
    out += [("shuffle_coherence_n%d" % n, w) for n, w in coherence.items()]
    return out


def check_proof_identities(tower: BracketTower,
                           witness_degree_cap: int = 2):
    """Evaluate the named exact identities behind the bracket construction.

    Returns a list of (name, ok, witness) triples; all must hold for every
    tower built from a valid pair and extending connection.  The
    tensor-level residuals (see tensor_residuals) are compared with zero
    once each; a failing one's witness is its first nonzero entry in flat
    order, as Cochain.first_nonzero gives it.  The tower is read as by
    verify_leibniz.

    The two homotopy witnesses are read off tensors the run already holds.
    Given the two lemmas checked here for the witness brackets up to the
    degree cap, the first failing tuple is a degree-0 one (see _decorated):
    the first b-tuple in product order whose residual is nonzero, and the
    witness is that residual's first term.  On degree-0 tuples
    skew_symmetry_homotopy's residual at (b_1, b_2) is the
    torsion_antisymmetrization slice at (b_1, b_2), and jacobi_homotopy's at
    (b_0, b_1, b_2) is minus the arity-3 shuffle coherence slice, the
    tensor the Leibniz sweep reads at arity 3 (see _degree0_residuals).
    """
    tower = tower.cached_view()
    pair = tower.pair
    results = []

    def record(name, found):
        results.append((name, found is None, found))

    residuals = tensor_residuals(tower)
    for name, residual in residuals:
        record(name, residual.first_nonzero())

    # the two lemmas the homotopy witnesses factor through (see _decorated),
    # for the witness brackets up to the degree cap
    brackets = [
        ("two_bracket", (1,), lambda args: two_bracket(tower, *args),
         ["v"] * 2),
        ("theta_witness", (0,), lambda args: theta_witness(tower, *args),
         ["v"] * 2)]
    if tower.depth >= 3:
        brackets.append(("xi_witness", (0, 2),
                         lambda args: xi_witness(tower, *args), ["v"] * 3))
    for lemma, _, where, res in _lemma_failures(
            tower, _forms(pair.dim_g, min(witness_degree_cap, pair.dim_g)),
            ["v"], brackets):
        results.append((lemma, False, (where, res.first_term())))

    def first_witness(tensor, extra, sign):
        """sign times the first term of tensor's slice at its first b-tuple
        in product order, or None; extra is the slice's form degree."""
        k, slices = _slices(tensor)
        if extra > pair.dim_g or not slices:
            return None
        return _slice_element(pair, pair.dim_b, k, slices[min(slices)], None,
                              {0: GaussScalar(sign)}).first_term()

    record("skew_symmetry_homotopy", first_witness(
        dict(residuals)["torsion_antisymmetrization"], 1, 1))
    if tower.depth >= 3:
        record("jacobi_homotopy", first_witness(tower.coherence(3), 2, -1))
    return results


# -- symmetry -----------------------------------------------------------------------


def symmetry_report(tower: BracketTower):
    """Adjacent-transposition symmetry check of every tower tensor.

    When all levels pass, the antisymmetrized bracket identities coincide with
    the non-symmetric ones, i.e. the structure is symmetric-compatible.  Each
    swap's defect R_n - R_n(.., b_(p+1), b_p, ..) is formed in one pass over
    R_n's nonzeros, which stores no cancelled sum; the witness is the
    defect's first entry in flat order.
    """
    out = {}
    for n in sorted(tower.r):
        tensor = tower.r[n]
        verdict = {"fully_symmetric": True, "witness": None}
        for pos in range(n - 1):
            perm = list(range(n))
            perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
            defect = _summed(tensor.pair, tensor.module, tensor.k, n,
                             partial(_add_permuted, signs=(1, -1)), tensor,
                             range(n), perm)
            entry = defect.first_nonzero()
            if entry is not None:
                verdict["fully_symmetric"] = False
                verdict["witness"] = {"n": n, "swap_position": pos,
                                      "entry": entry}
                break
        out[n] = verdict
    out["is_symmetric_tower"] = all(
        v["fully_symmetric"] for k, v in out.items() if isinstance(k, int))
    return out

