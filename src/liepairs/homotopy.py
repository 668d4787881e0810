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

from itertools import product
from math import prod

from .atiyah import Connection, atiyah_cocycle, curvature, end_connection
from .ce import (
    Cochain,
    SparseCochain,
    _add_permuted,
    _ce_into,
    _ce_terms,
    ce_diff,
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
from .linalg import Matrix, basis_vec, zero_vec
from .multilinear import (
    exterior_basis,
    exterior_index,
    insert_with_sign,
    koszul_sign,
    merge_sign,
    _shuffles,
    tensor_index,
    tensor_tuples,
)
from .scalars import GaussScalar, ONE, ZERO


class ArityBeyondTower(Exception):
    """A bracket of arity beyond the built tower depth was requested."""


class NotCommutativeAlgebra(Exception):
    """The coefficient algebra failed its commutativity/derivation checks."""


# -- splitting tensors ----------------------------------------------------------


class SplittingTensors:
    """The four tensors a splitting and a connection on B determine:
    delta[b] : g -> g, the projected bracket with the lifted b;
    alpha_map[b1][b2] in g, the subalgebra part of complement brackets;
    beta[b1][b2] in B, the torsion of the connection on B;
    omega[b1][b2] in End(B), its curvature on complement pairs.
    """

    __slots__ = ("delta", "alpha_map", "beta", "omega")

    def __init__(self, delta, alpha_map, beta, omega):
        self.delta = delta
        self.alpha_map = alpha_map
        self.beta = beta
        self.omega = omega


def splitting_tensors(pair: LiePair, conn_b: Connection) -> SplittingTensors:
    m, nb = pair.dim_g, pair.dim_b
    delta = []
    for b in range(nb):
        cols = [pair.d.c[m + b][a][:m] for a in range(m)]
        delta.append(Matrix.from_rows([[cols[a][s] for a in range(m)]
                                       for s in range(m)])
                     if m else Matrix(0, 0, []))
    alpha_map = [[pair.d.c[m + b1][m + b2][:m] for b2 in range(nb)]
                 for b1 in range(nb)]
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
    return SplittingTensors(delta, alpha_map, beta, omega)


# -- the prepending covariant derivative ----------------------------------------


def partial_nabla(w: Cochain, conn_coeff: Connection, conn_b: Connection,
                  st: SplittingTensors) -> Cochain:
    """Prepend one quotient argument: degree (k, l) -> (k, l+1).

    (-1)^k (out)(a_1..a_k; b_0, b_1..b_l) =
        nabla_{j(b_0)} w(a's; b's)
        - sum_i w(..., delta_{b_0} a_i, ...; b's)
        - sum_s w(a's; ..., nabla_{j(b_0)} b_s, ...).
    """
    out = Cochain(w.pair, w.module, w.k, w.l + 1)
    _nabla_into(out, w, conn_coeff, conn_b, st)
    return out


def _nabla_into(total, w, conn_coeff: Connection, conn_b: Connection,
                st: SplittingTensors):
    """total += partial_nabla(w) (see ce._add_permuted for the kernels'
    protocol).  Each nonzero of w is scattered through the transpose of the
    three term families."""
    pair, k, l = w.pair, w.k, w.l
    m, nb, dim_e = pair.dim_g, pair.dim_b, w.module.dim
    data = total.data
    g_index = exterior_index(m, k)
    b_radix = nb ** l
    out_radix = nb * b_radix
    steps = [nb ** (l - 1 - slot) for slot in range(l)]
    entries = [(g_index[gt], gt, tensor_index(bt, nb), bt, e,
                -v if k % 2 else v) for gt, bt, e, v in w.iter_nonzero()]
    for b0 in range(nb):
        n_coeff = conn_coeff.nabla[m + b0].data
        n_b = conn_b.nabla[m + b0].data
        dl = st.delta[b0].data
        # the nonzeros of the three operators b0 applies, by input index
        value_terms = [[(e_out, n_coeff[e_out * dim_e + e])
                        for e_out in range(dim_e)
                        if not n_coeff[e_out * dim_e + e].is_zero()]
                       for e in range(dim_e)]
        form_terms = [[(a_old, dl[a_new * m + a_old]) for a_old in range(m)
                       if not dl[a_new * m + a_old].is_zero()]
                      for a_new in range(m)]
        slot_terms = [[(old, n_b[new * nb + old]) for old in range(nb)
                       if not n_b[new * nb + old].is_zero()]
                      for new in range(nb)]
        for gi, gt, bi, bt, e, v in entries:
            col = b0 * b_radix + bi
            # covariant derivative of the value
            dst = (gi * out_radix + col) * dim_e
            for e_out, x in value_terms[e]:
                data[dst + e_out] = data[dst + e_out] + x * v
            # exterior slots fed through delta: a_new at position q of gt
            # replaced a_old, which sits at the position its insertion sign
            # counts in the output's tuple
            for q, a_new in enumerate(gt):
                rest = gt[:q] + gt[q + 1 :]
                for a_old, x in form_terms[a_new]:
                    ins = insert_with_sign(rest, a_old)
                    if ins is None:
                        continue
                    sgn, key = ins
                    pos = (g_index[key] * out_radix + col) * dim_e + e
                    term = x * v
                    data[pos] = data[pos] + (term if (sgn < 0) != (q % 2 == 1)
                                             else -term)
            # tensor slots fed through the connection on B
            for slot, new in enumerate(bt):
                for old, x in slot_terms[new]:
                    pos = (gi * out_radix + col
                           + (old - new) * steps[slot]) * dim_e + e
                    data[pos] = data[pos] - x * v


# -- the tower -------------------------------------------------------------------


class BracketTower:
    """The family of multilinear curvature derivatives, plus module analogues."""

    __slots__ = ("pair", "conn_b", "depth", "st", "r", "module", "conn_e", "s",
                 "_r_slices", "_s_slices", "_beta_slices")

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
        self._r_slices = {}
        self._s_slices = {}
        self._beta_slices = None

    def r_slice(self, n):
        """dict: b-tuple -> list of (form, out, coeff) nonzeros of R_n."""
        if n not in self._r_slices:
            self._r_slices[n] = _slices(self.r[n])
        return self._r_slices[n]

    def s_slice(self, n):
        """The same for S_n, each key ending with the module input index."""
        if n not in self._s_slices:
            self._s_slices[n] = _slices(self.s[n], self.module.dim)
        return self._s_slices[n]

    def beta_slice(self):
        """The same for the torsion, whose forms are empty."""
        if self._beta_slices is None:
            self._beta_slices = _slices(_torsion_cochain(self))
        return self._beta_slices


def _slices(w: Cochain, dim_in=None):
    """Group w's nonzeros by b-tuple as (form, out, coeff) hits.  An
    End-valued w acts on a dim_in-dimensional space: the input index of its
    value ends the key and the output index is the hit's out."""
    slices = {}
    for gt, bt, f, c in w.iter_nonzero():
        if dim_in is not None:
            f, e_in = divmod(f, dim_in)
            bt = bt + (e_in,)
        slices.setdefault(bt, []).append((gt, f, c))
    return slices


def _torsion_cochain(tower: BracketTower) -> Cochain:
    """The torsion beta as a B-valued (0, 2) cochain."""
    pair = tower.pair
    nb = pair.dim_b
    out = Cochain(pair, pair.quotient_module(), 0, 2)
    for b1 in range(nb):
        for b2 in range(nb):
            for b_out in range(nb):
                out.set((), (b1, b2), b_out, tower.st.beta[b1][b2][b_out])
    return out


def _unfold_end(w: Cochain) -> Cochain:
    """Turn an End(B)-valued (k, l) cochain into a B-valued (k, l+1) one: the
    value at row*dim_b + col moves to value row, with col as the new last
    quotient argument."""
    pair = w.pair
    out = Cochain(pair, pair.quotient_module(), w.k, w.l + 1)
    for gt, bt, f, c in w.iter_nonzero():
        row, col = divmod(f, pair.dim_b)
        out.set(gt, bt + (col,), row, c)
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

    Keys are (g-tuple, value index) or (g-tuple, value index, algebra index).
    """

    __slots__ = ("pair", "mdim", "cdim", "terms")

    def __init__(self, pair, mdim, cdim=None, terms=None):
        self.pair = pair
        self.mdim = mdim
        self.cdim = cdim
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if not val.is_zero():
                    self.terms[key] = val

    @classmethod
    def basis(cls, pair, mdim, g_tuple, midx, cdim=None, cidx=None):
        key = (tuple(g_tuple), midx) if cdim is None \
            else (tuple(g_tuple), midx, cidx)
        return cls(pair, mdim, cdim, {key: ONE})

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        return len({len(key[0]) for key in self.terms}) <= 1

    def degree(self):
        """Exterior degree of a homogeneous element (0 for the zero element)."""
        degrees = {len(key[0]) for key in self.terms}
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous")
        return degrees.pop() if degrees else 0

    def add_term(self, key, val):
        acc = self.terms.get(key)
        acc = val if acc is None else acc + val
        if acc.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = acc

    def __add__(self, other):
        out = GradedElement(self.pair, self.mdim, self.cdim, dict(self.terms))
        for key, val in other.terms.items():
            out.add_term(key, val)
        return out

    def __sub__(self, other):
        out = GradedElement(self.pair, self.mdim, self.cdim, dict(self.terms))
        for key, val in other.terms.items():
            out.add_term(key, -val)
        return out

    def __neg__(self):
        return self.scale(GaussScalar(-1))

    def scale(self, s):
        if s.is_zero():
            return GradedElement(self.pair, self.mdim, self.cdim)
        return GradedElement(self.pair, self.mdim, self.cdim,
                             {k: s * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.terms == other.terms

    def first_term(self):
        if not self.terms:
            return None
        key = min(self.terms, key=lambda k: (len(k[0]),) + tuple(map(str, k)))
        return key, self.terms[key]

    def __repr__(self):
        return "GradedElement(%d terms)" % len(self.terms)


def _effective_module(base: GModule, algebra) -> GModule:
    return base if algebra is None else tensor_module(base, algebra.module)


def graded_diff(pair: LiePair, base_module: GModule, el: GradedElement,
                algebra: GAlgebra = None) -> GradedElement:
    """Unary bracket: the cochain differential applied term by term."""
    return _diff(pair, _effective_module(base_module, algebra), el, algebra)


def _diff(pair, module, el, algebra=None) -> GradedElement:
    """graded_diff on the effective module (base module (x) algebra)."""
    cdim = algebra.dim if algebra is not None else None
    out = GradedElement(pair, el.mdim, cdim)
    for key, val in el.terms.items():
        midx = key[1] if cdim is None else key[1] * cdim + key[2]
        for gt, _, e, c in _ce_terms(pair, module, key[0], (), midx):
            out.add_term((gt, e) if cdim is None else (gt,) + divmod(e, cdim),
                         c * val)
    return out


def _memo_diff(memo, side, pair, module, el, algebra=None):
    """graded_diff through a sweep's memo dict.  Each side ("v" for B-valued,
    "w" for module-valued elements) holds its effective module, resolved once,
    and the differentials keyed on the element's terms.

    A sweep creates the dict on entry and drops it on return, so a tower
    changed between sweeps never meets an entry computed from the old one.
    """
    if memo is None:
        return graded_diff(pair, module, el, algebra)
    if side not in memo:
        memo[side] = (_effective_module(module, algebra), {})
    effective, cache = memo[side]
    key = frozenset(el.terms.items())
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _diff(pair, effective, el, algebra)
    return hit


def _contract(slices, args, signed, mdim, algebra=None) -> GradedElement:
    """The contraction behind every multibracket and homotopy witness.

    For each choice of one term per argument, the tuple of the terms' value
    indices is looked up in slices (see BracketTower.r_slice); on a hit the
    terms' forms are wedged left to right, then each hit's form is wedged on.
    The sign is the product of the merge signs and (-1)^(form degree) of the
    term chosen from each argument whose position is in signed.  With an
    algebra, the terms' algebra indices are multiplied in argument order.
    """
    cdim = algebra.dim if algebra is not None else None
    out = GradedElement(args[0].pair, mdim, cdim)
    terms = [arg.terms for arg in args]
    for keys in product(*terms):
        hits = slices.get(tuple([key[1] for key in keys]))
        if not hits:
            continue
        merged = keys[0][0]
        coeff = terms[0][keys[0]]
        sign = 1
        for i in range(1, len(keys)):
            step = merge_sign(merged, keys[i][0])
            if step is None:
                break
            sign *= step[0]
            merged = step[1]
            coeff = coeff * terms[i][keys[i]]
        else:
            for i in signed:
                if len(keys[i][0]) % 2:
                    sign = -sign
            if cdim is not None:
                cvec = basis_vec(cdim, keys[0][2])
                for key in keys[1:]:
                    cvec = algebra.product(cvec, basis_vec(cdim, key[2]))
                cvec = [(t, cv) for t, cv in enumerate(cvec)
                        if not cv.is_zero()]
            for form, v_out, c in hits:
                ins = merge_sign(merged, form)
                if ins is None:
                    continue
                term = coeff * c
                if sign * ins[0] < 0:
                    term = -term
                if cdim is None:
                    out.add_term((ins[1], v_out), term)
                else:
                    for t, cv in cvec:
                        out.add_term((ins[1], v_out, t), term * cv)
    return out


def lambda_k(tower: BracketTower, args, algebra: GAlgebra = None,
             memo=None) -> GradedElement:
    """Arity-k bracket on Lambda g* (x) B (x C): wedge the forms, apply the
    k-th tower tensor, with the printed (-1)^(sum of form degrees) prefix.
    memo is a sweep's graded_diff memo (see _memo_diff)."""
    k = len(args)
    if k == 0:
        raise ValueError("need at least one argument")
    if k == 1:
        return _memo_diff(memo, "v", tower.pair, tower.pair.quotient_module(),
                          args[0], algebra)
    if k > tower.depth:
        raise ArityBeyondTower("arity %d exceeds tower depth %d"
                               % (k, tower.depth))
    return _contract(tower.r_slice(k), args, range(k), tower.pair.dim_b,
                     algebra)


def mu_k(tower: BracketTower, vargs, w: GradedElement,
         algebra: GAlgebra = None, memo=None) -> GradedElement:
    """Module bracket of arity len(vargs) + 1; the module element comes last
    and its form degree is included in the sign prefix as printed."""
    if tower.module is None:
        raise ValueError("tower was built without a module side")
    k = len(vargs) + 1
    if k == 1:
        return _memo_diff(memo, "w", tower.pair, tower.module, w, algebra)
    if k > tower.depth:
        raise ArityBeyondTower("arity %d exceeds tower depth %d"
                               % (k, tower.depth))
    return _contract(tower.s_slice(k), list(vargs) + [w], range(k),
                     tower.module.dim, algebra)


class AlgebraExtension:
    """Brackets extended by a commutative coefficient algebra.

    Construction validates the algebra; the unit algebra extension acts
    exactly like the plain brackets.
    """

    __slots__ = ("tower", "algebra")

    def __init__(self, tower: BracketTower, algebra: GAlgebra):
        report = check_g_algebra(tower.pair.g_algebra(), algebra)
        if not report.ok:
            raise NotCommutativeAlgebra(report.entries[0])
        self.tower = tower
        self.algebra = algebra

    def lambda_k(self, args):
        return lambda_k(self.tower, args, self.algebra)

    def mu_k(self, vargs, w):
        return mu_k(self.tower, vargs, w, self.algebra)


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


# -- identity residuals ------------------------------------------------------------


def _check_homogeneous(elements):
    for el in elements:
        if not el.is_homogeneous():
            raise ValueError("identity sweeps need homogeneous elements")


def _jacobiator(tower: BracketTower, args, bracket, mdim,
                algebra: GAlgebra = None) -> GradedElement:
    """Shuffle/Koszul sum of the generalized Jacobi identity on args.

    bracket(inner_args, holds_last) evaluates one bracket; holds_last is true
    when the arguments end with args[-1] or with a bracket that contains it.
    """
    n = len(args)
    _check_homogeneous(args)
    degs = [a.degree() for a in args]
    cdim = algebra.dim if algebra is not None else None
    total = GradedElement(tower.pair, mdim, cdim)
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            for sigma in _shuffles(k - j, j - 1):
                eps = koszul_sign(sigma, degs[: k - 1])
                front = sum(degs[sigma[m]] for m in range(k - j))
                sign = eps * (-1 if front % 2 else 1)
                inner = bracket([args[sigma[m]] for m in range(k - j, k - 1)]
                                + [args[k - 1]], k == n)
                if inner.is_zero():
                    continue
                term = bracket([args[sigma[m]] for m in range(k - j)]
                               + [inner] + args[k:], True)
                if sign < 0:
                    term = -term
                total = total + term
    return total


def leibniz_residual(tower: BracketTower, vs, algebra: GAlgebra = None,
                     memo=None) -> GradedElement:
    """Full shuffle/Koszul sum of the generalized Jacobi identity at arity n."""
    return _jacobiator(
        tower, list(vs),
        lambda args, holds_last: lambda_k(tower, args, algebra, memo),
        tower.pair.dim_b, algebra)


def module_residual(tower: BracketTower, vs, w, algebra: GAlgebra = None,
                    memo=None) -> GradedElement:
    """Module analogue of the generalized Jacobi identity at arity n: the same
    sum over vs + [w], with mu_k for every bracket that holds w."""

    def bracket(args, holds_last):
        if holds_last:
            return mu_k(tower, args[:-1], args[-1], algebra, memo)
        return lambda_k(tower, args, algebra, memo)

    return _jacobiator(tower, list(vs) + [w], bracket, tower.module.dim,
                       algebra)


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
    for an mdim-dimensional M."""
    cdim = algebra.dim if algebra is not None else None
    out = []
    for gt in _forms(pair.dim_g, degree_cap):
        for e in range(mdim):
            if cdim is None:
                out.append(GradedElement.basis(pair, mdim, gt, e))
            else:
                for c in range(cdim):
                    out.append(GradedElement.basis(pair, mdim, gt, e, cdim, c))
    return out


def basis_elements_v(tower: BracketTower, degree_cap: int,
                     algebra: GAlgebra = None):
    """Basis-decomposable elements of Lambda g* (x) B (x C) up to degree cap."""
    return _basis_elements(tower.pair, tower.pair.dim_b, degree_cap, algebra)


def basis_elements_w(tower: BracketTower, degree_cap: int,
                     algebra: GAlgebra = None):
    """The same for the module side of the tower."""
    return _basis_elements(tower.pair, tower.module.dim, degree_cap, algebra)


# -- factoring through Omega_A-multilinearity ------------------------------------


def _wedge(omega, el: GradedElement, sign=1) -> GradedElement:
    """sign * omega ^ el: the sorted form tuple omega wedged onto the left of
    every term of el."""
    out = GradedElement(el.pair, el.mdim, el.cdim)
    for key, val in el.terms.items():
        step = merge_sign(omega, key[0])
        if step is not None:
            out.terms[(step[1],) + key[1:]] = \
                val if sign * step[0] > 0 else -val
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

      * generalized Jacobi (leibniz_residual, module_residual), s = +1.
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

    The witness loops report only the first failing tuple in product order.
    An element's index there is (form index) * (pool size) + (pool index), so
    a tuple with forms comes after its degree-0 part, which fails whenever
    it does: they walk degree-0 tuples alone.

    The entries come from forms x pools[i], in that order; nonzero maps a
    tuple of pool indices to its nonzero degree-0 generalized-Jacobi residual
    (forms of degree 2).  Yields (form indices, pool indices, residual) for
    every tuple with a nonzero residual (s = +1), in product order.  Tuples
    whose degree-0 residual is zero are never visited.
    """
    n = len(pools)
    nexts = {}
    for bs in nonzero:
        for p in range(n):
            nexts.setdefault(bs[:p], set()).add(bs[p])
    nexts = {prefix: sorted(bs) for prefix, bs in nexts.items()}

    def walk(fs, bs, merged, sign):
        if len(bs) == n:
            res = _wedge(merged, nonzero[bs], sign)
            if not res.is_zero():
                yield fs, bs, res
            return
        following = nexts.get(bs)
        if not following:
            return
        for f, form in enumerate(forms):
            step = merge_sign(merged, form)
            if step is None or len(step[1]) + 2 > dim_g:
                continue
            for b in following:
                yield from walk(fs + (f,), bs + (b,), step[1], sign * step[0])

    return walk((), (), (), 1)


def _lemma_failures(pair, forms, sides, brackets, memo, algebra=None):
    """Check the two facts behind _decorated exactly; return the first
    failure of each as (lemma, arity, where, residual).

    graded_diff_derivation is (D) for every basis form omega of positive
    degree in forms and every basis element x up to the cap of each side in
    sides, a list of (side, module).  contract_form_linearity is (C) for
    every bracket in brackets, a list of (name, signed positions,
    bracket(args, memo), side of each argument), in every position and for
    every such omega, on two argument tuples: the degree-0 basis elements of
    each position's side summed with distinct coefficients, and the same
    tuple with its first entry wedged onto the first basis 1-form.  Nothing
    is checked when forms has degree 0 only.
    """
    omegas = [w for w in forms if w]
    if not omegas:
        return []
    cap = len(forms[-1])
    trivial = trivial_module(pair.dim_g, 1)

    def derivation():
        for side, module in sides:
            for x in _basis_elements(pair, module.dim, cap, algebra):
                dx = _memo_diff(memo, side, pair, module, x, algebra)
                for w in omegas:
                    res = _memo_diff(memo, side, pair, module, _wedge(w, x),
                                     algebra)
                    res = res - _wedge(w, dx, -1 if len(w) % 2 else 1)
                    for dw, _, _, c in _ce_terms(pair, trivial, w, (), 0):
                        res = res - _wedge(dw, x).scale(c)
                    if not res.is_zero():
                        yield 1, [w, x.first_term()[0]], res

    def sums(module):
        cdim = algebra.dim if algebra is not None else None
        terms = {next(iter(el.terms)): GaussScalar(i + 1) for i, el in
                 enumerate(_basis_elements(pair, module.dim, 0, algebra))}
        return GradedElement(pair, module.dim, cdim, terms)

    def linearity():
        full = {side: sums(module) for side, module in sides}
        for name, signed, bracket, arg_sides in brackets:
            plain = [full[side] for side in arg_sides]
            for args in (plain, [_wedge(omegas[0], plain[0])] + plain[1:]):
                base = bracket(args, memo)
                before = 0
                for i, arg in enumerate(args):
                    for w in omegas:
                        odd = len(w) * ((i in signed) + before) % 2
                        res = bracket(args[:i] + [_wedge(w, arg)] + args[i + 1:],
                                      memo) - _wedge(w, base, -1 if odd else 1)
                        if not res.is_zero():
                            yield len(args), [name, i, w], res
                    before += arg.degree()

    out = []
    for lemma, found in (("graded_diff_derivation", derivation()),
                         ("contract_form_linearity", linearity())):
        hit = next(found, None)
        if hit is not None:
            out.append((lemma,) + hit)
    return out


def _sweep(tower: BracketTower, identity, max_n, degree_cap, last, residual,
           brackets, algebra: GAlgebra = None) -> VerifyReport:
    """Residual sweep over every basis tuple of arity n <= max_n up to the
    degree cap whose first n - 1 entries are B-valued and whose last entry
    lies on last = (side, module).

    residual(args, memo) evaluates one tuple; memo lives for this sweep only
    (see _memo_diff).  Each residual is evaluated once per degree-0 tuple and
    every tuple with forms is decided through the wedge (see _decorated), so
    checked counts the tuples by arithmetic.  The two lemmas the factoring
    rests on are checked first, over the brackets named in brackets (see
    _lemma_failures); a failing lemma is reported as a violation under its
    own name.
    """
    if max_n > tower.depth:
        raise ArityBeyondTower("max_n %d exceeds tower depth %d"
                               % (max_n, tower.depth))
    if algebra is not None:
        AlgebraExtension(tower, algebra)  # validates
    report = VerifyReport(identity)
    pair = tower.pair
    memo = {}
    forms = _forms(pair.dim_g, degree_cap)
    sides = [("v", pair.quotient_module())]
    if last[0] != "v":
        sides.append(last)
    for lemma, n, where, res in _lemma_failures(pair, forms, sides, brackets,
                                                memo, algebra):
        report.add_violation(n, where, res.first_term(), lemma)
    pools = {side: _basis_elements(pair, module.dim, 0, algebra)
             for side, module in sides}
    for n in range(1, max_n + 1):
        args_pools = [pools["v"]] * (n - 1) + [pools[last[0]]]
        report.checked += len(forms) ** n * prod(map(len, args_pools))
        nonzero = {}
        # a residual has form degree two above its arguments' sum
        if pair.dim_g >= 2:
            for idx in product(*[range(len(p)) for p in args_pools]):
                res = residual([p[i] for p, i in zip(args_pools, idx)], memo)
                if not res.is_zero():
                    nonzero[idx] = res
        for fs, bs, res in _decorated(forms, args_pools, nonzero, pair.dim_g):
            report.add_violation(
                n, [(forms[f],) + next(iter(p[b].terms))[1:]
                    for f, b, p in zip(fs, bs, args_pools)],
                res.first_term())
    return report


def verify_leibniz(tower: BracketTower, max_n: int, degree_cap: int,
                   algebra: GAlgebra = None) -> VerifyReport:
    """Exhaustive residual sweep over basis-decomposable tuples.

    Multilinearity makes basis tuples a complete check at each degree profile.
    """
    return _sweep(tower, "leibniz", max_n, degree_cap,
                  ("v", tower.pair.quotient_module()),
                  lambda args, memo: leibniz_residual(tower, args, algebra,
                                                      memo),
                  _lambda_brackets(tower, max_n, algebra), algebra)


def verify_module(tower: BracketTower, max_n: int, degree_cap: int,
                  algebra: GAlgebra = None) -> VerifyReport:
    """Sweep of the module identity over (V, ..., V, W) basis tuples."""
    if tower.module is None:
        raise ValueError("tower was built without a module side")
    brackets = _lambda_brackets(tower, max_n, algebra) + [
        ("mu_%d" % k, range(k),
         lambda args, memo: mu_k(tower, args[:-1], args[-1], algebra, memo),
         ["v"] * (k - 1) + ["w"])
        for k in range(2, max_n + 1)]
    return _sweep(tower, "leibniz_module", max_n, degree_cap,
                  ("w", tower.module),
                  lambda args, memo: module_residual(tower, args[:-1], args[-1],
                                                     algebra, memo),
                  brackets, algebra)


def _lambda_brackets(tower, max_n, algebra):
    """lambda_2 .. lambda_max_n as _lemma_failures brackets: every position is
    signed."""
    return [("lambda_%d" % k, range(k),
             lambda args, memo: lambda_k(tower, args, algebra, memo), ["v"] * k)
            for k in range(2, max_n + 1)]


# -- tensor-level proof identities ----------------------------------------------------


def compose_cochains(outer: Cochain, inner: Cochain, slot: int) -> Cochain:
    """Feed inner's value into one quotient slot of outer, shuffle-wedging the
    exterior arguments (outer block first).  slot is 1-based."""
    out = Cochain(outer.pair, outer.module, outer.k + inner.k,
                  outer.l + inner.l - 1)
    _compose_into(out, outer, inner, slot)
    return out


def _compose_into(total, outer, inner, slot: int):
    """total += compose_cochains(outer, inner, slot) (see ce._add_permuted
    for the kernels' protocol)."""
    pair = outer.pair
    nb, dim_e = pair.dim_b, outer.module.dim
    b_radix = nb ** (outer.l + inner.l - 1)
    out_index = exterior_index(pair.dim_g, outer.k + inner.k)
    data = total.data
    by_value = {}
    for g2, t2, m, c2 in inner.iter_nonzero():
        by_value.setdefault(m, []).append((g2, t2, c2))
    for g1, t1, e, c1 in outer.iter_nonzero():
        pre, mid, post = t1[: slot - 1], t1[slot - 1], t1[slot:]
        for g2, t2, c2 in by_value.get(mid, ()):
            step = merge_sign(g1, g2)
            if step is None:
                continue
            sign, merged = step
            idx = (out_index[merged] * b_radix
                   + tensor_index(pre + t2 + post, nb)) * dim_e + e
            term = c1 * c2
            data[idx] = data[idx] + (term if sign > 0 else -term)


class _ProofTerms:
    """The B-valued tensors the proof identities share, each formed once, as
    a SparseCochain, by the first identity that needs it: the nonzeros of
    R_n and of the torsion, d R_n, and the composites R_i o_slot R_j.

    One lives for one check only; nothing is kept on the tower, so a tower
    tensor changed in place between two checks is read afresh.
    """

    __slots__ = ("tower", "module", "_memo")

    def __init__(self, tower: BracketTower):
        self.tower = tower
        self.module = tower.pair.quotient_module()
        self._memo = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def sparse(self, k, l):
        """A fresh B-valued sparse accumulator of bidegree (k, l)."""
        return SparseCochain(self.tower.pair, self.module, k, l)

    def r(self, n):
        return self._once(("r", n), lambda: SparseCochain.of(self.tower.r[n]))

    def beta(self):
        return self._once("beta", lambda: SparseCochain.of(
            _torsion_cochain(self.tower)))

    def d(self, n):
        """d R_n, of bidegree (2, n)."""
        def build():
            out = self.sparse(2, n)
            _ce_into(out, self.r(n))
            return out
        return self._once(("d", n), build)

    def composite(self, i, j, slot):
        """R_i o_slot R_j, of bidegree (2, i + j - 1)."""
        def build():
            out = self.sparse(2, i + j - 1)
            _compose_into(out, self.r(i), self.r(j), slot)
            return out
        return self._once(("o", i, j, slot), build)


def _negated(w):
    """-w, sparse."""
    out = SparseCochain(w.pair, w.module, w.k, w.l)
    for pos, v in w.data.items():
        out.data[pos] = -v
    return out


def _torsion_into(total, terms: _ProofTerms):
    """Torsion antisymmetrization, bidegree (1, 2): swapping the two slots of
    the binary tensor costs the differential of the torsion."""
    r2 = terms.r(2)
    _add_permuted(total, r2, (0, 1))
    _add_permuted(total, _negated(r2), (1, 0))
    _ce_into(total, _negated(terms.beta()))


def _ternary_into(total, terms: _ProofTerms):
    """Ternary symmetry defect, bidegree (1, 3): the swap of the first two
    slots against the torsion-fed binary tensor and the differential of the
    curvature."""
    tower = terms.tower
    pair = tower.pair
    nb = pair.dim_b
    r3 = terms.r(3)
    _add_permuted(total, r3, (0, 1, 2))
    _add_permuted(total, _negated(r3), (1, 0, 2))
    # minus R_2(beta(b0, b1), b2)
    _compose_into(total, terms.r(2), _negated(terms.beta()), 1)
    # plus (d omega)(b0, b1) applied to b2
    omega_cochain = Cochain(pair, end_module(terms.module), 0, 2)
    for b1 in range(nb):
        for b2 in range(nb):
            om = tower.st.omega[b1][b2]
            for r_ in range(nb):
                for c_ in range(nb):
                    omega_cochain.set((), (b1, b2), r_ * nb + c_, om[r_, c_])
    _add_permuted(total, _unfold_end(ce_diff(omega_cochain)), (0, 1, 2))


def _coherence_into(total, terms: _ProofTerms, n: int):
    """Degree-n shuffle coherence, bidegree (2, n): the differential of R_n
    against shuffle sums of nested lower tensors."""
    _add_permuted(total, terms.d(n), range(n))
    for i in range(2, n):
        j = n + 1 - i
        for k in range(j, n + 1):
            part = terms.composite(i, j, k - j + 1)
            for sigma in _shuffles(k - j, j - 1):
                # composite argument order: sigma-first block, sigma-second
                # block, position k, then the untouched tail
                _add_permuted(total, part, sigma + tuple(range(k - 1, n)))


def _mixed_into(total, terms: _ProofTerms, n: int):
    """Degree-n mixed differential, bidegree (2, n + 1): the anticommutator
    of the two derivatives on R_n."""
    tower = terms.tower
    _add_permuted(total, terms.d(n + 1), range(n + 1))
    _nabla_into(total, terms.d(n), tower.conn_b, tower.conn_b, tower.st)
    _add_permuted(total, terms.composite(2, n, 2), range(n + 1))
    for j in range(1, n + 1):
        # composite canonical order: b_1..b_(j-1), b_0, b_j, b_(j+1)..b_n
        perm = list(range(1, j)) + [0, j] + list(range(j + 1, n + 1))
        _add_permuted(total, terms.composite(n, 2, j), perm)


def shuffle_coherence_residual(tower: BracketTower, n: int) -> Cochain:
    """Residual of the degree-n coherence identity relating the differential of
    the n-th tensor to shuffle sums of nested lower tensors."""
    if n < 3 or n > tower.depth:
        raise ArityBeyondTower("need 3 <= n <= depth")
    out = Cochain(tower.pair, tower.pair.quotient_module(), 2, n)
    _coherence_into(out, _ProofTerms(tower), n)
    return out


def mixed_differential_residual(tower: BracketTower, n: int) -> Cochain:
    """Residual of the anticommutator identity for the two derivatives on the
    n-th tensor."""
    if n < 2 or n + 1 > tower.depth:
        raise ArityBeyondTower("need 2 <= n <= depth - 1")
    out = Cochain(tower.pair, tower.pair.quotient_module(), 2, n + 1)
    _mixed_into(out, _ProofTerms(tower), n)
    return out


def tensor_residuals(tower: BracketTower):
    """The tensor-level identities behind the bracket construction, as
    (name, residual) pairs in report order; every residual vanishes on a tower
    built from a valid pair and extending connection.

    Each residual is a SparseCochain: accumulated in a map from flat position
    to value by the same kernel bodies that fill the dense public functions.
    The tensors the identities share (each R_n's nonzeros, each d R_n, each
    composite R_i o_slot R_j) are formed once per call (see _ProofTerms).
    """
    terms = _ProofTerms(tower)

    def residual(k, l, into, *args):
        out = terms.sparse(k, l)
        into(out, terms, *args)
        return out

    out = [("torsion_antisymmetrization", residual(1, 2, _torsion_into))]
    coherence = {n: residual(2, n, _coherence_into, n)
                 for n in range(3, tower.depth + 1)}
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
    order, as Cochain.first_nonzero gives it.
    """
    pair = tower.pair
    nb = pair.dim_b
    results = []

    def record(name, found):
        results.append((name, found is None, found))

    for name, residual in tensor_residuals(tower):
        record(name, residual.first_nonzero())

    # homotopy witnesses on decomposables up to the degree cap: given the two
    # lemmas checked here, the first failing tuple is a degree-0 one (see
    # _decorated), where every tau sign is -1
    cap = min(witness_degree_cap, pair.dim_g)
    b_module = pair.quotient_module()
    basis = _basis_elements(pair, nb, 0)
    memo = {}

    def diff(el):
        return _memo_diff(memo, "v", pair, b_module, el)

    diffs = [diff(el) for el in basis]
    brackets = [
        ("two_bracket", (1,),
         lambda args, memo: two_bracket(tower, *args), ["v"] * 2),
        ("theta_witness", (0,),
         lambda args, memo: theta_witness(tower, *args), ["v"] * 2)]
    if tower.depth >= 3:
        brackets.append(("xi_witness", (0, 2),
                         lambda args, memo: xi_witness(tower, *args),
                         ["v"] * 3))
    for lemma, _, where, res in _lemma_failures(
            pair, _forms(pair.dim_g, cap), [("v", b_module)], brackets, memo):
        results.append((lemma, False, (where, res.first_term())))

    def skew_residual(i1, i2):
        v1, v2 = basis[i1], basis[i2]
        lhs = two_bracket(tower, v1, v2) - two_bracket(tower, v2, v1)
        rhs = diff(theta_witness(tower, v1, v2)) \
            + theta_witness(tower, diffs[i1], v2) \
            - theta_witness(tower, v1, diffs[i2])
        return lhs - rhs

    def jacobi_residual(i0, i1, i2):
        v0, v1, v2 = basis[i0], basis[i1], basis[i2]
        lhs = two_bracket(tower, two_bracket(tower, v0, v1), v2) \
            - two_bracket(tower, v0, two_bracket(tower, v1, v2)) \
            - two_bracket(tower, v1, two_bracket(tower, v0, v2))
        rhs = diff(xi_witness(tower, v0, v1, v2)) \
            + xi_witness(tower, diffs[i0], v1, v2) \
            - xi_witness(tower, v0, diffs[i1], v2) \
            + xi_witness(tower, v0, v1, diffs[i2])
        return lhs - rhs

    def first_witness(residual, n, extra):
        """First nonzero residual, of form degree extra above the arguments'
        sum, over the degree-0 n-tuples in product order."""
        if extra > pair.dim_g:
            return None
        residuals = (residual(*idx) for idx in product(range(nb), repeat=n))
        return next((r.first_term() for r in residuals if not r.is_zero()),
                    None)

    record("skew_symmetry_homotopy", first_witness(skew_residual, 2, 1))
    if tower.depth >= 3:
        record("jacobi_homotopy", first_witness(jacobi_residual, 3, 2))
    return results


# -- symmetry -----------------------------------------------------------------------


def symmetry_report(tower: BracketTower):
    """Adjacent-transposition symmetry check of every tower tensor.

    When all levels pass, the antisymmetrized bracket identities coincide with
    the non-symmetric ones, i.e. the structure is symmetric-compatible.
    """
    out = {}
    for n in sorted(tower.r):
        tensor = tower.r[n]
        verdict = {"fully_symmetric": True, "witness": None}
        for pos in range(n - 1):
            perm = list(range(n))
            perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
            swapped = tensor.permute_b_args(perm)
            if swapped.data != tensor.data:
                verdict["fully_symmetric"] = False
                verdict["witness"] = {"n": n, "swap_position": pos,
                                      "entry": (tensor - swapped).first_nonzero()}
                break
        out[n] = verdict
    out["is_symmetric_tower"] = all(
        v["fully_symmetric"] for k, v in out.items() if isinstance(k, int))
    return out


# -- matched-pair closed form ---------------------------------------------------------


def matched_zero_gamma_closed_form(tower: BracketTower, n: int) -> Cochain:
    """Independent oracle for towers over a matched pair with the zero
    extension: iterate the complement action on the subalgebra slot, then act
    on the last argument."""
    pair = tower.pair
    m, nb = pair.dim_g, pair.dim_b
    action = pair.quotient_module().action
    out = Cochain(pair, pair.quotient_module(), 1, n)
    for a in range(m):
        for bt in tensor_tuples(nb, n):
            vec = [ONE if s == a else ZERO for s in range(m)]
            for i in range(n - 1):
                vec = tower.st.delta[bt[i]].apply(vec)
            value = zero_vec(nb)
            for s, c in enumerate(vec):
                if not c.is_zero():
                    col = action[s].col(bt[n - 1])
                    for outb in range(nb):
                        value[outb] = value[outb] + c * col[outb]
            for outb in range(nb):
                if not value[outb].is_zero():
                    out.set((a,), bt, outb, value[outb])
    return out
