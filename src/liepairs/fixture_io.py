"""JSON fixture schema: load and dump pairs, modules, connections, algebras.

Schema:
  { "dim": n, "dim_g": m,
    "bracket": [[i, j, [coeff strings]], ...],      # antisymmetric completion
    "modules": {name: {"dim": d, "action": [matrix, ...]}},
    "connection": {name: [matrix per basis vector of the big algebra]},
    "algebra": {name: {"dim": d, "action": [...], "mult": [[i, j, [coeffs]], ...]}} }

Scalars are strings "a/b" or "a/b+c/d*i"; plain integers are accepted.
Every "dim" is a JSON integer >= 0, and a fixture is refused before anything
is allocated when a table it implies would exceed MAX_DENSE_ENTRIES: the
bracket table (dim^3 structure constants), a module's End(E) matrices (dim^2
entries each, one per basis vector in a connection) or an algebra's dim^3.
An algebra keeps only the nonzero terms of its products (see GAlgebra), so
its cap bounds what a file can list, dim^2 mult entries of dim coefficients
each, not a table.  Structural problems raise ParseError; mathematical
invalidity is the validators' business, not the loader's.
"""

from __future__ import annotations

from .lie_core import GAlgebra, GModule, LieAlgebra, LiePair
from .linalg import Matrix
from .scalars import GaussScalar, format_scalar, parse_scalar


# The largest dense table one request may allocate; the CLI applies the same
# cap to tower tensors (cli.TOWER_MAX_ENTRIES).
MAX_DENSE_ENTRIES = 2 ** 22


class ParseError(Exception):
    """Malformed fixture JSON (structure or scalar syntax)."""


def _dimension(spec, key, owner):
    """spec[key] as a dimension: an int, not a bool, and >= 0."""
    value = spec.get(key)
    if type(value) is not int or value < 0:
        raise ParseError("%s needs a non-negative integer %r, got %r"
                         % (owner, key, value))
    return value


def _capped(value, power, what):
    """Refuse a dimension whose dense table of value**power entries is above
    MAX_DENSE_ENTRIES."""
    if value > MAX_DENSE_ENTRIES:
        # value ** power could have too many digits to print
        raise ParseError("%s is above %d" % (what, MAX_DENSE_ENTRIES))
    if value ** power > MAX_DENSE_ENTRIES:
        raise ParseError("%s %d needs a dense table of %d entries, above %d"
                         % (what, value, value ** power, MAX_DENSE_ENTRIES))
    return value


def _entries(spec, key, owner, what, dim, memo, antisymmetric=False):
    """(i, j, coefficient vector) for each [i, j, [coeffs]] entry of the
    sparse table spec[key], named what in messages, its scalars read through
    memo (see _scalar).  An entry is refused when its pair of indices
    repeats; an antisymmetric table omits its diagonal, and its (j, i)
    repeats its (i, j)."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise ParseError("%s %r must be a list of [i, j, [coeffs]] entries"
                         % (owner, key))
    seen = set()
    for entry in value:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError("%s entries are [i, j, [coeffs]]" % what)
        i, j, coeffs = entry
        if type(i) is not int or type(j) is not int \
                or not 0 <= i < dim or not 0 <= j < dim:
            raise ParseError("%s indices out of range" % what)
        if antisymmetric and i == j:
            raise ParseError("%s of a vector with itself must be omitted"
                             % what)
        if (i, j) in seen:
            raise ParseError("duplicate %s entry (%d, %d)" % (what, i, j))
        seen.update([(i, j), (j, i)] if antisymmetric else [(i, j)])
        yield i, j, _vector(coeffs, dim, "%s (%d, %d)" % (what, i, j), memo)


def _scalar(value, memo):
    """One scalar of a fixture.  A string is parsed once per load: memo, a
    map the load owns, keeps the scalar of each string read so far (a
    GaussScalar is immutable, so entries may share it)."""
    if isinstance(value, str):
        s = memo.get(value)
        if s is None:
            try:
                s = memo[value] = parse_scalar(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad scalar %r: %s" % (value, exc))
        return s
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, int):
        return GaussScalar(value)
    raise ParseError("scalar must be string or integer, got %r" % (value,))


def _vector(value, length, what, memo):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError("%s must be a list of %d scalars" % (what, length))
    return [_scalar(x, memo) for x in value]


def _matrix(value, rows, cols, what, memo):
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError("%s must have %d rows" % (what, rows))
    return Matrix.from_rows([_vector(row, cols, what + " row", memo)
                             for row in value])


class Fixture:
    """A loaded fixture: the pair plus named modules/connections/algebras.

    The name "B" resolves to the quotient module L/A.  A fixture may declare
    "B" only as that module: the CLI refuses one that differs from it in
    dimension or action with exit 3.
    """

    __slots__ = ("pair", "modules", "connections", "algebras")

    def __init__(self, pair, modules, connections, algebras):
        self.pair = pair
        self.modules = modules
        self.connections = connections
        self.algebras = algebras

    def module(self, name):
        if name in self.modules:
            return self.modules[name]
        if name == "B":
            return self.pair.quotient_module()
        raise ParseError("unknown module %r" % name)


def load_fixture(doc) -> Fixture:
    if not isinstance(doc, dict):
        raise ParseError("fixture must be a JSON object")
    dim = _dimension(doc, "dim", "fixture")
    dim_g = _dimension(doc, "dim_g", "fixture")
    if dim_g > dim:
        raise ParseError("dim_g out of range")
    _capped(dim, 3, "'dim'")
    memo = {}
    algebra = LieAlgebra.zero(dim)
    for i, j, vec in _entries(doc, "bracket", "fixture", "bracket", dim,
                              memo, antisymmetric=True):
        algebra.c[i][j] = vec
        # a zero, most of a bracket's coefficients, is its own negative
        algebra.c[j][i] = [-x if x.re or x.im else x for x in vec]
    pair = LiePair(algebra, dim_g)

    modules = {}
    mods = doc.get("modules", {})
    if not isinstance(mods, dict):
        raise ParseError("'modules' must be an object")
    for name, spec in mods.items():
        if not isinstance(spec, dict):
            raise ParseError("module %r must be an object" % name)
        mdim = _capped(_dimension(spec, "dim", "module %r" % name), 2,
                       "module %r dim" % name)
        action = spec.get("action", [])
        if not isinstance(action, list) or len(action) != dim_g:
            raise ParseError("module %r needs %d action matrices"
                             % (name, dim_g))
        modules[name] = GModule(
            mdim, [_matrix(m, mdim, mdim, "module %r action" % name, memo)
                   for m in action])

    connections = {}
    conn_doc = doc.get("connection", {})
    if not isinstance(conn_doc, dict):
        raise ParseError("'connection' must be an object")
    for name, mats in conn_doc.items():
        if not isinstance(mats, list) or len(mats) != dim:
            raise ParseError("connection %r needs %d matrices" % (name, dim))
        if not mats or not isinstance(mats[0], list) or not mats[0]:
            raise ParseError("connection %r matrices malformed" % name)
        mdim = len(mats[0])
        connections[name] = [_matrix(m, mdim, mdim,
                                     "connection %r" % name, memo)
                              for m in mats]

    algebras = {}
    alg_doc = doc.get("algebra", {})
    if not isinstance(alg_doc, dict):
        raise ParseError("'algebra' must be an object")
    for name, spec in alg_doc.items():
        if not isinstance(spec, dict):
            raise ParseError("algebra %r must be an object" % name)
        adim = _capped(_dimension(spec, "dim", "algebra %r" % name), 3,
                       "algebra %r dim" % name)
        action = spec.get("action", [])
        if not isinstance(action, list) or len(action) != dim_g:
            raise ParseError("algebra %r needs %d action matrices"
                             % (name, dim_g))
        module = GModule(
            adim, [_matrix(m, adim, adim, "algebra %r action" % name, memo)
                   for m in action])
        # mult is not antisymmetric: (j, i) is an entry of its own, and an
        # all-zero entry stores nothing
        mult = {}
        for i, j, vec in _entries(spec, "mult", "algebra %r" % name,
                                  "algebra %r mult" % name, adim, memo):
            terms = [(k, x) for k, x in enumerate(vec) if not x.is_zero()]
            if terms:
                mult[i, j] = terms
        algebras[name] = GAlgebra(module, mult)

    return Fixture(pair, modules, connections, algebras)


def dump_fixture(pair: LiePair, modules=None, connections=None,
                 algebras=None) -> dict:
    doc = {"dim": pair.dim_d, "dim_g": pair.dim_g}
    bracket = []
    for i in range(pair.dim_d):
        for j in range(i + 1, pair.dim_d):
            vec = pair.d.c[i][j]
            if any(not x.is_zero() for x in vec):
                bracket.append([i, j, [format_scalar(x) for x in vec]])
    doc["bracket"] = bracket
    if modules:
        doc["modules"] = {
            name: {
                "dim": m.dim,
                "action": [_matrix_json(mat) for mat in m.action],
            }
            for name, m in modules.items()
        }
    if connections:
        doc["connection"] = {
            name: [_matrix_json(mat) for mat in mats]
            for name, mats in connections.items()
        }
    if algebras:
        doc["algebra"] = {}
        for name, alg in algebras.items():
            mult = []
            for (i, j), terms in sorted(alg.mult.items()):
                vec = ["0"] * alg.dim
                for k, x in terms:
                    vec[k] = format_scalar(x)
                mult.append([i, j, vec])
            doc["algebra"][name] = {
                "dim": alg.dim,
                "action": [_matrix_json(m) for m in alg.module.action],
                "mult": mult,
            }
    return doc


def _matrix_json(m: Matrix):
    return [[format_scalar(m[i, j]) for j in range(m.cols)]
            for i in range(m.rows)]
