"""JSON fixture schema: load and dump pairs, modules, connections, algebras.

Schema:
  { "dim": n, "dim_g": m,
    "bracket": [[i, j, [coeff strings]], ...],      # antisymmetric completion
    "modules": {name: {"dim": d, "action": [matrix, ...]}},
    "connection": {name: [matrix per basis vector of the big algebra]},
    "algebra": {name: {"dim": d, "action": [...], "mult": [[i, j, [coeffs]], ...]}} }

Scalars are strings "a/b" or "a/b+c/d*i"; plain integers are accepted.
Every "dim" is a JSON integer >= 0, and a fixture whose dense bracket table
(dim^3 structure constants) would exceed MAX_DENSE_ENTRIES is refused before
it is allocated.  Structural problems raise ParseError; mathematical
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


def _scalar(value):
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, int):
        return GaussScalar(value)
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad scalar %r: %s" % (value, exc))
    raise ParseError("scalar must be string or integer, got %r" % (value,))


def _vector(value, length, what):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError("%s must be a list of %d scalars" % (what, length))
    return [_scalar(x) for x in value]


def _matrix(value, rows, cols, what):
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError("%s must have %d rows" % (what, rows))
    return Matrix.from_rows([_vector(row, cols, what + " row")
                             for row in value])


class Fixture:
    """A loaded fixture: the pair plus named modules/connections/algebras.

    The name "B" always resolves to the quotient module unless the fixture
    declares its own.
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
    if dim ** 3 > MAX_DENSE_ENTRIES:
        raise ParseError("'dim' %d needs a bracket table of %d entries, above "
                         "%d" % (dim, dim ** 3, MAX_DENSE_ENTRIES))
    algebra = LieAlgebra.zero(dim)
    seen = set()
    for entry in doc.get("bracket", []):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError("bracket entries are [i, j, [coeffs]]")
        i, j, coeffs = entry
        if not isinstance(i, int) or not isinstance(j, int) \
                or not 0 <= i < dim or not 0 <= j < dim:
            raise ParseError("bracket indices out of range")
        if i == j:
            raise ParseError("bracket of a vector with itself must be omitted")
        if (i, j) in seen or (j, i) in seen:
            raise ParseError("duplicate bracket entry (%d, %d)" % (i, j))
        seen.add((i, j))
        vec = _vector(coeffs, dim, "bracket (%d, %d)" % (i, j))
        algebra.c[i][j] = vec
        algebra.c[j][i] = [-x for x in vec]
    pair = LiePair(algebra, dim_g)

    modules = {}
    mods = doc.get("modules", {})
    if not isinstance(mods, dict):
        raise ParseError("'modules' must be an object")
    for name, spec in mods.items():
        if not isinstance(spec, dict):
            raise ParseError("module %r must be an object" % name)
        mdim = _dimension(spec, "dim", "module %r" % name)
        action = spec.get("action", [])
        if not isinstance(action, list) or len(action) != dim_g:
            raise ParseError("module %r needs %d action matrices"
                             % (name, dim_g))
        modules[name] = GModule(
            mdim, [_matrix(m, mdim, mdim, "module %r action" % name)
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
                                     "connection %r" % name) for m in mats]

    algebras = {}
    alg_doc = doc.get("algebra", {})
    if not isinstance(alg_doc, dict):
        raise ParseError("'algebra' must be an object")
    for name, spec in alg_doc.items():
        if not isinstance(spec, dict):
            raise ParseError("algebra %r must be an object" % name)
        adim = _dimension(spec, "dim", "algebra %r" % name)
        action = spec.get("action", [])
        if not isinstance(action, list) or len(action) != dim_g:
            raise ParseError("algebra %r needs %d action matrices"
                             % (name, dim_g))
        module = GModule(
            adim, [_matrix(m, adim, adim, "algebra %r action" % name)
                   for m in action])
        mult = [[[GaussScalar(0)] * adim for _ in range(adim)]
                for _ in range(adim)]
        for entry in spec.get("mult", []):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError("algebra mult entries are [i, j, [coeffs]]")
            i, j, coeffs = entry
            if not isinstance(i, int) or not isinstance(j, int) \
                    or not 0 <= i < adim or not 0 <= j < adim:
                raise ParseError("algebra mult indices out of range")
            mult[i][j] = _vector(coeffs, adim, "algebra mult")
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
            for i in range(alg.dim):
                for j in range(alg.dim):
                    vec = alg.mult[i][j]
                    if any(not x.is_zero() for x in vec):
                        mult.append([i, j, [format_scalar(x) for x in vec]])
            doc["algebra"][name] = {
                "dim": alg.dim,
                "action": [_matrix_json(m) for m in alg.module.action],
                "mult": mult,
            }
    return doc


def _matrix_json(m: Matrix):
    return [[format_scalar(m[i, j]) for j in range(m.cols)]
            for i in range(m.rows)]
