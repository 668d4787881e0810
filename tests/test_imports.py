"""Import hygiene: every module of the package uses each name it imports and
reads each parameter its functions take, reads each private helper it defines
somewhere, defines no public name that only the unit tests read, the tower
layers' kernels never read a cochain through its decoded view, the
flat-position kernels wedge forms only through the one wedge table, the
kernels scatter into their caller's accumulator and never flush, so that a
clean tower's residuals store no partial sum, every derivation of cochains
reaches that accumulator through the one term expander, module flatness,
curvature, the obstruction cocycle and compatibility are read off the one
flatness kernel and no module forms a dense matrix product, the obstruction and
tower commands load only the layers they run and leave no thread or atexit
callback behind, and no module loads OpenSSL through hashlib.

No linter ships with the project, so this walks the syntax tree with the
standard library alone.  ``__init__.py`` is exempt: its imports are the
package's public re-exports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liepairs
from liepairs import ce, homotopy, scalars
from liepairs.fixture_io import dump_fixture
from liepairs.homotopy import build_tower, tensor_residuals
from liepairs.zoo import dual_numbers_algebra, gl_un_tn, sl2_pair

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liepairs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_name():
    source = ("from itertools import product, chain\nimport os.path\n"
              "from __future__ import annotations\nchain()\n")
    assert unused_imports(source) == ["os", "product"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source):
    """(function, parameter) for each parameter of a function or lambda that
    its body never reads, a read by a nested function included.  Dunder
    methods are exempt: their signatures are the language's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            name, body = node.name, node.body
        else:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None]
        reads = {sub.id for stmt in body for sub in ast.walk(stmt)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found += [(name, p.arg) for p in params if p.arg not in reads]
    return sorted(found)


def test_the_check_sees_an_unused_parameter():
    source = ("def used(a, *rest, key=None, **extra):\n"
              "    return a, rest, key, extra\n\n"
              "def outer(x, unread, y=None):\n"
              "    def inner(z):\n        return x + z\n"
              "    return inner, lambda w, v: w\n\n"
              "class C:\n    def __init__(self, ignored):\n        pass\n\n"
              "    def method(self, n):\n        return n\n\n"
              "async def fetch(*args, **kwargs):\n    return kwargs\n")
    assert unused_parameters(source) == [
        ("<lambda>", "v"), ("fetch", "args"), ("method", "self"),
        ("outer", "unread"), ("outer", "y")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def definitions_and_reads(source):
    """The module-level functions and classes source defines, and the names
    and attributes it reads, each read outside the def of the name it reads.
    Only a read counts: a name bound, rebound or deleted is not read."""
    defined = []
    reads = set()
    for node in ast.parse(source).body:
        own = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own = node.name
            defined.append(own)
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name):
                read = sub.id
            elif isinstance(sub, ast.Attribute):
                read = sub.attr
            else:
                continue
            if read != own:
                reads.add(read)
    return defined, reads


def orphaned_private_names(sources):
    """Private module-level functions and classes of the given modules (file
    name -> source), __init__.py's aside, that no code of those modules reads
    outside their own def."""
    defined = set()
    used = set()
    for filename, source in sources.items():
        names, reads = definitions_and_reads(source)
        used |= reads
        if filename != "__init__.py":
            defined.update(name for name in names if name.startswith("_")
                           and not name.startswith("__"))
    return sorted(defined - used)


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n"
                "    return _recursive(n - 1)\n\nclass _Orphan:\n    pass\n"
                "\ndef _rebound():\n    pass\n\ndef _deleted():\n    pass\n",
        "b.py": "from . import a\nfrom .a import _used\n\ndef public():\n"
                "    return _used()\n\n_rebound = None\na._deleted = None\n"
                "del a._deleted\n",
        "__init__.py": "def _exported():\n    pass\n",
    }
    assert orphaned_private_names(sources) == \
        ["_Orphan", "_deleted", "_rebound", "_recursive"]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


def imported_names(source):
    """Names that source imports with from-imports."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_public_names(sources, acceptance):
    """Public module-level functions and classes of the given modules (file
    name -> source) that no code of those modules reads outside their own
    def, that __init__.py does not re-export and that the acceptance tests
    (source acceptance) do not import.  __init__.py re-exports the names it
    imports and the names its tuples list for lazy loading.  The definitions
    of __init__.py and of zoo.py, whose job is fixtures, are exempt; their
    reads count."""
    defined = set()
    used = imported_names(acceptance)
    for filename, source in sources.items():
        names, reads = definitions_and_reads(source)
        used |= reads
        if filename == "__init__.py":
            used |= imported_names(source)
            used |= {elt.value for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Tuple) for elt in node.elts
                     if isinstance(elt, ast.Constant)}
        elif filename != "zoo.py":
            defined.update(name for name in names
                           if not name.startswith("_"))
    return sorted(defined - used)


def test_the_check_sees_a_public_name_nothing_reads():
    sources = {
        "a.py": "def called():\n    pass\n\ndef recursive(n):\n"
                "    return recursive(n - 1)\n\nclass Exported:\n    pass\n"
                "\ndef lazy():\n    pass\n\ndef accepted():\n    pass\n"
                "\ndef _private():\n    pass\n",
        "b.py": "from .a import called\n\ndef caller():\n"
                "    return called()\n",
        "zoo.py": "def fixture():\n    pass\n",
        "__init__.py": "from .a import Exported\n_LAZY = (\"lazy\",)\n",
    }
    acceptance = "from liepairs.a import accepted\n"
    assert unread_public_names(sources, acceptance) == ["caller", "recursive"]


def test_every_public_name_is_read_exported_or_accepted():
    # a public name only the unit tests call belongs in the tests
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    assert unread_public_names(sources, acceptance) == []


def private_package_imports(source):
    """Private names (one leading underscore) that source imports from the
    package, by relative or absolute import."""
    return sorted(
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "liepairs")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_the_check_sees_a_private_import():
    source = ("from .homotopy import (_Terms, verify_leibniz)\n"
              "from . import _layer\nfrom liepairs.ce import _ce_into\n"
              "from os import _exit\nfrom __future__ import annotations\n")
    assert private_package_imports(source) == ["_Terms", "_ce_into", "_layer"]


def test_the_cli_imports_only_public_names():
    # the CLI runs on the library's public API
    assert private_package_imports((PACKAGE / "cli.py").read_text()) == []


def iter_nonzero_callers(source):
    """The functions and methods of source, nested ones and the functions
    around them included, whose bodies call iter_nonzero."""
    return sorted({
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(node) if isinstance(call, ast.Call)
        and "iter_nonzero" in (getattr(call.func, "attr", None),
                               getattr(call.func, "id", None))})


def test_the_check_sees_a_decoded_view():
    source = ("class C:\n    def first(self):\n"
              "        for x in self.iter_nonzero():\n            return x\n\n"
              "def kernel(w):\n    def inner():\n"
              "        return list(w.iter_nonzero())\n    return inner\n\n"
              "def flat(w):\n    return w.entries, w.iter_nonzero\n")
    assert iter_nonzero_callers(source) == ["first", "inner", "kernel"]


# Cochain.iter_nonzero sorts a cochain's entries and decodes each position
# into tuples: it is the ordered view for the CLI's JSON, the witnesses and
# the class code.  The kernels of the tower layers read flat positions (see
# the kernel protocol in ce.py), and first_nonzero decodes its one
# entry alone, so no function of those layers calls it.
DECODED_VIEW_ALLOWED = {"ce.py": [], "homotopy.py": []}


@pytest.mark.parametrize("name", sorted(DECODED_VIEW_ALLOWED))
def test_tower_layers_read_flat_positions(name):
    assert iter_nonzero_callers((PACKAGE / name).read_text()) == \
        DECODED_VIEW_ALLOWED[name]


def tuple_wedge_calls(source, kernels):
    """(function, callee) for each call that a function of source named in
    kernels, nested functions included, makes to a helper that wedges or
    looks up forms as index tuples."""
    return sorted({
        (node.name, callee) for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in kernels
        for call in ast.walk(node) if isinstance(call, ast.Call)
        for callee in (getattr(call.func, "attr", None),
                       getattr(call.func, "id", None))
        if callee in TUPLE_WEDGES})


def test_the_check_sees_a_tuple_wedge():
    source = ("def _kernel(w):\n    def inner(f):\n"
              "        return multilinear.merge_sign(f, (0,))\n"
              "    return bisect(w, 1), inner\n\n"
              "def _table(n, k):\n    return exterior_index(n, k)\n\n"
              "def _other(f):\n    return insert_with_sign(f, 0)\n\n"
              "def _flat(w):\n    return w.entries, exterior_index\n")
    assert tuple_wedge_calls(source, ("_kernel", "_flat", "_other")) == [
        ("_kernel", "bisect"), ("_kernel", "merge_sign"),
        ("_other", "insert_with_sign")]


# The flat-position kernels (see the kernel protocol in ce.py; the
# accumulator they share is in scalars.py) move every form through a table
# of flat moves: the one table of basis-form wedges, ce._merge_table, is
# the only code that turns index tuples into moves, so no kernel wedges,
# strips or looks up a tuple itself.  The bracket layer (_contract, _wedge,
# _decorated, _diff) is among them.
FLAT_KERNELS = ("_acting", "_ce_table", "_ce_terms", "_ce_sum", "_ce_into",
                "_nabla_into", "_product_into", "_add_permuted", "_scatter",
                "_flush", "_contract", "_wedge", "_decorated", "_diff")
TUPLE_WEDGES = ("merge_sign", "insert_with_sign", "bisect", "exterior_index")


def test_flat_kernels_wedge_through_the_one_table():
    sources = [(PACKAGE / name).read_text()
               for name in ("ce.py", "homotopy.py", "scalars.py")]
    defined = {node.name for source in sources
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(FLAT_KERNELS) <= defined
    assert [hit for source in sources
            for hit in tuple_wedge_calls(source, FLAT_KERNELS)] == []


def function_calls(sources):
    """{function: the names it calls, nested functions included} for the
    module-level functions of sources (file name -> source)."""
    calls = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls[node.name] = {
                    callee for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    for callee in (getattr(call.func, "attr", None),
                                   getattr(call.func, "id", None)) if callee}
    return calls


def expander_bypasses(sources, derivations):
    """(derivation, callee) for each call that a function named in
    derivations makes, nested functions included, to _scatter or to a
    function of sources (file name -> source) that reaches _scatter other
    than through _ce_sum; and (derivation, "no _ce_sum") for one that never
    calls _ce_sum."""
    calls = function_calls(sources)

    def reaches(name, seen):
        return name == "_scatter" or name != "_ce_sum" and name not in seen \
            and any(reaches(callee, seen | {name})
                    for callee in calls.get(name, ()))

    found = set()
    for name in derivations:
        found.update((name, callee) for callee in calls[name]
                     if reaches(callee, {name}))
        if "_ce_sum" not in calls[name]:
            found.add((name, "no _ce_sum"))
    return sorted(found)


def test_the_check_sees_a_bypassed_expander():
    sources = {
        "a.py": "def _ce_sum(acc, table, entries):\n"
                "    _scatter(acc, table, 1, 0)\n\n"
                "def _helper(acc):\n    scalars._scatter(acc, [], 1, 0)\n\n"
                "def _indirect(acc):\n    return _helper(acc)\n\n"
                "def _loop(acc):\n    return _loop(acc)\n",
        "b.py": "def _good(acc, w):\n    _ce_sum(acc, _table(w), w.entries)\n"
                "    _loop(acc)\n\n"
                "def _direct(acc, w):\n    _ce_sum(acc, [], w.entries)\n"
                "    _scatter(acc, [], 1, 0)\n\n"
                "def _hidden(acc, w):\n    def inner():\n"
                "        return _indirect(acc)\n"
                "    _ce_sum(acc, [], w.entries)\n    return inner\n\n"
                "def _alone(acc, w):\n    return _flush(acc)\n",
    }
    assert expander_bypasses(sources, ("_good", "_direct", "_hidden",
                                       "_alone")) == [
        ("_alone", "no _ce_sum"), ("_direct", "_scatter"),
        ("_hidden", "_indirect")]


# Every derivation of cochains is read off a table of ce._ce_table's shape
# by one term expander: d (_ce_into), the prepending derivative
# (_nabla_into), the unary bracket (homotopy._diff) and the columns of d_k
# (atiyah._diff_columns) reach the accumulator through _ce_sum alone.
DERIVATIONS = ("_ce_into", "_nabla_into", "_diff", "_diff_columns")


def test_derivations_scatter_through_the_one_expander():
    sources = {name: (PACKAGE / name).read_text()
               for name in ("ce.py", "homotopy.py", "atiyah.py", "scalars.py")}
    assert expander_bypasses(sources, DERIVATIONS) == []


def dense_products(source):
    """(line, what) for each @ operator ("@") and each call of commutator
    ("commutator") in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and "commutator" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            found.append((node.lineno, "commutator"))
    return sorted(found)


def test_the_check_sees_a_dense_product():
    source = ("def f(a, b):\n    c = a @ b\n    c @= a\n"
              "    return a.commutator(b), commutator(a, b)\n\n"
              "def g(a, commutator):\n    return a * a, '@', commutator\n")
    assert dense_products(source) == [
        (2, "@"), (3, "@"), (4, "commutator"), (4, "commutator")]


def kernel_skippers(sources, functions, kernel):
    """The names in functions that sources (file name -> source) do not
    define at module level, or whose body, nested functions included, never
    calls kernel."""
    calls = function_calls(sources)
    return sorted(name for name in functions
                  if kernel not in calls.get(name, ()))


def test_the_check_sees_a_block_that_skips_the_kernel():
    sources = {
        "a.py": "def _kernel(rows):\n    return rows\n\n"
                "def direct(rows):\n    return _kernel(rows)\n\n"
                "def qualified(rows):\n    return a._kernel(rows)\n\n"
                "def nested(rows):\n    def inner():\n"
                "        return _kernel(rows)\n    return inner\n",
        "b.py": "def dense(m):\n    return m.commutator(m)\n\n"
                "def named(m):\n    return _kernel, m\n",
    }
    assert kernel_skippers(sources, ("direct", "qualified", "nested", "dense",
                                     "named", "missing"), "_kernel") == [
        "dense", "missing", "named"]


# Module flatness, curvature, the obstruction cocycle and compatibility are
# blocks of one curvature, R(x_i, x_j) = [rho_i, rho_j] - rho_([x_i, x_j]):
# each is read off the one flatness kernel, lie_core._flatness_residual, and
# no module forms a dense matrix product or commutator.
CURVATURE_BLOCKS = ("check_module", "curvature", "atiyah_cocycle",
                    "compatibility_report")


def test_curvature_blocks_read_the_one_flatness_kernel():
    sources = {name: (PACKAGE / name).read_text()
               for name in ("lie_core.py", "ce.py", "atiyah.py")}
    assert kernel_skippers(sources, CURVATURE_BLOCKS,
                           "_flatness_residual") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_forms_a_dense_matrix_product(path):
    assert dense_products(path.read_text()) == []


def flushing_kernels(source):
    """(kernel, what) for each kernel of source, nested functions included,
    that flushes an accumulator ("_flush") or stores a cochain's entries
    (".entries"): the _into kernels, _ce_sum and _add_permuted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or not (node.name.endswith("_into")
                        or node.name in ("_ce_sum", "_add_permuted")):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and "_flush" in (
                    getattr(sub.func, "attr", None),
                    getattr(sub.func, "id", None)):
                found.add((node.name, "_flush"))
            elif isinstance(sub, ast.Attribute) and sub.attr == "entries" \
                    and isinstance(sub.ctx, ast.Store):
                found.add((node.name, ".entries"))
    return sorted(found)


def test_the_check_sees_a_flushing_kernel():
    source = ("def _ce_into(total, w):\n"
              "    total.entries = _flush(total.entries, acc)\n\n"
              "def _add_permuted(acc, w):\n    def inner():\n"
              "        return scalars._flush(acc)\n    return inner\n\n"
              "def _slot_into(acc, w):\n    out.entries, x = {}, 1\n\n"
              "def _clean_into(acc, w):\n    _scatter(acc, w.entries, 1, 0)\n\n"
              "def _summed(acc):\n    out = Cochain()\n"
              "    out.entries = _flush(acc)\n")
    assert flushing_kernels(source) == [
        ("_add_permuted", "_flush"), ("_ce_into", ".entries"),
        ("_ce_into", "_flush"), ("_slot_into", ".entries")]


# The kernel protocol (see ce.py): every kernel scatters into its caller's
# accumulator and never flushes; whoever owns an output flushes it once,
# through ce._summed.
SCATTERING_KERNELS = {
    "ce.py": ("_add_permuted", "_ce_sum", "_ce_into"),
    "homotopy.py": ("_nabla_into", "_compose_into", "_chain_into",
                    "_product_into", "_torsion_into", "_ternary_into",
                    "_coherence_into", "_module_into", "_mixed_into")}


@pytest.mark.parametrize("name", sorted(SCATTERING_KERNELS))
def test_kernels_scatter_into_their_callers_accumulator(name):
    source = (PACKAGE / name).read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(SCATTERING_KERNELS[name]) <= defined
    assert flushing_kernels(source) == []


def test_residual_flushes_build_no_scalar_on_a_clean_tower(monkeypatch):
    # on a clean tower every residual cancels.  Once the view holds the
    # shared tensors (d R_n, the composites, the coherence tensors), no
    # flush of tensor_residuals builds a GaussScalar: each residual's terms
    # meet in one accumulator, flushed once, so no partial sum is stored on
    # the way.  The one other flush, of the term d(omega) that ce_diff forms
    # for the ternary symmetry defect, stores nothing either on u2t2.
    fx = gl_un_tn(2)
    view = build_tower(fx.pair, fx.conn_zero, depth=4).cached_view()
    tensor_residuals(view)
    flushing, built, flushes = [0], [0], []
    scalar = scalars._scalar

    def counting_scalar(re, im):
        built[0] += bool(flushing[0])
        return scalar(re, im)

    def watched(flush):
        def wrapper(*args):
            before = built[0]
            flushing[0] += 1
            try:
                return flush(*args)
            finally:
                flushing[0] -= 1
                flushes.append(built[0] - before)
        return wrapper

    monkeypatch.setattr(scalars, "_scalar", counting_scalar)
    for layer in (ce, homotopy):
        monkeypatch.setattr(layer, "_flush", watched(layer._flush))
    assert all(w.is_zero() for _, w in tensor_residuals(view))
    # torsion, ternary and two mixed residuals, and d(omega)
    assert flushes == [0] * 5


def hashlib_imports(source):
    """Line numbers of source's imports of hashlib, other than those in the
    handler of an ``except ImportError``: importing hashlib loads OpenSSL's
    libcrypto, about 3 MB of a CLI job's peak memory, so the package takes
    SHA-256 from the interpreter's own module and hashlib only as a
    fallback."""
    tree = ast.parse(source)
    fallback = {id(node) for handler in ast.walk(tree)
                if isinstance(handler, ast.ExceptHandler)
                and getattr(handler.type, "id", None) == "ImportError"
                for stmt in handler.body for node in ast.walk(stmt)}
    return sorted(
        node.lineno for node in ast.walk(tree) if id(node) not in fallback
        and (isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "hashlib"
                     for alias in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").split(".")[0] == "hashlib"))


def test_the_check_sees_a_hashlib_import():
    source = ("import hashlib\nimport os, hashlib as h\n"
              "from hashlib import sha256\n"
              "try:\n    from _sha2 import sha256\nexcept ImportError:\n"
              "    try:\n        from _sha256 import sha256\n"
              "    except ImportError:\n        from hashlib import sha256\n"
              "try:\n    import json\nexcept ValueError:\n"
              "    import hashlib\n"
              "def digest():\n    import hashlib\n"
              "from .hashlib import sha256\n")
    assert hashlib_imports(source) == [1, 2, 3, 14, 16]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_hashlib_but_as_a_fallback(path):
    assert hashlib_imports(path.read_text()) == []


DIET_SCRIPT = """
import atexit, contextlib, io, json, sys, threading
callbacks = atexit._ncallbacks()
from liepairs.cli import main
codes, left = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    left.append([threading.active_count(), atexit._ncallbacks() - callbacks])
loaded = sorted(name for name in sys.modules if name.startswith("liepairs"))
print(json.dumps({"codes": codes, "loaded": loaded, "defined": sorted(
    attr for name in loaded for attr, value in vars(sys.modules[name]).items()
    if getattr(value, "__module__", None) == name), "openssl": sorted(
    name for name in ("_hashlib", "ssl") if name in sys.modules),
    "left": left}))
"""

# The obstruction layer's elimination, cohomology queries and classes, and
# the pair constructions of the zoo, none of which a tower command runs.
NOT_ON_THE_TOWER_PATH = (
    "_eliminate", "rref", "rank", "solve", "nullspace_basis", "diff_matrix",
    "coboundary_primitive", "cohomology_dim", "cohomology_representatives",
    "atiyah_class", "scalar_class", "todd_class", "MatchedPairData",
    "check_matched_pair", "matched_sum", "bialgebra_pair", "adapt_basis")


def test_obstruction_commands_load_no_tower_or_zoo_layer(tmp_path):
    pair, modules = sl2_pair()
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(dump_fixture(
        pair, modules, None, {"dual_numbers": dual_numbers_algebra(2)})))
    validate = [["validate", "--input", str(path), "--json"]]
    jobs = validate + [
        [command, "--input", str(path), "--module", "B", "--json"]
        for command in ("atiyah", "todd", "chern")]
    towers = [[command, "--input", str(path), *extra, "--json"]
              for command, extra in (
                  ("tower", ["--module", "B"]),
                  ("verify", ["--module", "B", "--max-n", "2"]),
                  ("verify", ["--algebra", "dual_numbers", "--max-n", "2"]),
                  ("symmetry", []))]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def loaded(argvs):
        done = subprocess.run([sys.executable, "-c", DIET_SCRIPT,
                               json.dumps(argvs)], env=env,
                              capture_output=True, text=True, check=True)
        report = json.loads(done.stdout)
        assert report["codes"] == [0] * len(argvs)
        # cli.run ends the process with os._exit, which would drop a thread
        # still running or an atexit callback: no command leaves either
        assert report["left"] == [[1, 0]] * len(argvs), argvs
        # no command loads OpenSSL: the input digest is the interpreter's
        assert report["openssl"] == [], argvs
        return report

    names = loaded(jobs)["loaded"]
    assert "liepairs.cli" in names
    assert "liepairs.atiyah" in names
    assert "liepairs.homotopy" not in names
    assert "liepairs.zoo" not in names
    # validate alone compiles none of the cochain and obstruction layers
    names = loaded(validate)["loaded"]
    assert "liepairs.cli" in names
    for layer in ("ce", "atiyah", "multilinear", "homotopy", "zoo"):
        assert "liepairs." + layer not in names, layer
    # each tower command compiles the tower path alone: no module it loads
    # eliminates, decides a class or constructs a pair
    for argv in towers:
        report = loaded([argv])
        assert "liepairs.homotopy" in report["loaded"], argv
        for layer in ("atiyah", "zoo"):
            assert "liepairs." + layer not in report["loaded"], (argv, layer)
        assert not set(NOT_ON_THE_TOWER_PATH) & set(report["defined"]), argv


def test_lazy_package_names_resolve_and_are_listed():
    # every name of the table resolves to its module's own object, and the
    # table holds each name once
    table = liepairs._LAZY_NAMES
    assert sum(map(len, table.values())) == len(liepairs._MODULE_OF)
    for layer, names in table.items():
        module = importlib.import_module("liepairs." + layer)
        for name in names:
            assert getattr(liepairs, name) is getattr(module, name)
            assert name in dir(liepairs)
    for name in ("atiyah_class", "build_tower", "verify_leibniz", "rref"):
        assert name in dir(liepairs)
    with pytest.raises(AttributeError):
        liepairs.no_such_name
