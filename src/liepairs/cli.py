"""Command-line surface: batch validation and verification over JSON fixtures.

Exit codes (README.md states every refusal in full):
  0  all checks pass;
  1  a mathematical check failed;
  2  unreadable or malformed input, an out-of-range flag, or a request above
     a size cap: a fixture table (fixture_io.MAX_DENSE_ENTRIES), the End(E)
     matrices of --module E, a `todd` depth above TODD_MAX_DEPTH, a tower
     --depth above 21 or index range above TOWER_MAX_ENTRIES, or the B (x) C,
     or E (x) C, that `verify --algebra C` differentiates on;
  3  structurally valid input that fails the validation gate (see _checks),
     which every command but `zoo` runs: an invalid pair, module, declared B
     other than L/A, or algebra, named by --algebra or not;
  4  an internal invariant failure: an output the library guarantees closed
     failed its cocycle check, a bug in liepairs, not bad input;
141  stdout's reader went away (a closed pipe): the exit status of a tool
     killed by SIGPIPE, with nothing more written and no traceback.
Output is deterministic; --json disables the timing line so identical inputs
give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from math import comb

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .fixture_io import (
    MAX_DENSE_ENTRIES,
    ParseError,
    dump_fixture,
    load_fixture,
)
from .lie_core import (
    NotACocycle,
    SubalgebraNotClosed,
    check_g_algebra,
    check_module,
    make_pair,
    trivial_module,
    validate_lie_algebra,
)
from .scalars import format_scalar

# The layers past validation are imported inside the commands that run them,
# so that a job compiles only what it runs: validate none of them; tower,
# verify and symmetry ``ce`` and ``homotopy`` but not the obstruction layer
# ``atiyah``; atiyah, chern and todd ``ce`` and ``atiyah``; only zoo ``zoo``.
# Besides its own work a job pays fixed costs: interpreter start-up, the
# compile of what it imports when no bytecode is cached, and argparse building
# every subcommand's parser; run() skips the interpreter's teardown.  README,
# "Where a CLI job's time goes", measures each.
# The digest takes the built-in SHA-256: importing hashlib loads libcrypto.

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_INTERNAL_ERROR = 4
EXIT_BROKEN_PIPE = 128 + 13  # 13 is SIGPIPE

# The exact Todd class grows steeply with its depth min(dim g, dim B): at depth
# 9 (gl(3) with a 1-dim module) the powers of alpha alone take seconds and the
# whole class did not finish within 90 s, so deeper requests are refused.
TODD_MAX_DEPTH = 8

# A tower tensor's dense index range grows dim_b-fold per level; a request
# whose largest tensor would span more than this many entries is refused
# before anything is built.  gl(3) verify --depth 4 spans 2.1 M.  The fixture
# loader refuses a bracket table above the same cap.
TOWER_MAX_ENTRIES = MAX_DENSE_ENTRIES


class ValidationFailure(Exception):
    """Input parsed but is not a valid pair/module/algebra."""


class RequestTooLarge(Exception):
    """A valid request above a fixed size cap; refused with exit 2."""


class RunReport:
    """Deterministic command report: per-check entries plus a payload."""

    def __init__(self, command):
        self.command = command
        self.checks = []
        self.results = {}
        self.started = time.monotonic()
        self.input_digest = None
        # the gate's violations by check name, none once a command runs
        self.gate = {}

    def check(self, name, ok, residual=None, witness=None, detail=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if residual is not None:
            entry["residual"] = residual
        if witness is not None:
            entry["witness"] = witness
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    def record(self, name, violations, witness="location", detail=None):
        """A check that fails on a library report's violations, with the
        first one's residual and witness."""
        first = violations[0] if violations else {}
        self.check(name, not violations, first.get("residual"),
                   first.get(witness), detail)

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self):
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "checks": self.checks,
            "results": self.results,
            "ok": self.ok,
        }

    def render_text(self):
        lines = []
        for c in self.checks:
            line = "%s %s" % (c["status"].upper().ljust(7), c["name"])
            if c.get("residual"):
                line += "  residual=%s" % c["residual"]
            if c.get("witness"):
                line += "  at %s" % (c["witness"],)
            if c.get("detail") is not None:
                line += "  [%s]" % (c["detail"],)
            lines.append(line)
        if self.results:
            lines.append("results: %s" % json.dumps(
                self.results, sort_keys=True))
        lines.append("summary: %s (%d checks)" %
                     ("ok" if self.ok else "FAILED", len(self.checks)))
        lines.append("elapsed: %.3fs" % (time.monotonic() - self.started))
        return "\n".join(lines)


def _load(path, report):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    report.input_digest = "sha256:" + sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    except (ValueError, RecursionError) as exc:
        # invalid UTF-8, an integer literal too long to convert, deep nesting
        raise ParseError("unreadable JSON: %s" % exc)
    return load_fixture(doc)


def _checks(fixture, everything=False):
    """The validation gate: (check name, violations, refusal) for each check
    a fixture's pair, modules and algebras must pass, and with everything
    validate's further checks, in validate's order.  A check passes when its
    violations are none; a command refused by it prints refusal.  Past a
    failing bracket or subalgebra check nothing more is checked."""
    pair = fixture.pair
    lie = validate_lie_algebra(pair.d).entries
    yield "lie_algebra", lie, lie and "invalid bracket: %s" % lie[0]
    try:
        make_pair(pair.d, pair.dim_g)
        closed = []
    except SubalgebraNotClosed as exc:
        closed = [{"location": str(exc)}]
    yield "subalgebra_closed", closed, closed and closed[0]["location"]
    if lie or closed:
        return
    gsub = pair.g_algebra()
    quotient = pair.quotient_module()
    if everything:
        # flat once Jacobi holds, so the commands do not spend time on it
        yield "quotient_module_flat", check_module(gsub, quotient).entries, None
    for name, module in sorted(fixture.modules.items()):
        flat = check_module(gsub, module).entries
        yield ("module_%s_flat" % name, flat,
               flat and "module %r not flat: %s" % (name, flat[0]))
        if name == "B":
            same = (module.dim, module.action) == (quotient.dim,
                                                   quotient.action)
            # a failure with neither residual nor witness
            yield ("module_B_matches_quotient", [] if same else [{}],
                   "module 'B' differs from the quotient module L/A of "
                   "dimension %d" % quotient.dim)
    for name, alg in sorted(fixture.algebras.items()):
        found = check_g_algebra(gsub, alg).entries
        yield ("algebra_%s" % name, found,
               found and "algebra %r: %s" % (name, found[0]))
    if not everything:
        return
    for name, mats in sorted(fixture.connections.items()):
        shapes = len(mats) == pair.dim_d and all(
            m.rows == m.cols == mats[0].rows for m in mats)
        yield "connection_%s_shape" % name, [] if shapes else [{}], None


def _capped(args, needs, entries, cap=MAX_DENSE_ENTRIES):
    """Refuse a request, before anything is built, when a dense table it
    needs has more than cap entries."""
    if entries > cap:
        raise RequestTooLarge("%s: %s %d entries, above %d" % (
            args.command, needs, entries, cap))


def _module(fixture, args):
    """The requested module, refused when its End(E) action matrices of
    (dim E)^4 entries each would be above the cap."""
    module = fixture.module(args.module)
    _capped(args, "--module %s needs End(E) matrices of" % args.module,
            module.dim ** 4)
    return module


def _connection(fixture, module, name):
    from .ce import Connection, extend_by_zero

    if name is None:
        return extend_by_zero(fixture.pair, module)
    if name not in fixture.connections:
        raise ParseError("unknown connection %r" % name)
    mats = fixture.connections[name]
    if mats[0].rows != module.dim:
        raise ValidationFailure(
            "connection %r has dimension %d, module has %d"
            % (name, mats[0].rows, module.dim))
    try:
        return Connection(fixture.pair, module, mats)
    except ValueError as exc:
        raise ValidationFailure("connection %r: %s" % (name, exc))


def _module_connection(fixture, args):
    module = _module(fixture, args)
    return module, _connection(fixture, module, args.connection)


def _cochain_json(cochain):
    return [[list(gt), list(bt), e, format_scalar(c)]
            for gt, bt, e, c in cochain.iter_nonzero()]


def cmd_atiyah(args, report, fixture):
    from .atiyah import atiyah_class, cohomology_dim, compatibility_report

    outcome = atiyah_class(fixture.pair, *_module_connection(fixture, args))
    # each class cochain is checked closed once, by the library, which
    # raises NotACocycle (exit 4) instead of returning an unclosed one
    report.check("cocycle_closed", True)
    report.results["vanishes"] = outcome.vanishes
    report.results["representative"] = _cochain_json(outcome.cocycle)
    report.results["obstruction_space_dim"] = cohomology_dim(
        fixture.pair, outcome.cocycle.module, 1, 1,
        rank_below=outcome.coboundary_rank)
    if outcome.primitive is not None:
        report.results["primitive"] = _cochain_json(outcome.primitive)
        compat = compatibility_report(outcome.repaired)
        report.check("repaired_connection_compatible", compat.ok)
        report.results["repaired_connection"] = [
            [[format_scalar(m[i, j]) for j in range(m.cols)]
             for i in range(m.rows)] for m in outcome.repaired.nabla]
    else:
        report.results["primitive"] = None


def cmd_chern(args, report, fixture):
    from .atiyah import scalar_class

    module, conn = _module_connection(fixture, args)
    outcome = scalar_class(fixture.pair, module, args.k, conn)
    report.check("scalar_class_closed", True)
    report.results["k"] = args.k
    report.results["prefactor"] = outcome.prefactor
    report.results["cochain"] = _cochain_json(outcome.cochain)


def cmd_todd(args, report, fixture):
    from .atiyah import todd_class

    pair = fixture.pair
    module, conn = _module_connection(fixture, args)
    if min(pair.dim_g, pair.dim_b) > TODD_MAX_DEPTH:
        raise RequestTooLarge("todd: depth min(dim g, dim B) = min(%d, %d) is "
                              "above %d" % (pair.dim_g, pair.dim_b, TODD_MAX_DEPTH))
    outcome = todd_class(pair, module, conn)
    degree_zero = outcome.components[0]
    report.check("degree_zero_is_one",
                 degree_zero.size == 1 and degree_zero.entries.get(0) == 1)
    for k in sorted(outcome.components):
        report.check("component_%d_closed" % k, True)
    report.results["components"] = {
        str(k): _cochain_json(c) for k, c in sorted(outcome.components.items())
    }


def _tower(fixture, args):
    from .ce import extend_by_zero
    from .homotopy import build_tower

    pair = fixture.pair
    conn_b = _connection(fixture, pair.quotient_module(), args.connection)
    module = None
    conn_e = None
    if getattr(args, "module", None):
        module = _module(fixture, args)
        conn_e = extend_by_zero(pair, module)
    # no deeper tower fits the cap once dim B >= 2 and dim g >= 1, as R_depth
    # spans 2 ** (depth + 1) entries or more; dim B = 1 or dim g = 0 never do
    deepest = TOWER_MAX_ENTRIES.bit_length() - 2
    if args.depth > deepest:
        raise RequestTooLarge("%s: --depth %d is above %d, the deepest tower "
                              "the cap admits" % (args.command, args.depth,
                                                  deepest))
    # dense index ranges: R_depth has one form and depth + 1 B-indices, its
    # differential under verify two forms, S_depth depth - 1 slots in End(E)
    forms = max(pair.dim_g, comb(pair.dim_g, 2)) if args.command == "verify" \
        else pair.dim_g
    entries = forms * pair.dim_b ** (args.depth + 1)
    if module is not None:
        entries = max(entries, pair.dim_g * pair.dim_b ** (args.depth - 1)
                      * module.dim ** 2)
    _capped(args, "--depth %d needs a dense index range of" % args.depth,
            entries, TOWER_MAX_ENTRIES)
    return build_tower(pair, conn_b, depth=args.depth, module=module,
                       conn_e=conn_e)


def cmd_tower(args, report, fixture):
    tower = _tower(fixture, args)
    report.results["depth"] = tower.depth
    report.results["tensors"] = {
        str(n): _cochain_json(tower.r[n]) for n in sorted(tower.r)
    }
    if tower.s is not None:
        report.results["module_tensors"] = {
            str(n): _cochain_json(tower.s[n]) for n in sorted(tower.s)
        }
    report.check("tower_built", True,
                 detail="%d levels" % len(tower.r))


def cmd_verify(args, report, fixture):
    from .homotopy import (check_proof_identities, verify_leibniz,
                           verify_module)

    algebra = None
    if args.algebra:
        if args.algebra not in fixture.algebras:
            raise ParseError("unknown algebra %r" % args.algebra)
        algebra = fixture.algebras[args.algebra]
        # the sweeps differentiate on B (x) C, and E (x) C under --module E,
        # whose dense action matrices are capped as End(E)'s are
        for name in ["B"] + ([args.module] if args.module else []):
            _capped(args, "--algebra %s makes %s (x) C act by matrices of"
                    % (args.algebra, name),
                    (fixture.module(name).dim * algebra.dim) ** 2)
    # the three checks share one run state, the gate's verdict on the
    # algebra included
    tower = _tower(fixture, args).cached_view()
    if algebra is not None:
        tower.once(("algebra", algebra),
                   lambda: report.gate["algebra_%s" % args.algebra])
    sweep = verify_leibniz(tower, args.max_n, args.degree_cap, algebra)
    report.record("leibniz_sweep", sweep.violations, witness="tuple",
                  detail="%d tuples" % sweep.checked)
    if tower.s is not None:
        sweep = verify_module(tower, args.max_n, args.degree_cap, algebra)
        report.record("module_sweep", sweep.violations, witness="tuple",
                      detail="%d tuples" % sweep.checked)
    for name, ok, witness in check_proof_identities(
            tower, witness_degree_cap=min(args.degree_cap, 2)):
        report.check(name, ok,
                     witness=None if ok else repr(witness))


def cmd_symmetry(args, report, fixture):
    from .homotopy import symmetry_report

    verdict = symmetry_report(_tower(fixture, args))
    for n in sorted(k for k in verdict if isinstance(k, int)):
        report.check("symmetric_arity_%d" % n, True,
                     detail="fully_symmetric=%s"
                     % verdict[n]["fully_symmetric"],
                     witness=None if verdict[n]["witness"] is None
                     else repr(verdict[n]["witness"]))
    report.results["is_symmetric_tower"] = verdict["is_symmetric_tower"]


# The flags each command's report echoes after its input path.
_ECHOED = {
    "validate": (), "atiyah": ("module",), "chern": ("module", "k"),
    "todd": ("module",), "tower": ("depth",),
    "verify": ("max_n", "degree_cap"), "symmetry": ("depth",),
}


def _run(args):
    """The one command path: load the fixture, then record every check of
    the gate (validate) or pass it and run the command into its report."""
    argv = [args.command, args.input]
    for attr in _ECHOED[args.command]:
        argv += ["--" + attr.replace("_", "-"), str(getattr(args, attr))]
    report = RunReport(argv)
    fixture = _load(args.input, report)
    if args.command == "validate":
        for name, violations, _ in _checks(fixture, everything=True):
            report.record(name, violations)
        return report
    for name, violations, refusal in _checks(fixture):
        if violations:
            raise ValidationFailure(refusal)
        report.gate[name] = violations
    args.func(args, report, fixture)
    return report


def _matrix_mult(fixture):
    """A gl_un_tn fixture's row: its pair and multiplication connection."""
    return fixture.pair, {}, {"matrix_mult": fixture.conn_mult.nabla}


# name -> (pair, modules, connections, algebras) of each built-in fixture, as
# built from the zoo module; every export adds its quotient module as B.
_ZOO = {
    "sl2": lambda zoo: zoo.sl2_pair() + (None, {
        "dual_numbers": zoo.dual_numbers_algebra(2)}),
    "sl2_swapped": lambda zoo: (zoo.sl2_pair_swapped(), {}),
    "sl2_borel": lambda zoo: (zoo.sl2_borel_pair(), {}),
    "heisenberg": lambda zoo: (zoo.heisenberg_pair(),
                               {"trivial": trivial_module(1, 1)}),
    "u2t2": lambda zoo: _matrix_mult(zoo.gl_un_tn(2)),
    "gl3": lambda zoo: _matrix_mult(zoo.gl_un_tn(3)),
    "affine_bialgebra": lambda zoo: (zoo.matched_sum(zoo.affine_bialgebra()),
                                     {}),
}


def cmd_zoo(args):
    from . import zoo

    if args.action == "list":
        print("\n".join(sorted(_ZOO) + ["random"]))
        return
    if args.name == "random":
        pair = zoo.random_pair(args.seed)
        fixture = pair, {"rand2": zoo.random_module(pair, 2, args.seed + 1)}
    elif args.name in _ZOO:
        fixture = _ZOO[args.name](zoo)
    else:
        raise ParseError("unknown zoo fixture %r" % args.name)
    pair, modules, *rest = fixture
    doc = dump_fixture(pair, {"B": pair.quotient_module(), **modules}, *rest)
    print(json.dumps(doc, indent=2, sort_keys=True))


# argparse's help formatter at the width it takes on an 80-column terminal,
# as a piped job gets it, so that no usage text, and no refusal, depends on
# $COLUMNS
_FORMATTER = partial(argparse.HelpFormatter, width=78)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liepairs", formatter_class=_FORMATTER,
        description="Exact verification of obstruction classes and homotopy "
                    "bracket identities for Lie subalgebra pairs.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser,
                             formatter_class=_FORMATTER))

    def common(p, module_default=None):
        p.add_argument("--input", required=True, help="fixture JSON path")
        p.add_argument("--json", action="store_true",
                       help="machine-readable deterministic output")
        p.add_argument("--connection", default=None,
                       help="named connection from the fixture")
        if module_default is not None:
            p.add_argument("--module", default=module_default)

    p = sub.add_parser("validate", help="run all structural validators")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("atiyah", help="obstruction cocycle/class of a module")
    common(p, module_default="B")
    p.set_defaults(func=cmd_atiyah)

    p = sub.add_parser("chern", help="scalar trace-power class")
    common(p, module_default="B")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("todd", help="Todd cochain of a module")
    common(p, module_default="B")
    p.set_defaults(func=cmd_todd)

    p = sub.add_parser("tower", help="build and print the bracket tower")
    common(p)
    p.add_argument("--module", default=None)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("verify", help="identity sweeps and proof identities")
    common(p)
    p.add_argument("--module", default=None)
    p.add_argument("--algebra", default=None)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--max-n", dest="max_n", type=int, default=3)
    p.add_argument("--degree-cap", dest="degree_cap", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("symmetry", help="adjacent-transposition symmetry scan")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("zoo", help="list or export built-in fixtures")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_zoo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "zoo" and args.action == "export" and not args.name:
        parser.error("zoo export needs a fixture name")
    if getattr(args, "depth", 2) < 2:
        parser.error("--depth must be at least 2")
    if args.command == "verify":
        if not 1 <= args.max_n <= args.depth:
            parser.error("--max-n must be between 1 and --depth (%d)"
                         % args.depth)
        if args.degree_cap < 0:
            parser.error("--degree-cap must be at least 0")
    if args.command == "chern" and args.k < 1:
        parser.error("--k must be at least 1")
    try:
        if args.command == "zoo":
            cmd_zoo(args)
            return EXIT_OK
        report = _run(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValidationFailure as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except RequestTooLarge as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except NotACocycle as exc:
        print("internal invariant failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    if report.ok:
        return EXIT_OK
    return EXIT_VALIDATION_ERROR if args.command == "validate" \
        else EXIT_CHECK_FAILURE


def run(argv=None):
    """The process entry point: main(argv), then flush stdout and stderr
    and end the process with os._exit, skipping the interpreter's teardown
    (module clean-up and a final collection), which no output needs.  The
    library starts no thread and registers no atexit callback for it to
    drop.  argparse's SystemExit and any uncaught exception take Python's
    normal exit.  main(argv) is the in-process API and never exits."""
    try:
        code = main(argv)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the job started with it shut
                stream.flush()
    except BrokenPipeError:
        # what stdout still buffers can never reach its reader; with fd 1 on
        # devnull, as Python's signal docs advise, no write to it raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = EXIT_BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    run()
