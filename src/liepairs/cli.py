"""Command-line surface: batch validation and verification over JSON fixtures.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 unreadable or
malformed input (including a dimension that is not an integer >= 0, or a
bracket table above 2^22 entries), an out-of-range flag, a `todd` request
whose depth min(dim g, dim B) is above 8 (TODD_MAX_DEPTH), or a `tower`,
`verify` or `symmetry` request whose largest dense tensor would have more
than 2^22 entries (TOWER_MAX_ENTRIES), 3 structurally valid input that fails
validation, 4 an internal invariant failure (an output the library guarantees
closed failed its cocycle check: a bug in liepairs, not bad input).  Output
is deterministic; --json disables the timing line so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from math import comb

from .atiyah import (
    Connection,
    NotACocycle,
    atiyah_class,
    compatibility_report,
    extend_by_zero,
    scalar_class,
    todd_class,
)
from .ce import ce_diff, cohomology_dim
from .fixture_io import (
    MAX_DENSE_ENTRIES,
    Fixture,
    ParseError,
    dump_fixture,
    load_fixture,
)
from .homotopy import (
    build_tower,
    check_proof_identities,
    symmetry_report,
    verify_leibniz,
    verify_module,
)
from .lie_core import (
    SubalgebraNotClosed,
    check_g_algebra,
    check_module,
    make_pair,
    validate_lie_algebra,
)
from .scalars import format_scalar
from .zoo import (
    affine_bialgebra,
    dual_numbers_algebra,
    gl_un_tn,
    heisenberg_pair,
    matched_sum,
    random_module,
    random_pair,
    sl2_borel_pair,
    sl2_pair,
    sl2_pair_swapped,
    trivial_module,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_INTERNAL_ERROR = 4

# The exact Todd class grows steeply with its depth min(dim g, dim B): at depth
# 9 (gl(3) with a 1-dim module) the powers of alpha alone take seconds and the
# whole class did not finish within 90 s, so deeper requests are refused.
TODD_MAX_DEPTH = 8

# Tower tensors are dense with dim_b^depth-fold growth; a request whose largest
# tensor would exceed this many entries is refused before anything is built.
# gl(3) verify --depth 4 needs 2.1 M.  The fixture loader refuses a bracket
# table above the same cap.
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

    def check(self, name, ok, residual=None, witness=None, detail=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if residual is not None:
            entry["residual"] = residual
        if witness is not None:
            entry["witness"] = witness
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

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
    report.input_digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    return load_fixture(doc)


def _validated_pair(fixture: Fixture, report: RunReport):
    """Structural validation gate shared by the mathematical commands."""
    lie = validate_lie_algebra(fixture.pair.d)
    if not lie.ok:
        raise ValidationFailure("invalid bracket: %s" % lie.entries[0])
    try:
        make_pair(fixture.pair.d, fixture.pair.dim_g)
    except SubalgebraNotClosed as exc:
        raise ValidationFailure(str(exc))
    gsub = fixture.pair.g_algebra()
    for name, module in fixture.modules.items():
        flat = check_module(gsub, module)
        if not flat.ok:
            raise ValidationFailure("module %r not flat: %s"
                                    % (name, flat.entries[0]))
    return fixture.pair


def _connection(fixture, pair, module, name):
    if name is None:
        return extend_by_zero(pair, module)
    if name not in fixture.connections:
        raise ParseError("unknown connection %r" % name)
    mats = fixture.connections[name]
    if mats[0].rows != module.dim:
        raise ValidationFailure(
            "connection %r has dimension %d, module has %d"
            % (name, mats[0].rows, module.dim))
    try:
        return Connection(pair, module, mats)
    except ValueError as exc:
        raise ValidationFailure("connection %r: %s" % (name, exc))


def cmd_validate(args):
    report = RunReport(["validate", args.input])
    fixture = _load(args.input, report)
    lie = validate_lie_algebra(fixture.pair.d)
    report.check("lie_algebra", lie.ok,
                 residual=None if lie.ok else lie.entries[0]["residual"],
                 witness=None if lie.ok else lie.entries[0]["location"])
    closed = True
    witness = None
    try:
        make_pair(fixture.pair.d, fixture.pair.dim_g)
    except SubalgebraNotClosed as exc:
        closed = False
        witness = str(exc)
    report.check("subalgebra_closed", closed, witness=witness)
    gsub = fixture.pair.g_algebra()
    if lie.ok and closed:
        quotient = fixture.pair.quotient_module()
        flat = check_module(gsub, quotient)
        report.check("quotient_module_flat", flat.ok,
                     residual=None if flat.ok else flat.entries[0]["residual"])
        for name, module in sorted(fixture.modules.items()):
            flat = check_module(gsub, module)
            report.check("module_%s_flat" % name, flat.ok,
                         residual=None if flat.ok
                         else flat.entries[0]["residual"],
                         witness=None if flat.ok
                         else flat.entries[0]["location"])
            if name == "B" and module.dim == quotient.dim:
                same = all(module.action[a] == quotient.action[a]
                           for a in range(fixture.pair.dim_g))
                report.check("module_B_matches_quotient", same)
        for name, alg in sorted(fixture.algebras.items()):
            rep = check_g_algebra(gsub, alg)
            report.check("algebra_%s" % name, rep.ok,
                         residual=None if rep.ok
                         else rep.entries[0]["residual"],
                         witness=None if rep.ok
                         else rep.entries[0]["location"])
        for name, mats in sorted(fixture.connections.items()):
            shapes = len(mats) == fixture.pair.dim_d and all(
                m.rows == m.cols == mats[0].rows for m in mats)
            report.check("connection_%s_shape" % name, shapes)
    exit_code = EXIT_OK if report.ok else EXIT_VALIDATION_ERROR
    return report, exit_code


def _cochain_json(cochain):
    entries = []
    for gt, bt, e, c in cochain.iter_nonzero():
        entries.append([list(gt), list(bt), e, format_scalar(c)])
    return entries


def _closedness_check(report, name, cochain):
    image = ce_diff(cochain)
    ok = image.is_zero()
    report.check(name, ok,
                 residual=None if ok else image.first_nonzero()["value"],
                 witness=None if ok else repr(image.first_nonzero()))


def cmd_atiyah(args):
    report = RunReport(["atiyah", args.input, "--module", args.module])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    module = fixture.module(args.module)
    conn = _connection(fixture, pair, module, args.connection)
    outcome = atiyah_class(pair, module, conn)
    _closedness_check(report, "cocycle_closed", outcome.cocycle)
    report.results["vanishes"] = outcome.vanishes
    report.results["representative"] = _cochain_json(outcome.cocycle)
    report.results["obstruction_space_dim"] = cohomology_dim(
        pair, outcome.cocycle.module, 1, 1)
    if outcome.primitive is not None:
        report.results["primitive"] = _cochain_json(outcome.primitive)
        compat = compatibility_report(outcome.repaired)
        report.check("repaired_connection_compatible", compat.ok)
        report.results["repaired_connection"] = [
            [[format_scalar(m[i, j]) for j in range(m.cols)]
             for i in range(m.rows)] for m in outcome.repaired.nabla]
    else:
        report.results["primitive"] = None
    return report, EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def cmd_chern(args):
    report = RunReport(["chern", args.input, "--module", args.module,
                        "--k", str(args.k)])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    module = fixture.module(args.module)
    conn = _connection(fixture, pair, module, args.connection)
    outcome = scalar_class(pair, module, args.k, conn)
    _closedness_check(report, "scalar_class_closed", outcome.cochain)
    report.results["k"] = args.k
    report.results["prefactor"] = outcome.prefactor
    report.results["cochain"] = _cochain_json(outcome.cochain)
    return report, EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def cmd_todd(args):
    report = RunReport(["todd", args.input, "--module", args.module])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    module = fixture.module(args.module)
    conn = _connection(fixture, pair, module, args.connection)
    if min(pair.dim_g, pair.dim_b) > TODD_MAX_DEPTH:
        raise RequestTooLarge("todd: depth min(dim g, dim B) = min(%d, %d) is "
                              "above %d" % (pair.dim_g, pair.dim_b, TODD_MAX_DEPTH))
    outcome = todd_class(pair, module, conn)
    degree_zero = outcome.components[0]
    report.check("degree_zero_is_one",
                 len(degree_zero.data) == 1
                 and format_scalar(degree_zero.data[0]) == "1")
    for k in sorted(outcome.components):
        _closedness_check(report, "component_%d_closed" % k,
                          outcome.components[k])
    report.results["components"] = {
        str(k): _cochain_json(c) for k, c in sorted(outcome.components.items())
    }
    return report, EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def _tower(fixture, pair, args):
    module_b = pair.quotient_module()
    conn_b = _connection(fixture, pair, module_b, args.connection)
    module = None
    conn_e = None
    if getattr(args, "module", None):
        module = fixture.module(args.module)
        conn_e = extend_by_zero(pair, module)
    # R_depth has one form and depth + 1 B-indices; verify also takes its
    # differential (two forms), and S_depth has depth - 1 slots in End(E)
    forms = max(pair.dim_g, comb(pair.dim_g, 2)) if args.command == "verify" \
        else pair.dim_g
    entries = forms * pair.dim_b ** (args.depth + 1)
    if module is not None:
        entries = max(entries, pair.dim_g * pair.dim_b ** (args.depth - 1)
                      * module.dim ** 2)
    if entries > TOWER_MAX_ENTRIES:
        raise RequestTooLarge("%s: --depth %d needs a dense tensor of %d "
                              "entries, above %d" % (args.command, args.depth,
                                                     entries, TOWER_MAX_ENTRIES))
    return build_tower(pair, conn_b, depth=args.depth, module=module,
                       conn_e=conn_e)


def cmd_tower(args):
    report = RunReport(["tower", args.input, "--depth", str(args.depth)])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    tower = _tower(fixture, pair, args)
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
    return report, EXIT_OK


def cmd_verify(args):
    report = RunReport(["verify", args.input, "--max-n", str(args.max_n),
                        "--degree-cap", str(args.degree_cap)])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    algebra = None
    if args.algebra:
        if args.algebra not in fixture.algebras:
            raise ParseError("unknown algebra %r" % args.algebra)
        algebra = fixture.algebras[args.algebra]
        rep = check_g_algebra(pair.g_algebra(), algebra)
        if not rep.ok:
            raise ValidationFailure("algebra %r: %s"
                                    % (args.algebra, rep.entries[0]))
    tower = _tower(fixture, pair, args)
    sweep = verify_leibniz(tower, args.max_n, args.degree_cap, algebra)
    report.check("leibniz_sweep", sweep.ok,
                 residual=None if sweep.ok
                 else sweep.violations[0]["residual"],
                 witness=None if sweep.ok else sweep.violations[0]["tuple"],
                 detail="%d tuples" % sweep.checked)
    if tower.s is not None:
        msweep = verify_module(tower, args.max_n, args.degree_cap, algebra)
        report.check("module_sweep", msweep.ok,
                     residual=None if msweep.ok
                     else msweep.violations[0]["residual"],
                     witness=None if msweep.ok
                     else msweep.violations[0]["tuple"],
                     detail="%d tuples" % msweep.checked)
    for name, ok, witness in check_proof_identities(
            tower, witness_degree_cap=min(args.degree_cap, 2)):
        report.check(name, ok,
                     witness=None if ok else repr(witness))
    return report, EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def cmd_symmetry(args):
    report = RunReport(["symmetry", args.input, "--depth", str(args.depth)])
    fixture = _load(args.input, report)
    pair = _validated_pair(fixture, report)
    tower = _tower(fixture, pair, args)
    verdict = symmetry_report(tower)
    for n in sorted(k for k in verdict if isinstance(k, int)):
        report.check("symmetric_arity_%d" % n, True,
                     detail="fully_symmetric=%s"
                     % verdict[n]["fully_symmetric"],
                     witness=None if verdict[n]["witness"] is None
                     else repr(verdict[n]["witness"]))
    report.results["is_symmetric_tower"] = verdict["is_symmetric_tower"]
    return report, EXIT_OK


def _zoo_registry():
    def sl2_fixture():
        pair, modules = sl2_pair()
        return dump_fixture(pair, modules,
                            algebras={"dual_numbers":
                                      dual_numbers_algebra(pair.dim_g)})

    def sl2_swapped_fixture():
        pair = sl2_pair_swapped()
        return dump_fixture(pair, {"B": pair.quotient_module()})

    def sl2_borel_fixture():
        pair = sl2_borel_pair()
        return dump_fixture(pair, {"B": pair.quotient_module()})

    def heisenberg_fixture():
        pair = heisenberg_pair()
        return dump_fixture(pair, {"B": pair.quotient_module(),
                                   "trivial": trivial_module(pair.dim_g, 1)})

    def gl_fixture(n):
        fx = gl_un_tn(n)
        return dump_fixture(
            fx.pair, {"B": fx.module_b},
            connections={"matrix_mult": fx.conn_mult.nabla})

    def affine_bialgebra_fixture():
        pair = matched_sum(affine_bialgebra())
        return dump_fixture(pair, {"B": pair.quotient_module()})

    return {
        "sl2": sl2_fixture,
        "sl2_swapped": sl2_swapped_fixture,
        "sl2_borel": sl2_borel_fixture,
        "heisenberg": heisenberg_fixture,
        "u2t2": lambda: gl_fixture(2),
        "gl3": lambda: gl_fixture(3),
        "affine_bialgebra": affine_bialgebra_fixture,
    }


def cmd_zoo(args):
    registry = _zoo_registry()
    if args.action == "list":
        names = sorted(registry) + ["random"]
        print("\n".join(names))
        return None, EXIT_OK
    name = args.name
    if name == "random":
        pair = random_pair(args.seed)
        doc = dump_fixture(pair, {
            "B": pair.quotient_module(),
            "rand2": random_module(pair, 2, args.seed + 1),
        })
    elif name in registry:
        doc = registry[name]()
    else:
        raise ParseError("unknown zoo fixture %r" % name)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return None, EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liepairs",
        description="Exact verification of obstruction classes and homotopy "
                    "bracket identities for Lie subalgebra pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.set_defaults(func=cmd_validate)

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
        report, exit_code = args.func(args)
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
    if report is not None:
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.render_text())
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
