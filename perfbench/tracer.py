"""Traced pass: a workload's jobs in one process, through liepairs.cli.main,
with the public functions of every library module wrapped.

    python3 perfbench/tracer.py WORKLOAD SEED WORKDIR

needs the tree's ``src`` on PYTHONPATH.  It builds the fixtures in-process,
runs ``validate`` on each and then the workload's jobs, writes each job's
stdout under WORKDIR/out, and writes the spans and counters, which it keeps in
memory until then, to WORKDIR/spans.json.  ``layer_metrics`` turns that file
into the per-layer metrics.

Spans record (name, parent span, start, end) at each call of a public
module-level function.  ``multilinear`` helpers and the ``GaussScalar``
operators run 10^5 to 10^7 times per job, so they are counted, not spanned;
their time stays in their callers' self time.  A name that a later version of
the library no longer has is listed under "absent" and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter

LAYERS = ("scalars", "linalg", "multilinear", "lie_core", "ce", "atiyah",
          "homotopy", "zoo", "fixture_io", "cli")
COUNTED_LAYERS = ("scalars", "multilinear")
SCALAR_OPS = (("mul", ("__mul__", "__rmul__")),
              ("add", ("__add__", "__radd__")),
              ("is_zero", ("is_zero",)))

# Span names the per-layer metrics read.
NAMED = (
    "linalg.rref", "linalg.solve", "ce.ce_diff", "ce.diff_matrix",
    "homotopy.lambda_k", "homotopy.mu_k", "homotopy.graded_diff",
    "homotopy.verify_leibniz", "homotopy.leibniz_residual",
    "homotopy.verify_module", "homotopy.check_proof_identities",
    "homotopy.build_tower", "homotopy.partial_nabla",
    "homotopy.symmetry_report", "atiyah.atiyah_cocycle", "atiyah.todd_class",
    "atiyah.scalar_class", "lie_core.validate_lie_algebra",
    "lie_core.check_module", "lie_core.check_matched_pair",
    "fixture_io.load_fixture", "fixture_io.dump_fixture", "cli.main",
)
SPANNED_LAYERS = tuple(layer for layer in LAYERS
                       if layer not in COUNTED_LAYERS)


def _nonzero(values):
    return sum(1 for x in values if x)


class Tracer:
    """Wraps the library in place; ``uninstall`` puts every binding back."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.stack = [-1]
        self.counters = Counter()
        self.excluded = 0
        self.absent = []
        self.probe_errors = set()
        self.graded_keys = set()
        self.keep_alive = {}
        self._undo = []

    def now(self):
        """Nanoseconds on the span clock, which stops while probes run."""
        return time.perf_counter_ns() - self.excluded

    # -- installing -----------------------------------------------------------

    def install(self, package="liepairs"):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(package + "." + layer)
            except ImportError:
                self.absent.append(layer)
        wrappers = {}
        present = set()
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                name = layer + "." + attr
                present.add(name)
                if layer in COUNTED_LAYERS:
                    wrappers[id(value)] = (value, self._counted(name, value))
                else:
                    wrappers[id(value)] = (value, self._spanned(name, value))
        # Rebind every alias: ``from .ce import ce_diff`` in homotopy, cli and
        # the package namespace each hold their own reference.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        if "scalars" in modules:
            self._wrap_scalars(modules["scalars"])
        self.absent.extend(n for n in NAMED if n not in present)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        probe = _PROBES.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock() - tracer.excluded)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock() - tracer.excluded
                stack.pop()
            if probe is not None:
                t = clock()
                try:
                    probe(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.probe_errors.add(name)
                tracer.excluded += clock() - t
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_scalars(self, mod):
        cls = getattr(mod, "GaussScalar", None)
        if cls is None:
            self.absent.append("scalars.GaussScalar")
            return
        counters = self.counters
        for op, attrs in SCALAR_OPS:
            calls = "scalars.%s.calls" % op
            nonint = "scalars.%s.nonint" % op
            for attr in attrs:
                orig = cls.__dict__.get(attr)
                if orig is None:
                    continue
                if op == "is_zero":
                    def wrapper(a, _orig=orig, _calls=calls):
                        counters[_calls] += 1
                        return _orig(a)
                else:
                    def wrapper(a, b, _orig=orig, _calls=calls,
                                _nonint=nonint):
                        counters[_calls] += 1
                        r = _orig(a, b)
                        try:
                            if r.im or r.re.denominator != 1:
                                counters[_nonint] += 1
                        except AttributeError:  # NotImplemented
                            pass
                        return r
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, wrapper)

    # -- output ---------------------------------------------------------------

    def to_json(self):
        return {
            "names": self.names,
            "span_name": self.span_name,
            "span_parent": self.span_parent,
            "span_start_ns": self.span_start,
            "span_end_ns": self.span_end,
            "counters": dict(self.counters),
            "absent": sorted(set(self.absent)),
            "probe_errors": sorted(self.probe_errors),
        }


# -- probes: counts taken from a call's arguments and result -------------------


def _probe_rref(tracer, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    tracer.counters["linalg.rref.cells"] += m.rows * m.cols


def _probe_ce_diff(tracer, args, kwargs, result):
    tracer.counters["ce.ce_diff.allocated"] += len(result.data)
    tracer.counters["ce.ce_diff.nonzero"] += _nonzero(result.data)


def _probe_graded_diff(tracer, args, kwargs, result):
    pair, module, el = args[:3]
    algebra = args[3] if len(args) > 3 else kwargs.get("algebra")
    for obj in (pair, module, algebra):
        # Held so that ids stay unique for the life of the pass.
        tracer.keep_alive[id(obj)] = obj
    tracer.graded_keys.add((id(pair), id(module), id(algebra), el.mdim,
                             el.cdim, frozenset(el.terms.items())))
    tracer.counters["homotopy.graded_diff.distinct"] = len(tracer.graded_keys)


def _probe_sweep(name):
    def probe(tracer, args, kwargs, result):
        tracer.counters[name + ".tuples"] += result.checked
    return probe


def _probe_build_tower(tracer, args, kwargs, result):
    tensors = list(result.r.values())
    if result.s is not None:
        tensors.extend(result.s.values())
    for t in tensors:
        tracer.counters["homotopy.tower.dense_entries"] += len(t.data)
        tracer.counters["homotopy.tower.nonzero"] += _nonzero(t.data)


_PROBES = {
    "linalg.rref": _probe_rref,
    "ce.ce_diff": _probe_ce_diff,
    "homotopy.graded_diff": _probe_graded_diff,
    "homotopy.verify_leibniz": _probe_sweep("homotopy.verify_leibniz"),
    "homotopy.verify_module": _probe_sweep("homotopy.verify_module"),
    "homotopy.build_tower": _probe_build_tower,
}


# -- per-layer metrics -----------------------------------------------------------


def span_times(parents, starts, ends):
    """(duration, self time) per span.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other: the covered part of a span is the sum of its
    direct children's durations.
    """
    duration = [e - s for s, e in zip(starts, ends)]
    own = list(duration)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= duration[sid]
    return duration, own


def _ratio(num, den):
    return num / den if den else 0.0


def by_name(doc):
    """Calls, total ns and self ns per span name of a spans.json document."""
    names = doc["names"]
    duration, own = span_times(doc["span_parent"], doc["span_start_ns"],
                               doc["span_end_ns"])
    calls = Counter()
    total_ns = Counter()
    self_ns = Counter()
    for sid, nid in enumerate(doc["span_name"]):
        calls[names[nid]] += 1
        total_ns[names[nid]] += duration[sid]
        self_ns[names[nid]] += own[sid]
    return calls, total_ns, self_ns


def layer_metrics(doc, untraced_wall_s):
    """Per-layer metrics from a spans.json document.

    ``untraced_wall_s`` is the wall time of the same jobs run as separate CLI
    processes without tracing, for ``trace.overhead_s``.
    """
    names = doc["names"]
    span_name = doc["span_name"]
    calls, total_ns, self_ns = by_name(doc)
    leibniz = names.index("homotopy.verify_leibniz") \
        if "homotopy.verify_leibniz" in names else -1
    evaluated = sum(
        1 for sid, nid in enumerate(span_name)
        if names[nid] == "homotopy.leibniz_residual"
        and doc["span_parent"][sid] >= 0
        and span_name[doc["span_parent"][sid]] == leibniz)
    c = doc["counters"]

    def self_s(name):
        return self_ns[name] / 1e9

    layer_self = Counter()
    for name, ns in self_ns.items():
        layer_self[name.split(".", 1)[0]] += ns
    library_ns = sum(ns for layer, ns in layer_self.items() if layer != "cli")
    mul, add = c.get("scalars.mul.calls", 0), c.get("scalars.add.calls", 0)
    out = {
        "scalars.mul.calls": mul,
        "scalars.add.calls": add,
        "scalars.is_zero.calls": c.get("scalars.is_zero.calls", 0),
        "scalars.nonint_share": _ratio(
            c.get("scalars.mul.nonint", 0) + c.get("scalars.add.nonint", 0),
            mul + add),
        "multilinear.calls": sum(v for k, v in c.items()
                                 if k.startswith("multilinear.")),
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.rref.cells": c.get("linalg.rref.cells", 0),
        "linalg.solve.self_s": self_s("linalg.solve"),
        "ce.ce_diff.calls": calls["ce.ce_diff"],
        "ce.ce_diff.self_s": self_s("ce.ce_diff"),
        "ce.ce_diff.nonzero_share": _ratio(c.get("ce.ce_diff.nonzero", 0),
                                           c.get("ce.ce_diff.allocated", 0)),
        "ce.diff_matrix.calls": calls["ce.diff_matrix"],
        "ce.diff_matrix.self_s": self_s("ce.diff_matrix"),
        "homotopy.lambda_k.calls": calls["homotopy.lambda_k"],
        "homotopy.lambda_k.self_s": self_s("homotopy.lambda_k"),
        "homotopy.mu_k.calls": calls["homotopy.mu_k"],
        "homotopy.mu_k.self_s": self_s("homotopy.mu_k"),
        "homotopy.graded_diff.calls": calls["homotopy.graded_diff"],
        "homotopy.graded_diff.self_s": self_s("homotopy.graded_diff"),
        "homotopy.graded_diff.distinct_share": _ratio(
            c.get("homotopy.graded_diff.distinct", 0),
            calls["homotopy.graded_diff"]),
        "homotopy.verify_leibniz.tuples":
            c.get("homotopy.verify_leibniz.tuples", 0),
        "homotopy.verify_leibniz.evaluated_share": _ratio(
            evaluated, c.get("homotopy.verify_leibniz.tuples", 0)),
        "homotopy.verify_leibniz.self_s": self_s("homotopy.verify_leibniz"),
        "homotopy.verify_module.tuples":
            c.get("homotopy.verify_module.tuples", 0),
        "homotopy.verify_module.self_s": self_s("homotopy.verify_module"),
        "homotopy.check_proof_identities.self_s":
            self_s("homotopy.check_proof_identities"),
        "homotopy.build_tower.s": total_ns["homotopy.build_tower"] / 1e9,
        "homotopy.partial_nabla.calls": calls["homotopy.partial_nabla"],
        "homotopy.partial_nabla.self_s": self_s("homotopy.partial_nabla"),
        "homotopy.tower.dense_entries":
            c.get("homotopy.tower.dense_entries", 0),
        "homotopy.tower.nonzero_share": _ratio(
            c.get("homotopy.tower.nonzero", 0),
            c.get("homotopy.tower.dense_entries", 0)),
        "homotopy.symmetry_report.self_s": self_s("homotopy.symmetry_report"),
        "atiyah.atiyah_cocycle.self_s": self_s("atiyah.atiyah_cocycle"),
        "atiyah.todd_class.self_s": self_s("atiyah.todd_class"),
        "atiyah.scalar_class.self_s": self_s("atiyah.scalar_class"),
        "lie_core.validate_lie_algebra.self_s":
            self_s("lie_core.validate_lie_algebra"),
        "lie_core.check_module.self_s": self_s("lie_core.check_module"),
        "lie_core.check_matched_pair.self_s":
            self_s("lie_core.check_matched_pair"),
        "fixture_io.load_fixture.self_s": self_s("fixture_io.load_fixture"),
        "fixture_io.dump_fixture.self_s": self_s("fixture_io.dump_fixture"),
        "trace.overhead_s": doc["jobs_wall_s"] - untraced_wall_s,
        "trace.attributed_share": _ratio(library_ns / 1e9,
                                         doc["traced_wall_s"]),
    }
    for layer in SPANNED_LAYERS:
        out[layer + ".self_s"] = layer_self[layer] / 1e9
    return out


# -- the traced pass ------------------------------------------------------------------


def run_cli(main, argv, out_path):
    """One job through the CLI entry point; its stdout goes to out_path."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the job's verdict is "crashed", as in a process
            traceback.print_exc()
            code = 1
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())
    return code


def traced_pass(workload, seed, workdir):
    import fixtures
    import run
    import liepairs.cli

    tracer = Tracer()
    tracer.install()
    fixture_dir = os.path.join(workdir, "fixtures")
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    cwd = os.getcwd()
    try:
        start = tracer.now()
        digests = fixtures.write(fixtures.build(workload, seed), fixture_dir)
        os.chdir(fixture_dir)
        argvs = [run.validate_argv(name) for name in sorted(digests)]
        setup_jobs = len(argvs)
        argvs += run.WORKLOADS[workload]
        for i, argv in enumerate(argvs):
            if i == setup_jobs:
                jobs_start = time.perf_counter()
            out_path = os.path.join(out_dir, "%d.stdout" % i)
            code = run_cli(liepairs.cli.main, list(argv), out_path)
            jobs.append({"argv": list(argv), "exit": code, "stdout": out_path})
        end = tracer.now()
        real_end = time.perf_counter()
    finally:
        os.chdir(cwd)
        tracer.uninstall()
    doc = tracer.to_json()
    doc.update({
        "fixtures": digests,
        "jobs": jobs,
        "traced_wall_s": (end - start) / 1e9,
        "jobs_wall_s": real_end - jobs_start,
    })
    with open(os.path.join(workdir, "spans.json"), "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(traced_pass(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
