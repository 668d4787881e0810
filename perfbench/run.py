"""liepairs benchmark: the CLI's jobs in a closed loop, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

Run it from the root of a source tree.  Each job is a ``python -m
liepairs.cli`` child with the tree's ``src`` on PYTHONPATH; one job runs at a
time and the next starts after the previous verdict.  A run generates the
workload's fixtures from the seed and validates them (set-up, repeated
SETUP_REPEATS times), then runs the workload's job list in rounds until
``--seconds`` have passed.  A fixed pure-Python reference loop runs before
and after every job and set-up, and each time is stated at the speed at which
that loop takes REF_LOOP_S, which cancels the host's own speed changes.  A
job's time is its median over the rounds, and wall_ref_s and cpu_ref_s are
the sums of the jobs' times.  With ``--trace 1`` it adds one traced pass
(perfbench/tracer.py) and reports the per-layer metrics instead.  Every job's ``--json`` stdout must match the
stored reference byte for byte; seeds without one need exit 0 and
``"ok": true``.  ``--record`` stores the references for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Scratch files go to .perfbench_work/ under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
# A job's time is its median over at least this many rounds.
MIN_ROUNDS = 3
# The reference loop's time, in seconds, at the speed the adjusted times are
# stated in: about its median on the 2-core machine the benchmark was built
# on, so that there an adjusted time reads close to a measured one.
REF_LOOP_S = 0.2
# Past this many seconds a run kills its job, which then counts as failed,
# so that every run ends within the 180 s a run may take.
RUN_BUDGET_S = 170.0

_U2T2 = ("--input", "u2t2.json")
_GL3 = ("--input", "gl3.json")
WORKLOADS = {
    # Integer values, bracket-bound, no rref: 420 Leibniz tuples plus the
    # proof identities at witness degree 1, the Leibniz sweep at arity 4, the
    # same with the module sweep, and the symmetry scan to arity 5.
    "sweep-u2t2": (
        ("verify",) + _U2T2 + ("--connection", "matrix_mult", "--max-n", "2",
                               "--degree-cap", "1", "--json"),
        ("verify",) + _U2T2 + ("--connection", "matrix_mult", "--max-n", "4",
                               "--degree-cap", "0", "--json"),
        ("verify",) + _U2T2 + ("--connection", "matrix_mult", "--max-n", "4",
                               "--degree-cap", "0", "--module", "B",
                               "--json"),
        ("symmetry",) + _U2T2 + ("--connection", "matrix_mult", "--depth", "5",
                                 "--json"),
    ),
    # Fractions and Gaussians, elimination-bound, no tower or sweep.
    "obstruction": (
        ("atiyah",) + _U2T2 + ("--module", "E2", "--connection", "gauss_E2",
                               "--json"),
        ("atiyah",) + _U2T2 + ("--module", "E3", "--connection", "gauss_E3",
                               "--json"),
        ("atiyah",) + _GL3 + ("--module", "T1", "--connection", "gauss_T1",
                              "--json"),
        ("todd",) + _U2T2 + ("--module", "B", "--connection", "gauss_B",
                             "--json"),
        ("chern",) + _U2T2 + ("--module", "B", "--connection", "gauss_B",
                              "--k", "3", "--json"),
    ),
}
UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run cannot go on: no fixtures, or the traced pass crashed."""


def reference_loop():
    """Seconds that a fixed piece of pure-Python work takes now.

    The work is of the kinds the jobs do: small-integer arithmetic, exact
    fractions and dict updates.  The host this runs on shares its cores with
    other tenants and runs this loop, and the jobs, up to 1.7 times slower
    for minutes at a time; a job's time over this loop's time around it
    does not follow those phases.  No liepairs code runs here.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1000000):
        total += (i * i) % 7
    acc = Fraction(0)
    counts = {}
    for i in range(24000):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return time.perf_counter() - start


def adjusted(seconds, loop_s):
    """``seconds`` at the speed at which the reference loop takes
    REF_LOOP_S, from the loop's time ``loop_s`` measured around them."""
    return seconds * REF_LOOP_S / loop_s


def between_loops(steps):
    """Run each callable in ``steps`` between two reference loops.

    Returns [(result, mean of the loops before and after)]; consecutive
    steps share the loop between them.
    """
    loops = [reference_loop()]
    out = []
    for step in steps:
        result = step()
        loops.append(reference_loop())
        out.append((result, (loops[-2] + loops[-1]) / 2))
    return out


def validate_argv(fixture):
    return ("validate", "--input", fixture, "--json")


def child_env(root):
    """The jobs' environment: the tree's src first, no thread fan-out."""
    env = dict(os.environ)
    env.pop("LIEPAIR_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def digest(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def verdict_ok(reference, exit_code, stdout):
    """Whether a job's exit code and stdout are a correct verdict.

    With a reference ({"exit", "stdout" digest}) the output must match it
    byte for byte; without one the job must exit 0 reporting "ok": true.
    """
    if reference is not None:
        return (exit_code == reference["exit"]
                and digest(stdout) == reference["stdout"])
    if exit_code != 0:
        return False
    try:
        return json.loads(stdout).get("ok") is True
    except (ValueError, AttributeError):
        return False


def load_references():
    try:
        with open(REFERENCES) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def run_child(cmd, cwd, env, out_path, timeout):
    """Run one child to its end: (exit code, wall s, user+sys s, max RSS kB).

    stdout goes to out_path and stderr next to it; the child is killed after
    ``timeout`` seconds.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


class Bench:
    """One run: the workload's set-up, its jobs and the tally of verdicts."""

    def __init__(self, root, workload, seed, reference):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = os.path.join(root, WORK_DIR, workload)
        self.fixture_dir = os.path.join(self.work, "fixtures")
        self.out_dir = os.path.join(self.work, "out")
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.observed = {}
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.out_dir)

    def _child(self, cmd, cwd, out_path):
        return run_child(cmd, cwd, self.env, out_path,
                         self.deadline - time.perf_counter())

    def check(self, argv, exit_code, stdout, where):
        key = " ".join(argv)
        self.attempted += 1
        self.observed[key] = {"exit": exit_code, "stdout": digest(stdout)}
        jobs = (self.reference or {}).get("jobs", {})
        if not verdict_ok(jobs.get(key), exit_code, stdout):
            self.failed += 1
            print("perfbench: job failed (exit %d): %s [%s]"
                  % (exit_code, key, where), file=sys.stderr)

    def check_fixtures(self, digests):
        expected = self.digests or (self.reference or {}).get("fixtures")
        self.attempted += 1
        if expected is not None and digests != expected:
            self.failed += 1
            print("perfbench: fixture digests differ from %s" % expected,
                  file=sys.stderr)
        self.digests = self.digests or digests

    def job(self, argv):
        """One CLI job from launch to verdict: (wall s, cpu s, max RSS kB)."""
        out_path = os.path.join(self.out_dir, "job.stdout")
        code, wall, cpu, rss = self._child(
            [sys.executable, "-m", "liepairs.cli"] + list(argv),
            self.fixture_dir, out_path)
        with open(out_path, "rb") as handle:
            self.check(argv, code, handle.read(), out_path)
        return wall, cpu, rss

    def setup(self):
        """Generate the fixtures and validate each; return the seconds taken."""
        start = time.perf_counter()
        shutil.rmtree(self.fixture_dir, ignore_errors=True)
        listing = os.path.join(self.out_dir, "fixtures.stdout")
        code = self._child(
            [sys.executable, os.path.join(HERE, "fixtures.py"), self.workload,
             str(self.seed), self.fixture_dir], self.root, listing)[0]
        if code != 0:
            raise BenchError("fixture generation exited %d, see %s.err"
                             % (code, listing))
        with open(listing) as handle:
            digests = json.load(handle)
        self.check_fixtures(digests)
        for name in sorted(digests):
            self.job(validate_argv(name))
        return time.perf_counter() - start

    def round(self):
        """The workload's jobs once, between reference loops:
        [((wall s, cpu s, max RSS kB), reference loop s)] per job."""
        return between_loops([lambda argv=argv: self.job(argv)
                              for argv in WORKLOADS[self.workload]])

    def traced_pass(self, untraced_wall_s):
        """Run perfbench/tracer.py and return the per-layer metrics."""
        trace_dir = os.path.join(self.work, "trace")
        log = os.path.join(self.out_dir, "tracer.stdout")
        code = self._child(
            [sys.executable, os.path.join(HERE, "tracer.py"), self.workload,
             str(self.seed), trace_dir], self.root, log)[0]
        if code != 0:
            raise BenchError("traced pass exited %d, see %s.err" % (code, log))
        with open(os.path.join(trace_dir, "spans.json")) as handle:
            doc = json.load(handle)
        self.check_fixtures(doc["fixtures"])
        for job in doc["jobs"]:
            with open(job["stdout"], "rb") as handle:
                self.check(job["argv"], job["exit"], handle.read(),
                           job["stdout"])
        self_ns = tracer.by_name(doc)[2]
        for name, ns in self_ns.most_common(8):
            print("self time %-32s %10.4f s" % (name, ns / 1e9))
        if doc["absent"] or doc["probe_errors"]:
            print("perfbench: absent from the library: %s; probes failed: %s"
                  % (doc["absent"], doc["probe_errors"]), file=sys.stderr)
        return tracer.layer_metrics(doc, untraced_wall_s)


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def record(bench):
    if bench.failed:
        print("perfbench: not recording a run with failed jobs",
              file=sys.stderr)
        return 1
    refs = load_references()
    refs.setdefault(bench.workload, {})[str(bench.seed)] = {
        "fixtures": bench.digests, "jobs": bench.observed}
    with open(REFERENCES, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %s seed %d: %d jobs" % (bench.workload, bench.seed,
                                            len(bench.observed)))
    return 0


def job_median(job, field, adjust=True):
    """One job's median over the rounds of its wall (0) or cpu (1) time."""
    return statistics.median(adjusted(r[field], loop) if adjust else r[field]
                             for r, loop in job)


def round_metrics(rounds):
    """wall_ref_s and cpu_ref_s as the sums over the jobs of each job's
    median adjusted time over the rounds, and the peak RSS of any job, in
    MB."""
    per_job = list(zip(*rounds))
    return {
        "wall_ref_s": sum(job_median(job, 0) for job in per_job),
        "cpu_ref_s": sum(job_median(job, 1) for job in per_job),
        "peak_rss_mb": max(r[2] for job in per_job for r, _ in job) / 1024,
    }


def print_jobs(workload, rounds):
    """Each job's measured and adjusted median wall time, and the reference
    loop's times."""
    for argv, job in zip(WORKLOADS[workload], zip(*rounds)):
        print("%8.3f s measured %8.3f s adjusted  %s"
              % (job_median(job, 0, adjust=False), job_median(job, 0),
                 " ".join(argv)))
    loops = [loop for r in rounds for _, loop in r]
    print("reference loop %.4f s median, %.4f-%.4f s, stated at %.4f s"
          % (statistics.median(loops), min(loops), max(loops), REF_LOOP_S))


def measure(args, root):
    reference = None if args.record else \
        load_references().get(args.workload, {}).get(str(args.seed))
    # One CPU for this process and its children, so that the reference loop
    # runs where the jobs run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(root, args.workload, args.seed, reference)
    setups = between_loops([bench.setup] * (1 if args.record
                                            else SETUP_REPEATS))
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(bench.round())
        if args.record:
            return record(bench)
        # Stop at the round boundary nearest to --seconds.
        now = time.perf_counter()
        if (len(rounds) >= MIN_ROUNDS
                and now - start + (now - round_start) / 2 >= args.seconds):
            break
    print_jobs(args.workload, rounds)
    metrics = round_metrics(rounds)
    metrics["setup_s"] = statistics.median(adjusted(s, loop)
                                           for s, loop in setups)
    print("%s seed %d: %d rounds of %d jobs, %d set-ups"
          % (args.workload, args.seed, len(rounds),
             len(WORKLOADS[args.workload]), len(setups)))
    if args.trace:
        metrics = bench.traced_pass(
            sum(job_median(job, 0, adjust=False) for job in zip(*rounds)))
    for name, value in metrics.items():
        print("%-42s %14.6g %s" % (name, value, unit_of(name)))
    print("%-42s %14.6g (%d of %d jobs)"
          % ("fail_ratio", bench.failed / bench.attempted, bench.failed,
             bench.attempted))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the jobs' outputs as this seed's "
                             "references")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liepairs", "cli.py")):
        print("perfbench: no liepairs source tree under %s/src; run from "
              "the root of a checkout" % root, file=sys.stderr)
        return 2
    try:
        return measure(args, root)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
