"""Tests of the benchmark itself; from the root of the tree:

    python3 -m pytest perfbench -q
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import fixtures  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from liepairs import ce, homotopy, zoo  # noqa: E402
from liepairs.lie_core import validate_lie_algebra  # noqa: E402


def _span_names(doc):
    return [doc["names"][nid] for nid in doc["span_name"]]


def test_call_through_homotopy_import_is_counted():
    pair, _ = zoo.sl2_pair()
    element = homotopy.GradedElement.basis(pair, pair.dim_b, (0,), 0)
    original = ce.ce_diff
    t = tracer.Tracer()
    t.install()
    try:
        assert homotopy.ce_diff.__wrapped__ is original
        homotopy.graded_diff(pair, pair.quotient_module(), element)
    finally:
        t.uninstall()
    assert homotopy.ce_diff is original and ce.ce_diff is original
    doc = t.to_json()
    names = _span_names(doc)
    assert names.count("ce.ce_diff") == 1
    parent = doc["span_parent"][names.index("ce.ce_diff")]
    assert names[parent] == "homotopy.graded_diff"
    assert doc["counters"]["scalars.is_zero.calls"] > 0
    assert doc["absent"] == []


def test_nested_span_self_times():
    # root [0, 100] holds a [10, 40], which holds b [15, 25], and c [50, 90].
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    duration, own = tracer.span_times(parents, starts, ends)
    assert duration == [100, 30, 10, 40]
    assert own == [30, 20, 10, 40]


def test_layer_metrics_from_spans():
    ms = 10 ** 6
    doc = {
        "names": ["cli.main", "homotopy.verify_leibniz",
                  "homotopy.leibniz_residual", "ce.ce_diff"],
        "span_name": [0, 1, 2, 3, 2, 3],
        "span_parent": [-1, 0, 1, 2, 1, 4],
        "span_start_ns": [0, 10 * ms, 20 * ms, 25 * ms, 50 * ms, 55 * ms],
        "span_end_ns": [100 * ms, 90 * ms, 40 * ms, 35 * ms, 70 * ms,
                        65 * ms],
        "counters": {"homotopy.verify_leibniz.tuples": 4,
                     "scalars.mul.calls": 3, "scalars.mul.nonint": 1,
                     "scalars.add.calls": 1},
        "absent": [], "probe_errors": [],
        "traced_wall_s": 0.1, "jobs_wall_s": 0.1,
    }
    m = tracer.layer_metrics(doc, untraced_wall_s=0.04)
    assert m["cli.self_s"] == pytest.approx(0.020)
    assert m["homotopy.verify_leibniz.self_s"] == pytest.approx(0.040)
    assert m["ce.ce_diff.calls"] == 2
    assert m["ce.ce_diff.self_s"] == pytest.approx(0.020)
    assert m["homotopy.self_s"] == pytest.approx(0.060)
    assert m["homotopy.verify_leibniz.evaluated_share"] == 0.5
    assert m["scalars.nonint_share"] == 0.25
    assert m["linalg.rref.calls"] == 0
    assert m["trace.overhead_s"] == pytest.approx(0.06)
    assert m["trace.attributed_share"] == pytest.approx(0.8)


def test_flipped_byte_counts_as_failed_job(tmp_path):
    argv = ("validate", "--input", "u2t2.json", "--json")
    stdout = b'{\n  "ok": true\n}\n'
    reference = {"fixtures": {},
                 "jobs": {" ".join(argv): {"exit": 0,
                                           "stdout": run.digest(stdout)}}}
    bench = run.Bench(str(tmp_path), "sweep-u2t2", 0, reference)
    bench.check(argv, 0, stdout, "test")
    assert (bench.attempted, bench.failed) == (1, 0)
    for pos in range(len(stdout)):
        flipped = bytearray(stdout)
        flipped[pos] ^= 0x01
        bench.check(argv, 0, bytes(flipped), "test")
    assert bench.failed == len(stdout)
    bench.check(argv, 1, stdout, "test")
    assert bench.failed == len(stdout) + 1


def test_verdict_without_reference_needs_exit_0_and_ok():
    assert run.verdict_ok(None, 0, b'{"ok": true}')
    assert not run.verdict_ok(None, 0, b'{"ok": false}')
    assert not run.verdict_ok(None, 1, b'{"ok": true}')
    assert not run.verdict_ok(None, 0, b"Traceback")


def test_child_env_pins_the_tree_and_drops_thread_fan_out(monkeypatch):
    monkeypatch.setenv("LIEPAIR_THREADS", "4")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = run.child_env("tree")
    assert "LIEPAIR_THREADS" not in env
    assert env["PYTHONPATH"] == os.path.join("tree", "src")


def _shape(doc):
    if isinstance(doc, dict):
        return {k: _shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_shape(v) for v in doc]
    return None


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_fixture_digests(tmp_path, workload):
    first = fixtures.build(workload, 5)
    digests = fixtures.write(first, str(tmp_path / "a"))
    assert fixtures.write(fixtures.build(workload, 5),
                          str(tmp_path / "b")) == digests
    other = fixtures.build(workload, 6)
    assert fixtures.write(other, str(tmp_path / "c")) != digests
    assert _shape(other) == _shape(first)
    for argv in run.WORKLOADS[workload]:
        assert argv[argv.index("--input") + 1] in digests


def test_permuted_basis_keeps_the_pair_and_its_sparsity():
    conn = zoo.gl_un_tn(2).conn_mult
    moved = fixtures.permute_basis(conn, random.Random(3))
    assert validate_lie_algebra(moved.pair.d).ok

    def nonzeros(c):
        return sorted(sum(1 for x in v if x) for row in c for v in row)

    assert nonzeros(moved.pair.d.c) == nonzeros(conn.pair.d.c)
    assert moved.pair.d.c != conn.pair.d.c


def test_round_metrics_state_times_at_reference_speed():
    ref = run.REF_LOOP_S
    # Two jobs over three rounds; in the second round the host ran at half
    # speed, so both the job and the reference loop around it took twice as
    # long.  Each entry is ((wall s, cpu s, max RSS kB), reference loop s).
    rounds = [
        [((1.0, 0.9, 1024), ref), ((3.0, 2.9, 2048), ref)],
        [((2.0, 1.8, 1024), 2 * ref), ((6.0, 5.8, 4096), 2 * ref)],
        [((1.2, 1.0, 1024), ref), ((3.0, 2.9, 2048), ref)],
    ]
    m = run.round_metrics(rounds)
    assert m["wall_ref_s"] == pytest.approx(1.0 + 3.0)
    assert m["cpu_ref_s"] == pytest.approx(0.9 + 2.9)
    assert m["peak_rss_mb"] == 4.0


def test_between_loops_shares_the_loop_between_steps(monkeypatch):
    loops = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(run, "reference_loop", lambda: next(loops))
    assert run.between_loops([lambda: "a", lambda: "b"]) == [("a", 2.0),
                                                            ("b", 4.0)]
