import hashlib
import json

import pytest

from liepairs.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    main,
)
from liepairs.fixture_io import ParseError, dump_fixture, load_fixture
from liepairs.homotopy import VerifyReport
from liepairs.lie_core import LieAlgebra, make_pair, trivial_module
from liepairs.zoo import gl_un_tn, random_extension, random_module, sl2_pair


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def export(capsys, tmp_path, name, filename=None, seed=None):
    argv = ["zoo", "export", name]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    path = tmp_path / (filename or (name + ".json"))
    path.write_text(out)
    return path


def test_zoo_list(capsys):
    code, out, _ = run(capsys, ["zoo", "list"])
    assert code == EXIT_OK
    names = out.split()
    assert "sl2" in names and "u2t2" in names and "random" in names


def test_validate_ok_and_exit_codes(capsys, tmp_path):
    path = export(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_OK
    assert "summary: ok" in out


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE_ERROR
    assert "line" in err and "column" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["validate", "--input", "/nonexistent.json"])
    assert code == EXIT_PARSE_ERROR


def test_schema_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE_ERROR


def test_invalid_algebra_exit_3(capsys, tmp_path):
    doc = {
        "dim": 3,
        "dim_g": 2,
        # antisymmetric but Jacobi fails: [h,e]=2e, [h,f]=-2f, [e,f]=h+f
        "bracket": [[0, 1, ["0", "2", "0"]],
                    [0, 2, ["0", "0", "-2"]],
                    [1, 2, ["1", "0", "1"]]],
    }
    path = tmp_path / "nojacobi.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_VALIDATION_ERROR
    # math commands refuse the fixture outright
    code2, _, err = run(capsys, ["atiyah", "--input", str(path)])
    assert code2 == EXIT_VALIDATION_ERROR
    assert "validation error" in err


def test_unclosed_subalgebra_exit_3(capsys, tmp_path):
    doc = {
        "dim": 3,
        "dim_g": 2,
        "bracket": [[0, 1, ["0", "0", "1"]]],
    }
    path = tmp_path / "unclosed.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_VALIDATION_ERROR


def test_atiyah_golden_through_cli(capsys, tmp_path):
    path = export(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, ["atiyah", "--input", str(path),
                                "--module", "B", "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["results"]["vanishes"] is False
    assert doc["results"]["representative"] == [[[1], [0], 0, "2"]]
    assert doc["results"]["obstruction_space_dim"] == 1


def test_json_output_byte_identical(capsys, tmp_path):
    path = export(capsys, tmp_path, "sl2")
    _, out1, _ = run(capsys, ["verify", "--input", str(path), "--max-n", "3",
                              "--degree-cap", "2", "--json"])
    _, out2, _ = run(capsys, ["verify", "--input", str(path), "--max-n", "3",
                              "--degree-cap", "2", "--json"])
    assert out1 == out2
    assert "elapsed" not in out1


def test_verify_exit_zero_on_theorem_backed_fixture(capsys, tmp_path):
    path = export(capsys, tmp_path, "affine_bialgebra")
    code, out, _ = run(capsys, ["verify", "--input", str(path),
                                "--max-n", "4", "--degree-cap", "2"])
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_verify_exit_one_when_a_check_fails(capsys, tmp_path, monkeypatch):
    # valid inputs cannot produce residuals, so exercise the exit wiring by
    # substituting a failing sweep
    import liepairs.cli as cli_mod

    def fake_verify(tower, max_n, degree_cap, algebra=None):
        report = VerifyReport("leibniz")
        report.checked = 1
        report.add_violation(2, ["fake"], (((0,), 0), __import__(
            "liepairs.scalars", fromlist=["ONE"]).ONE))
        return report

    monkeypatch.setattr(cli_mod, "verify_leibniz", fake_verify)
    path = export(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, ["verify", "--input", str(path),
                                "--max-n", "2", "--degree-cap", "1"])
    assert code == EXIT_CHECK_FAILURE
    assert "FAIL" in out


def test_unknown_names_exit_2(capsys, tmp_path):
    path = export(capsys, tmp_path, "sl2")
    code, _, _ = run(capsys, ["atiyah", "--input", str(path),
                              "--module", "nope"])
    assert code == EXIT_PARSE_ERROR
    code, _, _ = run(capsys, ["verify", "--input", str(path),
                              "--algebra", "nope"])
    assert code == EXIT_PARSE_ERROR
    code, _, _ = run(capsys, ["zoo", "export", "nope"])
    assert code == EXIT_PARSE_ERROR


def test_connection_must_extend_action_exit_3(capsys, tmp_path):
    path = export(capsys, tmp_path, "u2t2")
    doc = json.loads(path.read_text())
    # zero out one subalgebra slot of the declared connection
    doc["connection"]["matrix_mult"][0] = [["0"] * 4 for _ in range(4)]
    bad = tmp_path / "badconn.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["symmetry", "--input", str(bad),
                                "--connection", "matrix_mult"])
    assert code == EXIT_VALIDATION_ERROR


def test_symmetry_command_reports_verdicts(capsys, tmp_path):
    path = export(capsys, tmp_path, "u2t2")
    code, out, _ = run(capsys, ["symmetry", "--input", str(path),
                                "--connection", "matrix_mult", "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["is_symmetric_tower"] is True
    code, out, _ = run(capsys, ["symmetry", "--input", str(path), "--json"])
    doc = json.loads(out)
    assert doc["results"]["is_symmetric_tower"] is False


def test_todd_and_tower_commands(capsys, tmp_path):
    path = export(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, ["todd", "--input", str(path), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["components"]["0"] == [[[], [], 0, "1"]]
    assert doc["results"]["components"]["1"] == [[[1], [], 0, "1"]]
    code, out, _ = run(capsys, ["tower", "--input", str(path),
                                "--depth", "4", "--json"])
    doc = json.loads(out)
    assert doc["results"]["tensors"]["2"] == [[[1], [0, 0], 0, "2"]]
    assert doc["results"]["tensors"]["3"] == []


def test_zoo_random_deterministic(capsys, tmp_path):
    p1 = export(capsys, tmp_path, "random", "r1.json", seed=5)
    p2 = export(capsys, tmp_path, "random", "r2.json", seed=5)
    assert p1.read_text() == p2.read_text()
    p3 = export(capsys, tmp_path, "random", "r3.json", seed=6)
    assert p1.read_text() != p3.read_text()


def test_fixture_round_trip():
    pair, modules = sl2_pair()
    doc = dump_fixture(pair, modules)
    fixture = load_fixture(doc)
    assert fixture.pair.d.c == pair.d.c
    assert fixture.pair.dim_g == pair.dim_g
    for name, module in modules.items():
        assert fixture.modules[name].action == module.action
    redoc = dump_fixture(fixture.pair, fixture.modules)
    assert redoc == doc


def test_fixture_loader_rejects_bad_scalars():
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1, "bracket": [],
                      "modules": {"E": {"dim": 1, "action": []}}})
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1,
                      "bracket": [[0, 1, ["badnum", "0"]]]})
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1, "bracket": [[0, 0, ["1", "0"]]]})


@pytest.mark.parametrize("argv", [
    ["tower", "--depth", "1"],
    ["verify", "--depth", "2", "--max-n", "3"],
    ["chern", "--k", "0"],
    ["verify", "--degree-cap", "-1"],
])
def test_out_of_range_flags_exit_2(capsys, tmp_path, argv):
    path = export(capsys, tmp_path, "sl2")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(path)])
    assert exc.value.code == EXIT_PARSE_ERROR
    assert "usage:" in capsys.readouterr().err


def _abelian_fixture(tmp_path, bracket=()):
    """An abelian 9 + 9 pair (or one with the given brackets) and a 1-dim module."""
    pair = make_pair(LieAlgebra.zero(18), 9)
    doc = dump_fixture(pair, {"T1": trivial_module(9, 1)})
    doc["bracket"] = list(bracket)
    path = tmp_path / "abelian9.json"
    path.write_text(json.dumps(doc))
    return path


def test_todd_refuses_depth_above_cap_exit_2(capsys, tmp_path):
    path = _abelian_fixture(tmp_path)
    code, out, err = run(capsys, ["todd", "--input", str(path),
                                  "--module", "T1", "--json"])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and "min(9, 9)" in err
    # validation comes first: an unclosed subalgebra still exits 3
    bad = _abelian_fixture(tmp_path, [[0, 1, ["0"] * 9 + ["1"] + ["0"] * 8]])
    code, _, err = run(capsys, ["todd", "--input", str(bad), "--module", "T1"])
    assert code == EXIT_VALIDATION_ERROR


# sha256 of each command's --json stdout as the series Todd class and the
# dense-row rref printed it; both stay as oracles in test_atiyah/test_linalg.
CLASS_GOLDENS = {
    "atiyah": "e4bde0aceafbf9e17ca05a52dbe6888c36524ec866b66c5a0f4b8aef16dfa90b",
    "chern": "1b6f38e289c2eb81c58918c7758f0c4ffae6b42fc21b70d7a2e60edca0aceae1",
    "todd": "c1e1f5e490f3b16ef3ff20cfdcb5ffa6e4e507e4e9f1b30c038fd7889ffc0ec9",
}


def test_class_commands_byte_identical_to_goldens(capsys, tmp_path,
                                                  monkeypatch):
    fixture = gl_un_tn(2)
    pair = fixture.pair
    b = pair.quotient_module()
    e2 = random_module(pair, 2, 1)
    doc = dump_fixture(pair, {"B": b, "E2": e2}, connections={
        "gauss_B": random_extension(pair, b, 3).nabla,
        "gauss_E2": random_extension(pair, e2, 5).nabla})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u2t2.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for command, extra in (("atiyah", []), ("chern", ["--k", "3"]),
                           ("todd", [])):
        code, out, _ = run(capsys, [command, "--module", "B",
                                    "--connection", "gauss_B", *extra,
                                    "--input", "u2t2.json", "--json"])
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CLASS_GOLDENS[command], command
