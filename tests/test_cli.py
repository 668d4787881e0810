import hashlib
import json

import pytest

from liepairs.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INTERNAL_ERROR,
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


def test_zoo_gl3_exports_and_validates(capsys, tmp_path):
    code, out, _ = run(capsys, ["zoo", "list"])
    assert "gl3" in out.split()
    path = export(capsys, tmp_path, "gl3")
    doc = json.loads(path.read_text())
    assert (doc["dim"], doc["dim_g"]) == (18, 9)
    assert list(doc["modules"]) == ["B"]
    assert list(doc["connection"]) == ["matrix_mult"]
    code, out, _ = run(capsys, ["validate", "--input", str(path), "--json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] and len(report["checks"]) == 6


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


def test_symmetry_takes_no_module_exit_2(capsys, tmp_path):
    # the scan reads the quotient tower only, so a module side is refused
    path = export(capsys, tmp_path, "u2t2")
    with pytest.raises(SystemExit) as exc:
        main(["symmetry", "--input", str(path), "--module", "B"])
    assert exc.value.code == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage:") == 1
    assert captured.err.endswith("error: unrecognized arguments: --module B\n")
    assert "Traceback" not in captured.err


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


def test_atiyah_over_a_zero_dimensional_subalgebra(capsys, tmp_path):
    # H^1 vanishes above the top degree dim g = 0: no traceback, no exit 1
    path = tmp_path / "g0.json"
    path.write_text(json.dumps({"dim": 1, "dim_g": 0, "modules": {
        "M": {"dim": 1, "action": []}}}))
    code, out, err = run(capsys, ["atiyah", "--input", str(path),
                                  "--module", "M", "--json"])
    assert (code, err) == (EXIT_OK, "")
    results = json.loads(out)["results"]
    assert results["obstruction_space_dim"] == 0 and results["vanishes"]


@pytest.mark.parametrize("doc", [
    {"dim": True, "dim_g": 0},
    {"dim": 2.9, "dim_g": 1},
    {"dim": "2", "dim_g": 1},
    {"dim": -1, "dim_g": 0},
    {"dim": 2, "dim_g": False},
    {"dim": 2, "dim_g": 1.0},
    {"dim": 2, "dim_g": -1},
    {"dim": 1, "dim_g": 0, "modules": {"M": {"dim": -2, "action": []}}},
    {"dim": 1, "dim_g": 0, "modules": {"M": {"dim": True, "action": []}}},
    {"dim": 1, "dim_g": 0, "modules": {"M": {"dim": "1", "action": []}}},
    {"dim": 1, "dim_g": 0, "algebra": {"A": {"dim": 1.5, "action": []}}},
    {"dim": 1, "dim_g": 0, "algebra": {"A": {"dim": -1, "action": []}}},
], ids=["dim_bool", "dim_float", "dim_str", "dim_negative", "dim_g_bool",
        "dim_g_float", "dim_g_negative", "module_negative", "module_bool",
        "module_str", "algebra_float", "algebra_negative"])
def test_fixture_loader_rejects_bad_dimensions(capsys, tmp_path, doc):
    path = tmp_path / "bad_dim.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["validate", "--input", str(path), "--json"])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and "non-negative integer" in err


def test_fixture_loader_refuses_an_oversized_bracket_table(capsys, tmp_path,
                                                           monkeypatch):
    # 161^3 = 4,173,281 entries fit under the cap and 162^3 = 4,251,528 do
    # not; the refusal is arithmetic, made before the table is allocated
    import liepairs.cli as cli_mod
    import liepairs.fixture_io as fixture_io

    class Reached(Exception):
        pass

    def fake_zero(dim):
        raise Reached

    assert 161 ** 3 <= cli_mod.TOWER_MAX_ENTRIES < 162 ** 3
    monkeypatch.setattr(fixture_io.LieAlgebra, "zero", staticmethod(fake_zero))
    with pytest.raises(Reached):
        load_fixture({"dim": 161, "dim_g": 0})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 162, "dim_g": 0}))
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE_ERROR and out == ""
    assert err.count("\n") == 1 and "4251528 entries, above 4194304" in err


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


@pytest.mark.parametrize("command", ["atiyah", "tower", "verify"])
def test_internal_invariant_failure_exit_4(capsys, tmp_path, monkeypatch,
                                           command):
    # a closedness check the library guarantees can only fail through a bug;
    # stub it to fail and the CLI must say so in one line, not a traceback
    import liepairs.atiyah as atiyah_mod

    monkeypatch.setattr(atiyah_mod, "is_cocycle", lambda w: False)
    path = export(capsys, tmp_path, "u2t2")
    code, out, err = run(capsys, [command, "--input", str(path), "--json"])
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal invariant failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["tower", "verify", "symmetry"])
def test_oversized_tower_request_exit_2(capsys, tmp_path, command):
    path = export(capsys, tmp_path, "u2t2")
    code, out, err = run(capsys, [command, "--input", str(path),
                                  "--depth", "40", "--json"])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and "--depth 40" in err
    # validation comes first: an unclosed subalgebra still exits 3
    bad = _abelian_fixture(tmp_path, [[0, 1, ["0"] * 9 + ["1"] + ["0"] * 8]])
    code, _, _ = run(capsys, [command, "--input", str(bad), "--depth", "40"])
    assert code == EXIT_VALIDATION_ERROR


def test_tower_size_cap_boundary(capsys, tmp_path, monkeypatch):
    # a 9 + 9 pair has gl(3)'s dimensions: verify --depth 4 differentiates a
    # 9 * 9^5-entry R_4 into 36 * 9^5 = 2.1 M entries and is allowed, while
    # depth 5 (19 M) is refused before the tower is built
    import liepairs.cli as cli_mod

    class Reached(Exception):
        pass

    def fake_build_tower(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli_mod, "build_tower", fake_build_tower)
    path = _abelian_fixture(tmp_path)
    for command, depth, allowed in (("verify", 4, True), ("verify", 5, False),
                                    ("tower", 4, True), ("tower", 5, False),
                                    ("symmetry", 5, False)):
        argv = [command, "--input", str(path), "--depth", str(depth)]
        if allowed:
            with pytest.raises(Reached):
                main(argv)
        else:
            code, _, err = run(capsys, argv)
            assert code == EXIT_PARSE_ERROR, (command, depth)
            assert "above 4194304" in err
    # the module side counts End(E): on u2t2 with an 8-dim module, S_8 has
    # 4 * 4^7 * 8^2 = 2^22 entries (allowed), S_9 four times that (refused),
    # while R_9 with 4 * 4^10 = 2^22 entries would be allowed alone
    fixture = gl_un_tn(2)
    doc = dump_fixture(fixture.pair, {"E8": random_module(fixture.pair, 8, 1)})
    path = tmp_path / "u2t2_e8.json"
    path.write_text(json.dumps(doc))
    argv = ["tower", "--input", str(path), "--module", "E8"]
    with pytest.raises(Reached):
        main(argv + ["--depth", "8"])
    with pytest.raises(Reached):
        main(["tower", "--input", str(path), "--depth", "9"])
    code, _, err = run(capsys, argv + ["--depth", "9"])
    assert code == EXIT_PARSE_ERROR and "16777216 entries" in err


# sha256 of each tower command's --json stdout on the zoo u2t2 fixture, as the
# dense tower kernels and the unmemoized sweeps printed it; the dense kernels
# stay as oracles in test_tower_kernels.
TOWER_GOLDENS = {
    "tower_depth5": ("b8f74f771c11023766dcc1153f7e416d"
                     "cec36c64b0e7c1b8cd4d208b9aa85faa"),
    "tower_depth4_module_b": ("a8f518637fbbb62f28b72cd5a9ee84bb"
                              "b788b6fe7846a3deb028b41f82b306f5"),
    "verify_n3_cap1": ("a926f30066761c95746617c35a2355ce"
                       "aaa3d7ead5185537e459c67bf7e66f1e"),
    "symmetry_mult": ("a84d28c7be829495955093764178f75f"
                      "2eae680e4f67469ccd9166ddf0d2d699"),
    "symmetry_zero": ("2ef8ee0a554fbe266a09c920588e1f52"
                      "facb7cb8e11c62851fd2cf574a7e00a7"),
}


def test_tower_commands_byte_identical_to_goldens(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    export(capsys, tmp_path, "u2t2")
    mult = ["--connection", "matrix_mult"]
    jobs = {
        "tower_depth5": ["tower", *mult, "--depth", "5"],
        "tower_depth4_module_b": ["tower", *mult, "--depth", "4",
                                  "--module", "B"],
        "verify_n3_cap1": ["verify", *mult, "--max-n", "3",
                           "--degree-cap", "1"],
        "symmetry_mult": ["symmetry", *mult, "--depth", "5"],
        "symmetry_zero": ["symmetry", "--depth", "5"],
    }
    for name, argv in jobs.items():
        code, out, _ = run(capsys, argv + ["--input", "u2t2.json", "--json"])
        assert code == EXIT_OK, name
        assert hashlib.sha256(out.encode()).hexdigest() == \
            TOWER_GOLDENS[name], name
