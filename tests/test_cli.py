import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import liepairs.cli as cli
import liepairs.fixture_io as fixture_io
import liepairs.lie_core as lie_core
from liepairs.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    TOWER_MAX_ENTRIES,
    main,
)
from liepairs.fixture_io import ParseError, dump_fixture, load_fixture
from liepairs.homotopy import VerifyReport
from liepairs.lie_core import (
    GAlgebra,
    LieAlgebra,
    check_g_algebra,
    make_pair,
    trivial_module,
)
from liepairs.scalars import GaussScalar, format_scalar, parse_scalar
from liepairs.zoo import (
    dual_numbers_algebra,
    gl_un_tn,
    random_extension,
    random_module,
    sl2_pair,
)

from oracles import dense_check_module, dense_validate


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
    # substituting a failing sweep where cmd_verify imports it from
    import liepairs.homotopy as homotopy

    def fake_verify(tower, max_n, degree_cap, algebra=None):
        report = VerifyReport("leibniz")
        report.checked = 1
        report.add_violation(2, ["fake"], (((0,), 0), __import__(
            "liepairs.scalars", fromlist=["ONE"]).ONE))
        return report

    monkeypatch.setattr(homotopy, "verify_leibniz", fake_verify)
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


def _zoo_doc(name, seed=None):
    """The document `zoo export name [--seed seed]` prints."""
    argv = ["zoo", "export", name]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return json.loads(out.getvalue())


def test_every_zoo_fixture_round_trips_through_the_loader():
    docs = {name: _zoo_doc(name) for name in cli._ZOO}
    docs.update({"random_%d" % seed: _zoo_doc("random", seed)
                 for seed in range(3)})
    for name, doc in docs.items():
        fixture = load_fixture(doc)
        assert dump_fixture(fixture.pair, fixture.modules,
                            fixture.connections, fixture.algebras) == doc, name


def test_the_loader_keeps_no_scalars_between_loads():
    def module_state():
        return {name: copy.copy(value)
                for name, value in vars(fixture_io).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))}

    before = module_state()
    load_fixture(_zoo_doc("gl3"))
    assert module_state() == before
    assert not any(isinstance(x, GaussScalar)
                   for value in before.values() for x in value)
    assert not any(hasattr(value, "cache_info")
                   for value in vars(fixture_io).values())


# The last coefficient of the gl(3) export's last bracket entry, (15, 17),
# read after more than a thousand "0" strings; each stderr line is the one
# the loader printed when it parsed every string afresh.
@pytest.mark.parametrize("argv, value, code, err", [
    (["validate"], "1/0", EXIT_PARSE_ERROR,
     "parse error: bad scalar '1/0': Fraction(1, 0)\n"),
    (["validate"], "0*", EXIT_PARSE_ERROR,
     "parse error: bad scalar '0*': malformed rational '0*'\n"),
    (["validate"], True, EXIT_PARSE_ERROR,
     "parse error: booleans are not scalars\n"),
    (["atiyah", "--module", "B"], "3/2*i", EXIT_VALIDATION_ERROR,
     "validation error: invalid bracket: {'check': 'jacobi', 'location': "
     "(0, 12, 17, 17), 'residual': '3/2*i'}\n"),
], ids=["division_by_zero", "malformed", "boolean", "wrong_value"])
def test_a_bad_scalar_after_thousands_of_zeros(capsys, tmp_path, argv, value,
                                               code, err):
    doc = _zoo_doc("gl3")
    assert sum(x == "0" for entry in doc["bracket"] for x in entry[2]) > 1000
    assert doc["bracket"][-1][:2] == [15, 17]
    doc["bracket"][-1][2][-1] = value
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, argv[:1] + ["--input", str(path)] + argv[1:]) == \
        (code, "", err)


def _plus_one(text):
    return format_scalar(parse_scalar(text) + 1)


def _census(doc):
    """(what, doc) for each single corruption of a fixture document: 1 added
    to one bracket coefficient of a pair i < j (listed or not), or to one
    entry of one action matrix of a module or an algebra."""
    dim = doc["dim"]
    listed = {(i, j): at for at, (i, j, _) in enumerate(doc["bracket"])}
    for i in range(dim):
        for j in range(i + 1, dim):
            for t in range(dim):
                bad = copy.deepcopy(doc)
                if (i, j) in listed:
                    vec = bad["bracket"][listed[i, j]][2]
                else:
                    vec = ["0"] * dim
                    bad["bracket"].append([i, j, vec])
                vec[t] = _plus_one(vec[t])
                yield ("bracket", i, j, t), bad
    for kind in ("modules", "algebra"):
        for name, spec in sorted(doc.get(kind, {}).items()):
            for a, mat in enumerate(spec["action"]):
                for r, row in enumerate(mat):
                    for c in range(len(row)):
                        bad = copy.deepcopy(doc)
                        entries = bad[kind][name]["action"][a][r]
                        entries[c] = _plus_one(entries[c])
                        yield (kind, name, a, r, c), bad


def _gate(fixture):
    """Each check of validate's gate with its verdict and first witness."""
    return [(name, not violations, violations[:1], refusal or None)
            for name, violations, refusal in cli._checks(fixture, True)]


def test_input_census_matches_the_dense_validators(monkeypatch):
    counts = Counter()
    for name in ("sl2", "sl2_borel", "heisenberg", "affine_bialgebra"):
        for what, doc in _census(_zoo_doc(name)):
            fixture = load_fixture(doc)
            got = _gate(fixture)
            with monkeypatch.context() as dense:
                dense.setattr(cli, "validate_lie_algebra", dense_validate)
                dense.setattr(cli, "check_module", dense_check_module)
                dense.setattr(lie_core, "check_module", dense_check_module)
                assert _gate(fixture) == got, (name, what)
            caught = not all(ok for _, ok, _, _ in got)
            counts[what[0], caught] += 1
    assert counts == {("bracket", True): 42, ("bracket", False): 9,
                      ("modules", True): 20, ("modules", False): 3,
                      ("algebra", True): 7, ("algebra", False): 1}


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


def test_fixture_loader_refuses_oversized_modules_and_algebras(
        capsys, tmp_path, monkeypatch):
    # a module's End(E) matrices have dim^2 entries: 2048^2 = 2^22 fit and
    # 2049^2 do not; an algebra's multiplication table has dim^3 entries, so
    # 161 fits and 162 does not.  Each refusal is arithmetic, made before
    # anything of that size is allocated.
    import liepairs.fixture_io as fixture_io

    class Reached(Exception):
        pass

    def fake_module(dim, action):
        raise Reached

    cap = fixture_io.MAX_DENSE_ENTRIES
    assert 2048 ** 2 <= cap < 2049 ** 2 and 161 ** 3 <= cap < 162 ** 3
    monkeypatch.setattr(fixture_io, "GModule", fake_module)
    for kind, dim in (("modules", 2048), ("algebra", 161)):
        with pytest.raises(Reached):
            load_fixture({"dim": 1, "dim_g": 0,
                          kind: {"X": {"dim": dim, "action": []}}})
    for kind, dim, command, entries in (
            ("modules", 2049, "atiyah", 2049 ** 2),
            ("algebra", 162, "validate", 162 ** 3)):
        path = tmp_path / ("huge_%s.json" % kind)
        path.write_text(json.dumps({"dim": 1, "dim_g": 0,
                                    kind: {"X": {"dim": dim, "action": []}}}))
        argv = [command, "--input", str(path)]
        code, out, err = run(capsys, argv + (
            ["--module", "X"] if command == "atiyah" else []))
        assert code == EXIT_PARSE_ERROR and out == ""
        assert err.count("\n") == 1
        assert "%d entries, above %d" % (entries, cap) in err


def test_fixture_loader_rejects_bad_scalars():
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1, "bracket": [],
                      "modules": {"E": {"dim": 1, "action": []}}})
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1,
                      "bracket": [[0, 1, ["badnum", "0"]]]})
    with pytest.raises(ParseError):
        load_fixture({"dim": 2, "dim_g": 1, "bracket": [[0, 0, ["1", "0"]]]})


def _sl2_bytes(edit=None, text=None):
    """The sl2 export as JSON bytes, after edit(doc) and text edits."""
    pair, modules = sl2_pair()
    doc = dump_fixture(pair, modules,
                       algebras={"dual_numbers": dual_numbers_algebra(2)})
    if edit:
        edit(doc)
    raw = json.dumps(doc)
    for old, new in (text or {}).items():
        raw = raw.replace(old, new, 1)
    return raw.encode()


def _set_first_coefficient(value):
    def edit(doc):
        doc["bracket"][0][2][1] = value
    return edit


def _set_first_entry(table, entry):
    # JSON true and false are Python bools, and bool is a subclass of int
    def edit(doc):
        table(doc)[0] = entry
    return edit


@pytest.mark.parametrize("raw", [
    _sl2_bytes(lambda doc: doc.update(bracket=5)),
    _sl2_bytes(lambda doc: doc["algebra"]["dual_numbers"].update(mult=5)),
    _sl2_bytes(_set_first_coefficient("BIG"), {'"BIG"': "9" * 5001}),
    _sl2_bytes(_set_first_coefficient("1e999999")),
    _sl2_bytes(_set_first_coefficient("1e5")),
    _sl2_bytes(_set_first_coefficient("1_0")),
    _sl2_bytes(_set_first_coefficient("\u0663")),
    _sl2_bytes(_set_first_coefficient("9" * 5000)),
    _sl2_bytes(_set_first_entry(lambda doc: doc["bracket"],
                                [0, True, ["0", "2", "0"]])),
    _sl2_bytes(_set_first_entry(
        lambda doc: doc["algebra"]["dual_numbers"]["mult"],
        [0, False, ["1", "0"]])),
    json.dumps({"dim": 10 ** 4000, "dim_g": 0}).encode(),
    b"[" * 100000,
    b'{"dim": "\xff"}',
], ids=["bracket_not_a_list", "mult_not_a_list", "integer_of_5001_digits",
        "scalar_exponent", "scalar_small_exponent", "scalar_underscore",
        "scalar_arabic_indic_digit", "scalar_string_of_5000_digits",
        "boolean_bracket_index", "boolean_mult_index",
        "dim_too_long_to_print", "nesting_too_deep", "not_utf8"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    for command in ("validate", "atiyah"):
        code, out, err = run(capsys, [command, "--input", str(path)])
        assert (code, out) == (EXIT_PARSE_ERROR, ""), command
        assert err.count("\n") == 1 and err.startswith("parse error"), err


def test_fixture_loader_refuses_a_repeated_mult_entry(capsys, tmp_path):
    # mult is not antisymmetric, so the export holds (0, 1) and (1, 0) as two
    # entries; a second (0, 1) is refused like a repeated bracket entry
    def repeat(doc):
        doc["algebra"]["dual_numbers"]["mult"].append([0, 1, ["0", "1"]])

    mult = json.loads(_sl2_bytes())["algebra"]["dual_numbers"]["mult"]
    assert [0, 1] in [e[:2] for e in mult] and [1, 0] in [e[:2] for e in mult]
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes())
    assert run(capsys, ["validate", "--input", str(path)])[0] == EXIT_OK
    path.write_bytes(_sl2_bytes(repeat))
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == ("parse error: duplicate algebra 'dual_numbers' mult entry "
                   "(0, 1)\n")


# Inputs around SHA-256's 64-byte block and its padding boundary (a message
# of 55 bytes pads into one block, 56 into two), one of many blocks, and
# bytes of every value, most of them neither ASCII nor UTF-8.
DIGEST_INPUTS = [bytes((131 * i + 7) % 256 for i in range(n))
                 for n in (0, 55, 56, 63, 64, 65, 10 ** 5)] + [
    '{"dim": "\u00e9\u2202"}'.encode(), b'{"dim": "\xff"}']


def _digests(module, tmp_path):
    """The input digest module._load records for each of DIGEST_INPUTS; it
    is recorded before the bytes are parsed, so input that is no fixture
    serves as well."""
    out = []
    for raw in DIGEST_INPUTS:
        path = tmp_path / "input.bin"
        path.write_bytes(raw)
        report = module.RunReport("validate")
        with contextlib.suppress(ParseError):
            module._load(str(path), report)
        out.append(report.input_digest)
    return out


EXPECTED_DIGESTS = ["sha256:" + hashlib.sha256(raw).hexdigest()
                    for raw in DIGEST_INPUTS]


def test_the_input_digest_is_sha256_without_hashlib(capsys, tmp_path):
    # the interpreter's built-in module, not hashlib's OpenSSL one
    assert cli.sha256.__module__ in ("_sha2", "_sha256")
    assert _digests(cli, tmp_path) == EXPECTED_DIGESTS
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes())
    code, out, _ = run(capsys, ["validate", "--input", str(path), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["input_digest"] == \
        "sha256:" + hashlib.sha256(_sl2_bytes()).hexdigest()


def test_the_input_digest_falls_back_to_hashlib(monkeypatch, tmp_path):
    # an interpreter built without _sha2 (3.12+) and _sha256 (3.10-3.11):
    # a fresh copy of the CLI module takes the hashlib branch
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location(
        "liepairs._cli_without_builtin_sha256", cli.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    assert _digests(fallback, tmp_path) == EXPECTED_DIGESTS


def test_validate_follows_the_nonzeros_of_an_algebra(capsys, tmp_path):
    # a 60-dim algebra with an empty table and a zero action (18 KB) took
    # 19.8 s when the check formed every product of basis vectors densely,
    # and a 161-dim one (130 KB) about 1 s at 91 MB peak RSS when the loader
    # stored the products as a dense d x d x d table
    for dim in (60, 161):
        path = tmp_path / ("zero_algebra_%d.json" % dim)
        path.write_text(json.dumps({
            "dim": 2, "dim_g": 1, "bracket": [], "algebra": {"Z": {
                "dim": dim, "action": [[["0"] * dim for _ in range(dim)]],
                "mult": []}}}))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["validate", "--input", str(path),
                                    "--json"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        checks = json.loads(out)["checks"]
        assert {"name": "algebra_Z", "status": "pass"} in checks
        assert elapsed < 1.0, (dim, elapsed)


def _add_small_connection(doc):
    # 2 x 2 matrices, while sl2's quotient module B is 1-dimensional
    doc["connection"] = {"small": [[["0", "0"], ["0", "0"]]] * doc["dim"]}


def _add_bent_module(doc):
    # e acts by 1 and h by 0, but [h, e] = 2e must then act by 0
    doc["modules"]["bent"] = {"dim": 1, "action": [[["0"]], [["1"]]]}


def _break_dual_numbers(doc):
    # eps * 1 = 1 while 1 * eps = eps
    mult = doc["algebra"]["dual_numbers"]["mult"]
    next(e for e in mult if e[:2] == [1, 0])[2] = ["1", "0"]


@pytest.mark.parametrize("edit, argv, code, line, check", [
    (None, ["tower", "--connection", "nope"], EXIT_PARSE_ERROR,
     "parse error: unknown connection 'nope'\n", None),
    (_add_small_connection, ["tower", "--connection", "small"],
     EXIT_VALIDATION_ERROR,
     "validation error: connection 'small' has dimension 2, module has 1\n",
     None),
    (_add_bent_module, ["atiyah", "--module", "bent"], EXIT_VALIDATION_ERROR,
     "validation error: module 'bent' not flat: ", "module_bent_flat"),
    (_break_dual_numbers, ["verify", "--algebra", "dual_numbers"],
     EXIT_VALIDATION_ERROR, "validation error: algebra 'dual_numbers': ",
     "algebra_dual_numbers"),
], ids=["unknown_connection", "connection_of_another_dimension",
        "module_not_flat", "algebra_not_a_g_algebra"])
def test_invalid_requests_exit_with_one_stderr_line(capsys, tmp_path, edit,
                                                    argv, code, line, check):
    # where the fixture itself is invalid, validate names the failing check
    # with its residual and witness
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes(edit))
    got, out, err = run(capsys, argv + ["--input", str(path)])
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith(line), err
    if check is None:
        return
    got, out, err = run(capsys, ["validate", "--input", str(path), "--json"])
    assert (got, err) == (EXIT_VALIDATION_ERROR, "")
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == [check]
    assert failed[0]["residual"] and failed[0]["witness"]


@pytest.mark.parametrize("argv", [
    ["atiyah"], ["chern"], ["todd"], ["tower"], ["verify"], ["symmetry"]],
    ids=lambda argv: argv[0])
def test_a_broken_algebra_refuses_every_command(capsys, tmp_path, argv):
    # the gate checks every algebra of the fixture, named or not, as validate
    # does; these commands used to exit 0 on it
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes(_break_dual_numbers))
    code, out, err = run(capsys, argv + ["--input", str(path), "--json"])
    assert (code, out) == (EXIT_VALIDATION_ERROR, "")
    assert err.count("\n") == 1
    assert err.startswith("validation error: algebra 'dual_numbers': "), err


def _zero_b(dim):
    """Replace sl2's module B by the zero module of dimension dim; its
    quotient L/A is 1-dimensional with h acting by -2."""
    def edit(doc):
        doc["modules"]["B"] = {"dim": dim, "action": [
            [["0"] * dim for _ in range(dim)]] * 2}
    return edit


@pytest.mark.parametrize("dim", [1, 2])
def test_a_declared_b_must_be_the_quotient(capsys, tmp_path, dim):
    # on the 2-dim zero B, validate exited 0 and atiyah --module B printed
    # vanishes: true over a 4-dim obstruction space (the quotient gives false
    # and 1); on the 1-dim one atiyah and verify --module B exited 0
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes())
    _, out, _ = run(capsys, ["validate", "--input", str(path), "--json"])
    valid = json.loads(out)["checks"]
    path.write_bytes(_sl2_bytes(_zero_b(dim)))
    code, out, err = run(capsys, ["validate", "--input", str(path), "--json"])
    assert (code, err) == (EXIT_VALIDATION_ERROR, "")
    checks = json.loads(out)["checks"]
    mismatch = {"name": "module_B_matches_quotient", "status": "fail"}
    assert checks == [mismatch if c["name"] == mismatch["name"] else c
                      for c in valid]
    line = ("validation error: module 'B' differs from the quotient module "
            "L/A of dimension 1\n")
    for argv in (["atiyah", "--module", "B"], ["chern", "--module", "B_dual"],
                 ["todd"], ["tower"], ["verify", "--module", "B"],
                 ["symmetry"]):
        code, out, err = run(capsys, argv + ["--input", str(path), "--json"])
        assert (code, out, err) == (EXIT_VALIDATION_ERROR, "", line), argv


def test_verify_checks_the_algebra_once_per_run(capsys, tmp_path,
                                                monkeypatch):
    # the gate checks each algebra once, before the size cap, and hands its
    # verdict on the named one to the sweeps
    import liepairs.cli as cli_mod
    import liepairs.homotopy as homotopy

    calls = []

    def counting(*args):
        calls.append(args)
        return check_g_algebra(*args)

    for module in (cli_mod, homotopy):
        monkeypatch.setattr(module, "check_g_algebra", counting)
    path = tmp_path / "sl2.json"
    path.write_bytes(_sl2_bytes())
    code, _, _ = run(capsys, [
        "verify", "--input", str(path), "--module", "B", "--algebra",
        "dual_numbers", "--max-n", "3", "--degree-cap", "1"])
    assert code == EXIT_OK
    assert len(calls) == 1
    # with a second algebra in the fixture, one call per algebra
    calls.clear()
    path.write_bytes(_sl2_bytes(lambda doc: doc["algebra"].update(
        unit={"dim": 1, "action": [[["0"]], [["0"]]],
              "mult": [[0, 0, ["1"]]]})))
    code, _, _ = run(capsys, [
        "verify", "--input", str(path), "--module", "B", "--algebra",
        "dual_numbers", "--max-n", "3", "--degree-cap", "1"])
    assert code == EXIT_OK
    assert sorted(algebra.dim for _, algebra in calls) == [1, 2]


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


def test_chern_past_the_depth_is_the_empty_class(capsys, tmp_path):
    # tr(alpha^k) vanishes for k > min(dim g, dim B), 1 on sl2, so no power
    # of alpha is formed there and the time does not grow with k
    path = export(capsys, tmp_path, "sl2")
    start = time.perf_counter()
    code, out, _ = run(capsys, ["chern", "--input", str(path), "--module",
                                "B", "--k", str(10 ** 12), "--json"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert json.loads(out)["results"]["cochain"] == []
    assert elapsed < 0.5, elapsed


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
    import liepairs.ce as ce

    monkeypatch.setattr(ce, "is_cocycle", lambda w: False)
    path = export(capsys, tmp_path, "u2t2")
    code, out, err = run(capsys, [command, "--input", str(path), "--json"])
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal invariant failure:")
    assert "Traceback" not in err


def _counted_kernels(monkeypatch):
    """Counts, by input, each differential ce computes, each assembly of a
    differential and each elimination."""
    import liepairs.atiyah as atiyah
    import liepairs.ce as ce

    calls = Counter()

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key(*args)] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(ce, "_ce_into", lambda total, w: (
        "d", w.k, w.l, w.module.dim, tuple(w.iter_nonzero())))
    counting(atiyah, "_diff_columns", lambda pair, module, k, l=0:
             ("assembled", k, l, module.dim))
    counting(atiyah, "_eliminate", lambda rows, cols: ("eliminated",))
    return calls


@pytest.mark.parametrize("command, extra, differentials", [
    ("atiyah", [], 1), ("chern", ["--k", "3"], 2), ("todd", [], 6)])
def test_class_commands_differentiate_each_cochain_once(
        capsys, tmp_path, monkeypatch, command, extra, differentials):
    # the obstruction cocycle and each class cochain are checked closed once,
    # by the library: atiyah 1, chern 2, and todd 1 + (depth + 1) with depth
    # min(dim g, dim B) = 4 on u2t2 (it ran 1 + 2 (depth + 1) = 11 before).
    # atiyah assembles and eliminates d_0 once, for the primitive and for
    # the rank the obstruction space dimension subtracts, and d_1 once.
    fixture = gl_un_tn(2)
    b = fixture.pair.quotient_module()
    path = tmp_path / "u2t2.json"
    path.write_text(json.dumps(dump_fixture(fixture.pair, {"B": b}, connections={
        "gauss_B": random_extension(fixture.pair, b, 3).nabla})))
    calls = _counted_kernels(monkeypatch)
    code, _, _ = run(capsys, [command, "--input", str(path), "--module", "B",
                              "--connection", "gauss_B", *extra, "--json"])
    assert code == EXIT_OK
    diffs = [key for key in calls if key[0] == "d"]
    assert len(diffs) == differentials
    assert all(calls[key] == 1 for key in diffs)
    rest = {key: n for key, n in calls.items() if key[0] != "d"}
    assert rest == ({("assembled", 0, 1, 16): 1, ("assembled", 1, 1, 16): 1,
                     ("eliminated",): 2} if command == "atiyah" else {})


def _sl2_with_trivial_module(tmp_path, dim):
    """sl2 with its module B and a valid dim-dimensional trivial module T."""
    pair, modules = sl2_pair()
    path = tmp_path / ("sl2_T%d.json" % dim)
    path.write_text(json.dumps(dump_fixture(pair, {
        "B": modules["B"], "T": trivial_module(pair.dim_g, dim)})))
    return path


@pytest.mark.parametrize("command",
                         ["atiyah", "chern", "todd", "tower", "verify"])
def test_oversized_module_endomorphisms_exit_2(capsys, tmp_path, command):
    # End(E) acts by dim g matrices of (dim E)^4 entries each: on a valid
    # 120-dimensional module that is 207,360,000, and the request is refused
    # after validation and before End(E) is built
    path = _sl2_with_trivial_module(tmp_path, 120)
    code, out, err = run(capsys, [command, "--input", str(path),
                                  "--module", "T", "--json"])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("%s: --module T needs End(E) matrices of 207360000 "
                          "entries, above 4194304" % command)


def test_module_endomorphism_cap_boundary(capsys, tmp_path, monkeypatch):
    # 45^4 = 4,100,625 entries fit under the cap and 46^4 = 4,477,456 do not;
    # the refusal is arithmetic, made before End(E) is built
    import liepairs.ce as ce

    class Reached(Exception):
        pass

    def fake_end_module(module):
        raise Reached

    monkeypatch.setattr(ce, "end_module", fake_end_module)
    with pytest.raises(Reached):
        main(["atiyah", "--input", str(_sl2_with_trivial_module(tmp_path, 45)),
              "--module", "T"])
    code, out, err = run(capsys, [
        "atiyah", "--input", str(_sl2_with_trivial_module(tmp_path, 46)),
        "--module", "T"])
    assert code == EXIT_PARSE_ERROR and out == ""
    assert "4477456 entries, above 4194304" in err


@pytest.mark.parametrize("command, depth", [
    pytest.param(command, depth,
                 id=command if depth == 40 else "%s-%d" % (command, depth))
    for depth in (40, 10000, 10 ** 9)
    for command in ("tower", "verify", "symmetry")])
def test_oversized_tower_request_exit_2(capsys, tmp_path, command, depth):
    # from about --depth 7,150 on u2t2 the dense index range has more digits
    # than Python prints, and at 10^8 forming it took 1.1 s and 103 MB; the
    # refusal is decided without forming it
    path = export(capsys, tmp_path, "u2t2")
    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--input", str(path),
                                  "--depth", str(depth), "--json"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and "--depth %d" % depth in err
    assert elapsed < 1.0, elapsed
    # validation comes first: an unclosed subalgebra still exits 3
    bad = _abelian_fixture(tmp_path, [[0, 1, ["0"] * 9 + ["1"] + ["0"] * 8]])
    code, _, _ = run(capsys, [command, "--input", str(bad), "--depth",
                              str(depth)])
    assert code == EXIT_VALIDATION_ERROR


@pytest.mark.parametrize("depth", [22, 10000])
@pytest.mark.parametrize("dim_g", [2, 0], ids=["sl2", "dim_g_0"])
def test_depth_above_21_refused_where_the_index_range_stays_small(
        capsys, tmp_path, depth, dim_g):
    # sl2 has dim B = 1 and the abelian pair dim g = 0, so their index
    # ranges never grow with the depth and only the bound on the levels
    # refuses them (sl2 --depth 10000 ran for 35 s)
    if dim_g:
        path = export(capsys, tmp_path, "sl2")
    else:
        path = tmp_path / "abelian2.json"
        path.write_text(json.dumps(dump_fixture(
            make_pair(LieAlgebra.zero(2), 0), {})))
    start = time.perf_counter()
    code, out, err = run(capsys, ["tower", "--input", str(path),
                                  "--depth", str(depth), "--json"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and "--depth %d" % depth in err
    assert elapsed < 1.0, elapsed


def test_depth_21_is_built_on_a_one_dimensional_quotient(capsys, tmp_path):
    # 21 = TOWER_MAX_ENTRIES.bit_length() - 2, the deepest tower the cap
    # admits on a pair with dim B >= 2 and dim g >= 1
    assert TOWER_MAX_ENTRIES.bit_length() - 2 == 21
    path = export(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, ["tower", "--input", str(path),
                                "--depth", "21", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["depth"] == 21


def test_tower_size_cap_boundary(capsys, tmp_path, monkeypatch):
    # a 9 + 9 pair has gl(3)'s dimensions: verify --depth 4 differentiates a
    # 9 * 9^5-entry R_4 into 36 * 9^5 = 2.1 M entries and is allowed, while
    # depth 5 (19 M) is refused before the tower is built
    import liepairs.homotopy as homotopy

    class Reached(Exception):
        pass

    def fake_build_tower(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(homotopy, "build_tower", fake_build_tower)
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


def _sl2_with_zero_algebra(tmp_path, dim_t, dim_c):
    """sl2 with a dim_t-dimensional trivial module T and a dim_c-dimensional
    algebra Z whose products and action are all zero."""
    pair, modules = sl2_pair()
    path = tmp_path / ("sl2_T%d_Z%d.json" % (dim_t, dim_c))
    path.write_text(json.dumps(dump_fixture(
        pair, {"B": modules["B"], "T": trivial_module(pair.dim_g, dim_t)},
        algebras={"Z": GAlgebra(trivial_module(pair.dim_g, dim_c), {})})))
    return path


def test_oversized_algebra_tensored_module_exit_2(capsys, tmp_path):
    # verify --algebra differentiates on M (x) C, whose dim g action matrices
    # have (dim M * dim C)^2 entries each: (13 * 161)^2 = 4,380,649 is above
    # the cap, and the request is refused before the tower is built
    path = _sl2_with_zero_algebra(tmp_path, 13, 161)
    code, out, err = run(capsys, ["verify", "--input", str(path), "--module",
                                  "T", "--algebra", "Z", "--json"])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == ("verify: --algebra Z makes T (x) C act by matrices of "
                   "4380649 entries, above 4194304\n")
    # the quotient side counts too: B of dimension 19 on an abelian 1 + 19
    # pair gives (19 * 161)^2 entries
    pair = make_pair(LieAlgebra.zero(20), 1)
    doc = dump_fixture(pair, algebras={
        "Z": GAlgebra(trivial_module(1, 161), {})})
    path = tmp_path / "abelian20_z161.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["verify", "--input", str(path),
                                  "--algebra", "Z"])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.startswith("verify: --algebra Z makes B (x) C act by matrices "
                          "of 9357481 entries")


def test_algebra_tensored_module_cap_boundary(capsys, tmp_path, monkeypatch):
    # 16 * 128 = 2048 and 2048^2 = 2^22 entries are allowed; 16 * 129 = 2064
    # (4,260,096 entries) is refused before the tower is built
    import liepairs.homotopy as homotopy

    class Reached(Exception):
        pass

    def fake_build_tower(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(homotopy, "build_tower", fake_build_tower)
    argv = ["verify", "--module", "T", "--algebra", "Z", "--input"]
    with pytest.raises(Reached):
        main(argv + [str(_sl2_with_zero_algebra(tmp_path, 16, 128))])
    code, out, err = run(capsys, argv + [str(_sl2_with_zero_algebra(
        tmp_path, 16, 129))])
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert "4260096 entries, above 4194304" in err
    # without the module side only B (x) C counts, 129-dimensional here
    with pytest.raises(Reached):
        main(argv[:1] + argv[3:] + [str(_sl2_with_zero_algebra(
            tmp_path, 16, 129))])


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



# sha256 of verify --json with the dual numbers as coefficient algebra, on
# u2t2 with a seeded connection on B and the module sweep, as the sweeps
# printed it when they evaluated every degree-0 tuple one bracket at a time
ALGEBRA_VERIFY_GOLDEN = ("70bd21caf2433ab6a4c3b76f6085cb6c"
                         "68558450adfa675f48b36e705a1140e2")


def test_verify_with_an_algebra_byte_identical_to_golden(capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    fx = gl_un_tn(2)
    doc = dump_fixture(
        fx.pair, {"B": fx.module_b},
        connections={"seeded": random_extension(
            fx.pair, fx.pair.quotient_module(), 3).nabla},
        algebras={"dual_numbers": dual_numbers_algebra(fx.pair.dim_g)})
    (tmp_path / "u2t2_alg.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, [
        "verify", "--input", "u2t2_alg.json", "--connection", "seeded",
        "--module", "B", "--algebra", "dual_numbers", "--max-n", "3",
        "--degree-cap", "1", "--json"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ALGEBRA_VERIFY_GOLDEN


# -- fuzz: type-breaking mutations of exported fixtures ------------------------

FUZZ_FIXTURES = ("sl2", "heisenberg", "affine_bialgebra", "u2t2")

# Mutations no slot of the given kind accepts: a value to put in its place, or
# "drop"/"append" of a list's last element ("dim": an index equal to the
# dimension).  "BIG" becomes an integer literal of 5,001 digits in the JSON
# text, more than json.loads will convert.
_NOT_A_LIST = (5, "x", None, {})
_MUTATIONS = {
    "dim": ("3", 1.5, None, [], -1),
    "table": _NOT_A_LIST,
    "entry": _NOT_A_LIST + ("drop", "append"),
    "index": ("0", 1.5, None, [], -1, "dim", 10 ** 6),
    "vector": _NOT_A_LIST + ("drop", "append"),
    "scalar": ("1e999999", "BIG", "1e3", "2.0", "2_0", "", "x", "1/0",
               "1//2", "i*i", None, True, 1.5, [], {}),
    "matrices": _NOT_A_LIST + ("drop", "append"),
    "object": (5, "x", None, []),
}


def _slots(doc):
    """(container, key, kind) for every slot a mutation may break."""
    slots = [(doc, "dim", "dim"), (doc, "dim_g", "dim"),
             (doc, "bracket", "table")]

    def table(entries):
        for pos, entry in enumerate(entries):
            slots.extend([(entries, pos, "entry"), (entry, 0, "index"),
                          (entry, 1, "index"), (entry, 2, "vector")])
            vector(entry[2])

    def vector(values):
        slots.extend((values, pos, "scalar") for pos in range(len(values)))

    def matrices(owner, key):
        slots.append((owner, key, "matrices"))
        for mat in owner[key]:
            slots.extend((mat, r, "vector") for r in range(len(mat)))
            for row in mat:
                vector(row)

    table(doc["bracket"])
    for section in ("modules", "connection", "algebra"):
        if section not in doc:
            continue
        slots.append((doc, section, "object"))
        for name, spec in doc[section].items():
            slots.append((doc[section], name, "object"))
            if section == "connection":
                matrices(doc[section], name)
                continue
            slots.append((spec, "dim", "dim"))
            matrices(spec, "action")
            if "mult" in spec:
                slots.append((spec, "mult", "table"))
                table(spec["mult"])
    return slots


def _mutate(container, key, mutation):
    value = container[key]
    if mutation == "drop":
        container[key] = value[:-1]
    elif mutation == "append":
        container[key] = value + value[-1:] if value else [[]]
    elif mutation == "dim":
        container[key] = len(container[2])
    else:
        container[key] = mutation


@pytest.fixture(scope="module")
def fuzz_exports(tmp_path_factory):
    docs = {name: json.loads(_zoo_export(name)) for name in FUZZ_FIXTURES}
    return docs, tmp_path_factory.mktemp("fuzz") / "mutated.json"


def _zoo_export(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["zoo", "export", name]) == EXIT_OK
    return out.getvalue()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_fixtures_exit_2_or_3_with_one_stderr_line(fuzz_exports,
                                                          data):
    docs, path = fuzz_exports
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(FUZZ_FIXTURES))])
    kind = data.draw(st.sampled_from(sorted(_MUTATIONS)))
    container, key, _ = data.draw(st.sampled_from(
        [slot for slot in _slots(doc) if slot[2] == kind]))
    _mutate(container, key, data.draw(st.sampled_from(_MUTATIONS[kind])))
    path.write_text(json.dumps(doc).replace('"BIG"', "9" * 5001))
    for command in ("validate", "atiyah"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path)])
        assert code in (EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR), command
        assert err.getvalue().count("\n") == 1, (command, err.getvalue())


# -- byte gates on validate and zoo export ---------------------------------------

# sha256 of stdout (and the exit code) of every zoo export and of validate
# --json on three exports and on the two invalid sl2 fixtures of
# test_invalid_requests_exit_with_one_stderr_line, each run from the directory
# that holds its input, as the CLI printed them when validate and the
# mathematical commands validated along two separate paths and the zoo table
# was a set of builder functions.
GATE_GOLDENS = {
    "export_affine_bialgebra": [0, ("ead47dc25dce3d179a1923c34ce7998f"
                                    "755c414b74ac0cff3091434ac90f4112")],
    "export_gl3": [0, ("54de9db2a9c7b089f0c2e97d3463de9f"
                       "1529a9f4789ba97b39a6513fa514ab59")],
    "export_heisenberg": [0, ("4ca182a6e646f574da4ab49aee304a46"
                              "6f1f45fee75ee4950afe8f3f04b90b08")],
    "export_random_0": [0, ("4202db38acbe860cafbef4708ba59133"
                            "a27a401716a949d41347a03ec9c22143")],
    "export_random_1": [0, ("8b6fd88de28a3295f77eb9032d707c2d"
                            "cd223fbe2b458a76f7763a42f398309f")],
    "export_random_2": [0, ("10158becd90c30fb31d13f9176a84620"
                            "5657364da148f790df0247dee0089d24")],
    "export_sl2": [0, ("d26bd8a7605db0039b36db8be7a42944"
                       "a4ebe57f556739be85c3bb9cd4ea9f79")],
    "export_sl2_borel": [0, ("1c9b34ef03e95a384b1dcf4b4a28ff28"
                             "bc3d6cb760336eedf6ca10a8d4e5b64c")],
    "export_sl2_swapped": [0, ("18d853433f008a27a4e4d6326453915f"
                               "9dd9f908023856fc79bebb6da82be4ec")],
    "export_u2t2": [0, ("35115a8081e99c7a77ce1cd12c7f675b"
                        "9812c554e73c1f0fe32801d883ca9e0c")],
    "validate_bent_module": [3, ("d0eef43b9a95e2cd17fc02511e47c1dd"
                                 "1580070120e46e3c555549de98c60dc8")],
    "validate_broken_algebra": [3, ("c414328d7b8967a338fab724e9f7be85"
                                    "7991fa00f1dbfb530a6a593b72f4c707")],
    "validate_gl3": [0, ("0e5814c1f4fc55573e3a68117db6bf93"
                         "5e18f17bc57dd1d3134fc00eb6c95f8f")],
    "validate_random_1": [0, ("f6126794906fdb6c1de3e1df8c0dd058"
                              "d6358c846f0070b1c439d01e69711386")],
    "validate_sl2": [0, ("f89cdab3ada044cfecac21b14c44fb6a"
                         "8d507251d1634671bb77f886c41c504b")],
}


def _gated_outputs():
    """{gate name: (exit code, sha256 of stdout)}, writing the inputs into the
    current directory."""
    def stdout_of(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    names = stdout_of(["zoo", "list"])[1].split()
    exports = {"export_" + name: ["zoo", "export", name]
               for name in names if name != "random"}
    exports.update({"export_random_%d" % seed: [
        "zoo", "export", "random", "--seed", str(seed)] for seed in range(3)})
    gates = {}
    for gate, argv in exports.items():
        code, out = stdout_of(argv)
        with open(gate[len("export_"):] + ".json", "w") as handle:
            handle.write(out)
        gates[gate] = (code, hashlib.sha256(out.encode()).hexdigest())
    for name, edit in (("bent_module", _add_bent_module),
                       ("broken_algebra", _break_dual_numbers)):
        with open(name + ".json", "wb") as handle:
            handle.write(_sl2_bytes(edit))
    for name in ("sl2", "gl3", "random_1", "bent_module", "broken_algebra"):
        code, out = stdout_of(["validate", "--input", name + ".json",
                               "--json"])
        gates["validate_" + name] = (code, hashlib.sha256(
            out.encode()).hexdigest())
    return gates


def test_validate_and_zoo_export_byte_identical_to_goldens(monkeypatch,
                                                           tmp_path):
    monkeypatch.chdir(tmp_path)
    gates = _gated_outputs()
    assert sorted(gates) == sorted(GATE_GOLDENS)
    for gate, got in gates.items():
        assert list(got) == GATE_GOLDENS[gate], gate
