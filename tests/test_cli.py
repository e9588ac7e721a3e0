import argparse
import dataclasses
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbial import cli, twisting
from crossbial.cli import (
    Workspace,
    WorkspaceError,
    load_workspace,
    main,
    save_workspace,
    workspace_to_json,
)
from crossbial.crossproduct import decompose
from crossbial.datum import trivial_datum
from crossbial.linmaps import LinMap, Space, UNIT
from crossbial.scalars import VerifiedFailure, root_of_unity
from crossbial.structures import (CheckEntry, CheckReport, Structure,
                                  check_axioms, yd_provider_left)
from crossbial.twisting import DualPairing
from crossbial.zoo import (RadfordParams, group_algebra, radford,
                           sweedler_crossed_modules, taft_factor)
from tests.test_acceptance import braided_taft_pairing, canonical_pairing
from tests.test_builders import evaluation_pairing_of_the_op_cop_dual
from tests.test_hygiene import package_exceptions
from tests.test_linmaps import doubled
from tests.test_twisting import (bicharacter_cocycle, coboundary_cocycle,
                                 counit_pairing, sweedler_rho,
                                 uninvertible_cocycle)
from tests.test_verify_once import qline_and_point

ONE = Fraction(1)


# a list of strings (a matrix row) is a leaf of its own: the encoder joins it
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.lists(st.text()),
    lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_canonical_json_writes_what_json_dumps_writes(doc):
    assert cli.canonical_json(doc) == json.dumps(
        doc, sort_keys=True, indent=2) + "\n"


def test_canonical_json_refuses_what_json_has_no_text_for():
    for doc in ({"x": 0.5}, {1: "x"}, {"x": (1,)}):
        with pytest.raises(TypeError):
            cli.canonical_json(doc)


def test_every_golden_report_is_the_text_json_dumps_writes(
        capsys, monkeypatch, tmp_path):
    # each golden run of tests/test_golden_reports.py, with every document
    # the CLI encodes, report or workspace, compared with json.dumps' text
    import tests.test_golden_reports as golden

    encode, docs = cli.canonical_json, []

    def checked(doc):
        text = encode(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        docs.append(doc)
        return text

    monkeypatch.setattr(cli, "canonical_json", checked)
    runs = [(golden.test_bicharacter_twist_report_is_byte_identical,),
            (golden.test_dim_64_reports_are_byte_identical,),
            (golden.test_ore_dim_64_reports_are_byte_identical,)]
    for test, cases in (
            (golden.test_radford_reports_are_byte_identical, golden.RADFORD),
            (golden.test_radford_trivalence_reports_are_byte_identical,
             golden.RADFORD),
            (golden.test_ore_reports_are_byte_identical, golden.ORE),
            (golden.test_datum_build_report_is_byte_identical,
             golden.DATUM_BUILD_GOLDEN),
            (golden.test_double_biproduct_report_is_byte_identical,
             golden.DOUBLE_BIPRODUCT)):
        runs += [(test, case) for case in cases]
    for i, (test, *case) in enumerate(runs):
        (tmp_path / str(i)).mkdir()
        test(capsys, monkeypatch, tmp_path / str(i), *case)
    assert len(docs) > len(runs)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def build_radford_ws(tmp_path, capsys):
    path = str(tmp_path / "rad.json")
    code, _, _ = run(capsys, "zoo", "build", "radford", "--n", "2",
                     "--q-exp", "1", "--N", "2", "--nu", "1", "-o", path)
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# zoo builders
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "crossbial" in capsys.readouterr().out


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    assert "group" in out and "radford" in out and "ore" in out
    assert "verdict: pass" in out


def test_zoo_build_radford_writes_a_workspace(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    assert obj["schema"] == "crossbial-workspace/1"
    assert obj["conductor"] == 1
    assert set(obj["structures"]) == {"main", "b1", "b2"}
    assert set(obj["maps"]) == {"act_l", "coact_l", "act_r", "coact_r",
                                "i1", "i2", "p1", "p2"}


def test_zoo_build_group_then_check(tmp_path, capsys):
    path = str(tmp_path / "g6.json")
    code, _, _ = run(capsys, "zoo", "build", "group", "--N", "6", "-o", path)
    assert code == 0
    code, out, err = run(capsys, "check", "hopf", "--in", path)
    assert code == 0
    assert "verdict: pass" in out
    # timing goes to stderr, never into the report
    assert "crossbial:" in err and "s" in err
    assert "0.0" not in out or "verdict" in out


def test_check_hopf_without_an_antipode_exits_two(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    doc = json.loads(open(path).read())
    del doc["structures"]["main"]["S"]
    stripped = str(tmp_path / "no_s.json")
    with open(stripped, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "check", "hopf", "--in", stripped)
    assert code == 2
    assert "hopf check needs an antipode" in err
    assert out == ""
    assert run(capsys, "check", "bialgebra", "--in", stripped)[0] == 0


def test_zoo_build_ore_from_spec(tmp_path, capsys):
    spec = tmp_path / "ore.json"
    spec.write_text(json.dumps({"orders": [2], "t": 1,
                                "g": [[1]], "g_star": [[1]]}))
    path = str(tmp_path / "ore_ws.json")
    code, _, _ = run(capsys, "zoo", "build", "ore", "--spec", str(spec),
                     "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "datum", "classify", "--in", path)
    assert code == 0
    assert '"0101"' in out
    assert "biproduct" in out


@pytest.mark.parametrize("t, g, message", [
    ("x", [[1]], "--spec holds a non-integer"),
    (1, [["a"]], "--spec holds a non-integer"),
    (0, [[1]], "need at least one skew generator"),
    (1.7, [[1]], "--spec holds a non-integer (1.7 is not an integer)"),
    (1, [[1.5, 0]], "--spec holds a non-integer (1.5 is not an integer)"),
    (True, [[1]], "--spec holds a non-integer")])
def test_malformed_ore_spec_is_a_usage_error(tmp_path, capsys, t, g,
                                             message):
    spec = tmp_path / "ore.json"
    spec.write_text(json.dumps({"orders": [2], "t": t,
                                "g": g, "g_star": [[1]]}))
    code, out, err = run(capsys, "zoo", "build", "ore", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert f"crossbial: error: {message}" in err


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_json_reports_are_canonical_and_deterministic(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    argv = ("check", "hopf", "--in", path, "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "crossbial-report/1"
    assert doc["verdict"] == "pass"
    assert doc["command"] == list(argv)
    assert len(doc["checks"]["axioms"]) == 12


def test_text_report_lists_each_axiom(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    code, out, _ = run(capsys, "check", "bialgebra", "--in", path)
    assert code == 0
    assert "[axioms]" in out
    assert "ok   associativity" in out
    assert "ok   mult-comult" in out


def test_corrupted_workspace_fails_the_check(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["structures"]["main"]["m"]["matrix"][0][0] = "2"
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    # the report form of exit 1: the report with its failed entries goes
    # to stdout, and stderr holds only the timing line
    assert code == 1
    assert out.splitlines()[-1] == "verdict: fail"
    assert "FAIL" in out
    assert re.fullmatch(r"crossbial: \d+\.\d{3}s\n", err)


def test_scalar_parse_error_reports_a_pointer(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["structures"]["main"]["m"]["matrix"][0][0] = "1/0"
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, _, err = run(capsys, "check", "hopf", "--in", bad)
    assert code == 2
    assert "/structures/main" in err
    assert "malformed rational '1/0'" in err


def test_missing_name_is_a_usage_error(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    code, _, err = run(capsys, "check", "hopf", "--in", path,
                       "--name", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_hopf_check_without_antipode_is_a_usage_error(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    code, _, err = run(capsys, "check", "hopf", "--in", path, "--name", "b1")
    assert code == 2
    assert "antipode" in err


def test_dimension_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CROSSBIAL_MAX_DIM", "4")
    path = str(tmp_path / "big.json")
    code, _, err = run(capsys, "zoo", "build", "radford", "--n", "2",
                       "--q-exp", "1", "--N", "4", "--nu", "1", "-o", path)
    assert code == 2
    assert "CROSSBIAL_MAX_DIM" in err


@pytest.mark.parametrize("builder, argv, dim", [
    ("radford", ["radford", "--n", "2", "--q-exp", "1", "--N", "4",
                 "--nu", "1"], 8),
    ("group_algebra", ["group", "--N", "6"], 6),
    ("ore_finite", ["ore", "--spec", "SPEC"], 16)])
def test_zoo_build_is_guarded_before_the_builder_runs(
        tmp_path, capsys, monkeypatch, builder, argv, dim):
    spec = tmp_path / "ore.json"
    spec.write_text(json.dumps({"orders": [2, 2], "t": 2,
                                "g": [[1, 0], [0, 1]],
                                "g_star": [[1, 0], [0, 1]]}))
    argv = [str(spec) if a == "SPEC" else a for a in argv]

    def never(*args):
        raise AssertionError(f"{builder} ran before the guard")
    monkeypatch.setattr(cli, builder, never)
    monkeypatch.setenv("CROSSBIAL_MAX_DIM", "4")
    code, out, err = run(capsys, "zoo", "build", *argv)
    assert code == 2
    assert out == ""
    assert (f"crossbial: error: total dimension {dim} exceeds "
            "CROSSBIAL_MAX_DIM=4") in err


@pytest.mark.parametrize("cap", ["abc", "0", "-3", "",
                                 # int() takes these, the cap does not
                                 " 64", "6_4", "\u0666\u0664", "+64",
                                 "64\n"])
def test_malformed_dimension_cap_is_a_usage_error(tmp_path, capsys,
                                                  monkeypatch, cap):
    path = build_radford_ws(tmp_path, capsys)
    monkeypatch.setenv("CROSSBIAL_MAX_DIM", cap)
    code, out, err = run(capsys, "check", "hopf", "--in", path)
    assert code == 2
    assert out == ""
    assert "crossbial: error: CROSSBIAL_MAX_DIM" in err
    assert "Traceback" not in err


def _scalar_map(enc):
    """A map k -> k whose only entry is the scalar encoding enc."""
    return {"f": {"dom": [], "cod": [], "matrix": [[enc]]}}


def _rad_spaces_and(name):
    """The spaces of the Radford(2,1,2,1) workspace plus one named name."""
    return [{"dim": 4, "name": "Rad(2,1,2,1)"}, {"dim": 2, "name": "Taft2"},
            {"dim": 2, "name": "kC2"}, {"dim": 2, "name": name}]


@pytest.mark.parametrize("section, value", [
    ("structures", [1]), ("maps", 5), ("spaces", {"X": 2}),
    ("structures", {"main": 1}), ("maps", {"f": [1]}),
    ("conductor", True), ("conductor", 1.0),
    # a cyclotomic's conductor is a JSON integer, its coefficients a list
    ("maps", _scalar_map({"n": "3", "coeffs": ["1/1"]})),
    ("maps", _scalar_map({"n": 3.0, "coeffs": ["1/1"]})),
    ("maps", _scalar_map({"n": 3.7, "coeffs": ["1/1"]})),
    ("maps", _scalar_map({"n": True, "coeffs": ["1/1"]})),
    ("maps", _scalar_map({"n": 3, "coeffs": "5"})),
    # a rational is '-'?digits('/'digits)?, nothing more lenient
    ("maps", _scalar_map("1_0/1")), ("maps", _scalar_map(" 3 / 4 ")),
    ("maps", _scalar_map("\u0663")),
    ("maps", _scalar_map({"n": 3, "coeffs": ["1_0", "1"]})),
    # a space name is a JSON string
    ("spaces", _rad_spaces_and(7)), ("spaces", _rad_spaces_and(None)),
    ("spaces", _rad_spaces_and(2.5)), ("spaces", _rad_spaces_and(True)),
    # more digits than int() converts from a string
    ("maps", _scalar_map("1" + "0" * 5000 + "/1"))])
def test_malformed_workspace_sections_are_pointed_at(tmp_path, capsys,
                                                     section, value):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj[section] = value
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    assert code == 2
    assert out == ""
    assert f"crossbial: error: /{section}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff", b"[" * 200000,
                                     b"1" + b"0" * 5000],
                         ids=["not-utf8", "too-deep", "5000-digits"])
@pytest.mark.parametrize("argv, message", [
    (["check", "hopf", "--in"], "/: not JSON ("),
    (["zoo", "build", "ore", "--spec"], "--spec is not JSON (")],
    ids=["workspace", "spec"])
def test_undecodable_json_files_are_usage_errors(tmp_path, capsys, argv,
                                                 message, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2
    assert out == ""
    assert f"crossbial: error: {message}" in err
    assert "Traceback" not in err


def _renamed(node, old, new):
    """node with every string equal to old replaced by new."""
    if isinstance(node, dict):
        return {k: _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


def test_non_string_space_name_is_refused(tmp_path, capsys):
    # Taft2 renamed 7 everywhere: once loaded, the first factor written by
    # `cross decompose` would have an int name among str ones
    path = build_radford_ws(tmp_path, capsys)
    obj = _renamed(json.loads(open(path).read()), "Taft2", 7)
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    keep = tmp_path / "keep.json"
    keep.write_text("kept\n")
    code, out, err = run(capsys, "cross", "decompose", "--in", bad,
                         "-o", str(keep))
    assert code == 2
    assert out == ""
    assert "crossbial: error: /spaces/1: 7 is not a string" in err
    assert keep.read_text() == "kept\n"


def test_large_conductor_is_refused_before_any_work(tmp_path, capsys):
    # Phi_10007's power table alone takes seconds to build
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["maps"] = _scalar_map({"n": 10007, "coeffs": ["0/1", "1/1"]})
    del obj["conductor"]
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "crossbial: error: /maps/f: conductor 10007 exceeds 1024" in err


def test_non_integer_space_dim_is_refused(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["spaces"][0]["dim"] = 2.5
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    assert code == 2
    assert out == ""
    assert "crossbial: error: /spaces/0: 2.5 is not an integer" in err


@pytest.mark.parametrize("dim", [0, -1])
def test_non_positive_space_dim_is_refused(tmp_path, capsys, dim):
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["spaces"][0]["dim"] = dim
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    assert code == 2
    assert out == ""
    assert (f"crossbial: error: /spaces/0: {dim} is not a positive integer"
            in err)


def test_a_repeated_space_name_is_refused(tmp_path, capsys):
    # a second entry must not silently replace the first
    path = build_radford_ws(tmp_path, capsys)
    obj = json.loads(open(path).read())
    obj["spaces"].insert(0, {"name": "kC2", "dim": 5})
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "hopf", "--in", bad)
    assert code == 2
    assert out == ""
    assert "crossbial: error: /spaces/3: space 'kC2' is named twice" in err


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense", "--in", "x.json"])
    assert exc.value.code == 2


def _paths(level, prefix=()):
    """Each command path of the parser's table, with whether it ends at a
    leaf."""
    for name, (_, body) in level[1].items():
        path = prefix + (name,)
        yield path, callable(body)
        if not callable(body):
            yield from _paths(body, path)


_LEAVES = [path for path, leaf in _paths(cli._COMMANDS) if leaf]
_LEVELS = [path for path, leaf in _paths(cli._COMMANDS) if not leaf]
_RADFORD = ("--n", "2", "--q-exp", "1", "--N", "2", "--nu", "1")
# the fewest arguments of each leaf that takes more than --in; "--in"
# names no file, since the parser reads none
_LEAF_ARGS = {
    ("zoo", "list"): (),
    ("zoo", "build", "radford"): _RADFORD,
    ("zoo", "build", "group"): ("--N", "2"),
    ("zoo", "build", "ore"): ("--spec", "s.json"),
    ("check",): ("hopf", "--in", "x.json"),
}


def test_the_parser_table_names_the_dispatched_commands():
    assert list(cli._COMMANDS[1]) == list(cli._DISPATCH)
    assert len(_LEAVES) == 17 and set(_LEAF_ARGS) <= set(_LEAVES)


@pytest.mark.parametrize("path", _LEAVES, ids=" ".join)
def test_a_leafs_own_parser_reads_its_argv_as_the_full_tree(path):
    argv = [*path, *_LEAF_ARGS.get(path, ("--in", "x.json"))]
    assert (cli.build_parser(argv).parse_args(argv)
            == cli.build_parser().parse_args(argv))


def _exit(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    cap = capsys.readouterr()
    return exc.value.code, cap.out, cap.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["check", "--version"],
    *([*path, "-h"] for path in [(), *_LEVELS, *_LEAVES]),
    *(list(path) for path in _LEVELS),
    ["chec", "hopf", "--in", "x.json"], ["zoo", "bui", "radford", *_RADFORD],
    ["--"], ["--", "check", "hopf", "--in", "x.json"],
    ["check", "--", "hopf", "--in", "x.json"],
    ["check", "hopf", "--in", "x.json", "--extra"],
    ["double-biproduct", "build", "--in", "x.json", "--extra"],
    ["zoo", "build", "radford", *_RADFORD, "--extra", "1"],
    ["check", "hopf"]], ids=repr)
def test_help_and_usage_errors_are_the_full_trees_bytes(capsys, argv):
    assert (_exit(cli.build_parser(argv), argv, capsys)
            == _exit(cli.build_parser(), argv, capsys))


def test_a_leaf_command_builds_only_its_path_of_parsers(
        tmp_path, capsys, monkeypatch):
    # the full tree has 25 parsers; a leaf's argv builds the top parser and
    # one per name on its path
    path = build_radford_ws(tmp_path, capsys)
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "check", "hopf", "--in", path)[0] == 0
    assert made == ["crossbial", "crossbial check"]
    made.clear()
    out = str(tmp_path / "out.json")
    assert run(capsys, "zoo", "build", "radford", *_RADFORD, "-o", out)[0] == 0
    assert made == ["crossbial", "crossbial zoo", "crossbial zoo build",
                    "crossbial zoo build radford"]
    made.clear()
    cli.build_parser()
    assert len(made) == 25


@pytest.mark.parametrize("builder, flag, value", [
    ("radford", "--n", "\u0662"), ("radford", "--q-exp", " 1"),
    ("radford", "--N", "2\n"), ("radford", "--nu", "+1"),
    ("group", "--N", "1_6")])
def test_builder_integers_are_ascii_decimals(capsys, builder, flag, value):
    # int() would read each value, e.g. "--N 1_6" as 16
    argv = {"radford": {"--n": "2", "--q-exp": "1", "--N": "2", "--nu": "1"},
            "group": {"--N": "4"}}[builder]
    argv[flag] = value
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "build", builder]
             + [a for kv in argv.items() for a in kv])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not an integer" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("max_n", ["-1", "x"])
def test_malformed_max_n_is_refused_by_the_parser(tmp_path, capsys, max_n):
    # exit 1 would claim a verified failure: "not recursive up to -1"
    path = build_radford_ws(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["datum", "order", "--in", path, "--max-n", max_n])
    assert exc.value.code == 2
    assert "argument --max-n" in capsys.readouterr().err


def test_a_cap_above_the_bound_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "recursion_order",
                        lambda d, n: calls.append(n) or {"order": 1})
    path = build_radford_ws(tmp_path, capsys)
    too_big = str(cli.MAX_ORDER_CAP + 1)
    # the missing file shows that the parser refuses before any read
    for infile in (path, str(tmp_path / "missing.json")):
        with pytest.raises(SystemExit) as exc:
            main(["datum", "order", "--in", infile, "--max-n", too_big])
        assert exc.value.code == 2
        assert f"argument --max-n: {too_big} is above the largest cap" in (
            capsys.readouterr().err)
    assert calls == []
    # the bound itself is a valid cap
    code, _, _ = run(capsys, "datum", "order", "--in", path, "--max-n",
                     str(cli.MAX_ORDER_CAP))
    assert code == 0 and calls == [cli.MAX_ORDER_CAP]


@pytest.mark.parametrize("cls", package_exceptions(),
                         ids=lambda cls: cls.__name__)
def test_every_package_exception_exits_with_its_code(capsys, monkeypatch,
                                                     cls):
    verified = issubclass(cls, VerifiedFailure)

    def fail(args):
        if verified:
            raise cls("planted", CheckReport([CheckEntry("planted", False)]))
        raise cls("planted")
    monkeypatch.setitem(cli._DISPATCH, "zoo", fail)
    code, out, err = run(capsys, "zoo", "list")
    assert code == (1 if verified else 2)
    assert out == ""
    assert ("verified failure: planted\nfailing: planted" if verified
            else "error: planted") in err


# ---------------------------------------------------------------------------
# datum and cross commands
# ---------------------------------------------------------------------------

def test_datum_pipeline(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    code, out, _ = run(capsys, "datum", "check", "--in", path)
    assert code == 0 and "verdict: pass" in out
    code, out, _ = run(capsys, "datum", "order", "--in", path)
    assert code == 0 and '"order": 1' in out.replace("order: 1", '"order": 1')
    # a cap below the order is a verified failure with a witness entry
    code, out, _ = run(capsys, "datum", "order", "--in", path, "--max-n", "0",
                       "--format", "json")
    assert code == 1 and json.loads(out)["witness"] == {
        "u": 0, "v": 1, "i": 0, "j": 0, "value": "-1/1"}
    code, out, _ = run(capsys, "datum", "classify", "--in", path)
    assert code == 0 and '"1010"' in out
    prod = str(tmp_path / "prod.json")
    code, out, _ = run(capsys, "datum", "build", "--in", path, "-o", prod)
    assert code == 0
    code, out, _ = run(capsys, "check", "bialgebra", "--in", prod)
    assert code == 0


def test_cross_decompose_and_rebuild(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    parts = str(tmp_path / "parts.json")
    code, out, _ = run(capsys, "cross", "decompose", "--in", path,
                       "-o", parts)
    assert code == 0
    assert "factor_dims: [2, 2]" in out
    rebuilt = str(tmp_path / "rebuilt.json")
    code, out, _ = run(capsys, "cross", "build", "--in", parts,
                       "-o", rebuilt)
    assert code == 0
    assert "dim: 4" in out
    code, out, _ = run(capsys, "cross", "trivalent", "--in", path)
    assert code == 0
    assert "ok   verdicts-agree" in out


# ---------------------------------------------------------------------------
# twist, pairing, double biproduct
# ---------------------------------------------------------------------------

def test_twist_validate_and_apply(tmp_path, capsys):
    gg, c = bicharacter_cocycle(3)
    ws = Workspace().add_structure("main", gg).add_map("chi", c.chi)
    path = str(tmp_path / "tw.json")
    save_workspace(ws, path)
    code, out, _ = run(capsys, "twist", "validate", "--in", path)
    assert code == 0 and "ok   2cocycle1" in out
    twisted = str(tmp_path / "twisted.json")
    code, out, _ = run(capsys, "twist", "apply", "--in", path, "-o", twisted)
    assert code == 0
    assert "multiplication_changed: false" in out


def test_twist_apply_certifies_a_stored_inverse(tmp_path, capsys):
    # a coboundary twist of Radford(2,1,2,1) moves m and S; a correct
    # chi_inv is certified and read as it is, so the output bytes are the
    # solve's, and a wrong one is a verified failure with its report
    H = radford(RadfordParams(2, 1, 2, 1))["H"]
    c = coboundary_cocycle(H, 5)
    written = {}
    for tag, inv in (("solved", None), ("stored", twisting.cocycle_inverse(c)),
                     ("wrong", c.chi)):
        ws = Workspace().add_structure("main", H).add_map("chi", c.chi)
        if inv is not None:
            ws.add_map("chi_inv", inv)
        path = str(tmp_path / f"{tag}.json")
        save_workspace(ws, path)
        twisted = tmp_path / f"{tag}_out.json"
        code, out, err = run(capsys, "twist", "apply", "--in", path,
                             "-o", str(twisted))
        if tag == "wrong":
            assert code == 1
            assert out == ""
            assert err.splitlines()[:2] == [
                "crossbial: verified failure: chi_inv fails "
                "convolution-right-inverse",
                "failing: convolution-right-inverse, "
                "convolution-left-inverse"]
            assert not twisted.exists()
        else:
            assert code == 0
            assert "multiplication_changed: true" in out
            written[tag] = twisted.read_bytes()
    assert written["stored"] == written["solved"]


def idempotent_monoid_pairing():
    """The monoid bialgebra k{1, z}, z^2 = z and z group-like, paired with
    itself by <z, z> = 0 and 1 elsewhere.  Its Gram matrix has full rank,
    yet the form vanishes on the group-like z (x) z, so it has no
    convolution inverse."""
    s = Space("k1z", 2)
    M = Structure(s, LinMap((s, s), (s,), {(0, 0): ONE, (1, 1): ONE,
                                           (1, 2): ONE, (1, 3): ONE}),
                  LinMap(UNIT, (s,), {(0, 0): ONE}),
                  LinMap((s,), (s, s), {(0, 0): ONE, (3, 1): ONE}),
                  LinMap((s,), UNIT, {(0, 0): ONE, (0, 1): ONE}))
    return DualPairing(M, M, LinMap((s, s), UNIT, {(0, 0): ONE, (0, 1): ONE,
                                                   (0, 2): ONE}))


def _refusal_workspace(case):
    """The workspace of one case of the exit-1 contract: valid input that a
    verified law refuses."""
    if case == "cross-build-braided":
        # the q-lines with their Yetter-Drinfeld braidings as phi12/phi21
        ws, prov = braided_qline_workspace()
        T1, T2 = ws.structure("h"), ws.structure("a")
        return (ws.add_structure("b1", T1).add_structure("b2", T2)
                .add_map("phi12", prov.braiding(T1.space, T2.space))
                .add_map("phi21", prov.braiding(T2.space, T1.space)))
    if case.startswith("cross"):
        out = radford(RadfordParams(2, 1, 2, 1))
        H, system = out["H"], out["system"]
        if case == "cross-decompose":
            ws = Workspace().add_structure("main", H)
            for k in ("i1", "i2", "p1", "p2"):
                ws.add_map(k, getattr(system, k))
            return ws.add_map("p1", doubled(system.p1))
        bat = decompose(H, system).bat
        b1 = dataclasses.replace(bat.b1, eps=doubled(bat.b1.eps))
        return (Workspace().add_structure("b1", b1)
                .add_structure("b2", bat.b2).add_map("phi12", bat.phi12)
                .add_map("phi21", bat.phi21))
    if case == "datum-classify":
        # Radford(2,1,2,1) with every 1 of act_l made 2: its pattern says
        # trivalent, no canonical map is a bialgebra morphism, and the
        # datum fails its own check
        d = radford(RadfordParams(2, 1, 2, 1))["datum"]
        f = d.act_l
        ws = Workspace().add_structure("b1", d.b1).add_structure("b2", d.b2)
        for k in ("coact_l", "act_r", "coact_r"):
            ws.add_map(k, getattr(d, k))
        return ws.add_map("act_l", LinMap(f.dom, f.cod, {
            k: 2 if v == 1 else v for k, v in f.entries.items()}))
    if case == "twist-apply":
        c = uninvertible_cocycle()
        return Workspace().add_structure("main", c.host).add_map("chi", c.chi)
    return _pairing_workspace(idempotent_monoid_pairing())


def _pairing_workspace(p):
    return (Workspace().add_structure("h", p.H).add_structure("a", p.A)
            .add_map("form", p.form))


# case -> (command, message, failed checks, witness line or None) of the
# exit-1 contract
_REFUSALS = {
    "cross-decompose": (("cross", "decompose"),
                        "p1 o i1 is not the identity", "p1 o i1",
                        "witness: p1 o i1 out=[0] in=[0]: 2/1 != 1/1"),
    "cross-build": (("cross", "build"), "B1 is not counit-normalised", "B1",
                    "witness: B1 out=[] in=[]: 2/1 != 1/1"),
    # test_braided_q_lines_with_their_braidings_are_not_a_bat at the CLI
    "cross-build-braided": (("cross", "build"),
                            "not a BAT: mult-comult fails", "mult-comult",
                            "witness: mult-comult out=[1, 3] in=[1, 3]: "
                            "(-1 + -1*z | z = zeta_3) != 1/1"),
    "datum-classify": (("datum", "classify"), "datum fails act-l-unit",
                       "act-l-unit, act-l-associativity, act-l-counit, "
                       "unit-act-l, alg-coalg-1, module-algebra-1, "
                       "module-algebra-2, module-coalgebra-2, "
                       "comodule-algebra-1",
                       "witness: act-l-unit out=[0] in=[0]: 2/1 != 1/1"),
    "twist-apply": (("twist", "apply"),
                    "no two-sided convolution inverse exists: "
                    "convolution-right-inverse fails",
                    "convolution-right-inverse, convolution-left-inverse",
                    "witness: convolution-right-inverse out=[0] in=[0]: "
                    "0/1 != 1/1"),
    # the k{1, z} self-pairing: a pairing whose form, zero on z (x) z, has
    # no convolution inverse
    "pairing-uninvertible": (("pairing", "matched-pair"),
                             "no two-sided convolution inverse exists: "
                             "convolution-right-inverse fails",
                             "convolution-right-inverse, "
                             "convolution-left-inverse",
                             "witness: convolution-right-inverse out=[0] "
                             "in=[0]: 0/1 != 1/1"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_every_exit_1_names_its_failing_checks(tmp_path, capsys, case):
    command, message, failing, witness = _REFUSALS[case]
    path = str(tmp_path / "ws.json")
    save_workspace(_refusal_workspace(case), path)
    code, out, err = run(capsys, *command, "--in", path)
    assert (code, out) == (1, "")
    # a witness line follows exactly when the named entry has a witness;
    # the timing line comes last
    assert err.splitlines()[:-1] == [
        f"crossbial: verified failure: {message}", f"failing: {failing}",
        *([witness] if witness else [])]


def test_sweedlers_pairing_with_its_op_cop_dual_is_a_matched_pair(
        tmp_path, capsys):
    # Sweedler's H4 and the transpose of H4^{op,cop}: the induced actions
    # form the matched pair (A, H^op), and the flip is involutive
    path = str(tmp_path / "ws.json")
    save_workspace(_pairing_workspace(evaluation_pairing_of_the_op_cop_dual(
        radford(RadfordParams(2, 1, 2, 1))["H"])), path)
    code, out, _ = run(capsys, "pairing", "matched-pair", "--in", path,
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["is_matched_pair"], doc["braiding_involutive"]) == (True, True)


def test_a_degenerate_pairing_is_a_matched_pair_at_the_cli(tmp_path, capsys):
    # the counit pairing of kC2 with itself, of rank 1: its convolution
    # inverse induces the trivial matched pair
    path = str(tmp_path / "ws.json")
    save_workspace(_pairing_workspace(counit_pairing(2, 2)), path)
    code, out, _ = run(capsys, "pairing", "matched-pair", "--in", path)
    assert code == 0
    lines = out.splitlines()
    assert "is_matched_pair: true" in lines
    assert lines[-1] == "verdict: pass"
    # the factors' own laws are validate_pairing's: the text report lists
    # the 27 laws of the datum past them, and no b1-* or b2-* line
    assert len([line for line in lines if line.startswith("  ok ")]) == 27
    assert not any(" b1-" in line or " b2-" in line for line in lines)


def test_a_cocycle_without_an_inverse_validates_but_cannot_twist(
        tmp_path, capsys):
    c = uninvertible_cocycle()
    path = str(tmp_path / "tw.json")
    save_workspace(Workspace().add_structure("main", c.host)
                   .add_map("chi", c.chi), path)
    code, out, _ = run(capsys, "twist", "validate", "--in", path)
    assert code == 0 and "ok   2cocycle1" in out
    twisted = tmp_path / "out.json"
    code, out, err = run(capsys, "twist", "apply", "--in", path,
                         "-o", str(twisted))
    assert code == 1
    assert out == ""
    assert err.splitlines()[:2] == [
        "crossbial: verified failure: no two-sided convolution inverse "
        "exists: convolution-right-inverse fails",
        "failing: convolution-right-inverse, convolution-left-inverse"]
    assert not twisted.exists()


def test_a_host_that_is_no_bialgebra_is_a_verified_failure(tmp_path,
                                                           capsys):
    # over the flip the Taft factor with r = 2 is an algebra and a
    # coalgebra, but not a bialgebra
    T = taft_factor(2, -1)
    s = T.space
    chi = LinMap((s, s), UNIT, (T.eps @ T.eps).entries)
    path = str(tmp_path / "taft.json")
    save_workspace(Workspace().add_structure("main", T).add_map("chi", chi),
                   path)
    code, out, err = run(capsys, "twist", "validate", "--in", path)
    assert code == 1
    assert out == ""
    assert "host fails mult-comult" in err
    assert "failing: mult-comult" in err


def test_twisting_a_host_whose_antipode_fails_is_a_verified_failure(
        tmp_path, capsys):
    H = group_algebra(3)
    bad = Structure(H.space, H.m, H.eta, H.delta, H.eps, H.id_map())
    path = str(tmp_path / "kc3.json")
    save_workspace(Workspace().add_structure("main", bad)
                   .add_map("chi", H.eps @ H.eps), path)
    twisted = tmp_path / "out.json"
    code, out, err = run(capsys, "twist", "apply", "--in", path,
                         "-o", str(twisted))
    assert code == 1
    assert out == ""
    assert err.splitlines()[:2] == [
        "crossbial: verified failure: host fails left-antipode",
        "failing: left-antipode, right-antipode"]
    assert not twisted.exists()


def _kc2_workspace(tmp_path, edit=None):
    """kC2 as a workspace, its document changed by edit before it is
    written."""
    obj = workspace_to_json(Workspace().add_structure("main",
                                                      group_algebra(2)))
    if edit is not None:
        edit(obj)
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _no_chi(tmp_path):
    return ["twist", "validate", "--in", _kc2_workspace(tmp_path)]


def _wrong_conductor(tmp_path):
    path = _kc2_workspace(tmp_path, lambda obj: obj.update(conductor=3))
    return ["check", "hopf", "--in", path]


def _spec_without_t(tmp_path):
    spec = tmp_path / "ore.json"
    spec.write_text(json.dumps({"orders": [2], "g": [[1]],
                                "g_star": [[1]]}))
    return ["zoo", "build", "ore", "--spec", str(spec)]


def _ore_spec(**fields):
    """zoo build ore on the C2 spec with t = 1, fields replaced."""
    def argv(tmp_path):
        spec = tmp_path / "ore.json"
        spec.write_text(json.dumps({"orders": [2], "t": 1, "g": [[1]],
                                    "g_star": [[1]], **fields}))
        return ["zoo", "build", "ore", "--spec", str(spec)]
    return argv


def _no_delta(tmp_path):
    path = _kc2_workspace(
        tmp_path, lambda obj: obj["structures"]["main"].pop("delta"))
    return ["check", "hopf", "--in", path]


ORDERS = "group must be a nonempty list of positive cyclic orders"


@pytest.mark.parametrize("argv, message", [
    (_no_chi, "/maps/chi: not present"),
    (_wrong_conductor, "/conductor: declared 3, computed 1"),
    (_spec_without_t, "--spec missing field 't'"),
    (lambda _: ["zoo", "build", "group", "--N", "0"],
     "N must be a positive integer"),
    (lambda _: ["zoo", "build", "radford", "--n", "1", "--q-exp", "1",
                "--N", "2", "--nu", "1"], "need n >= 2 and N >= 1"),
    (_ore_spec(orders=[]), ORDERS),
    (_ore_spec(orders=[0]), ORDERS),
    (_ore_spec(g=[[1], [1]]),
     "need exactly t group elements and t characters"),
    (_ore_spec(g=[[1, 0]]),
     "element/character tuples must match the number of cyclic factors"),
    (_no_delta, "/structures/main: bad structure encoding: missing 'delta'"),
], ids=["no-chi", "conductor", "spec-without-t", "group-of-order-0",
        "radford-n-1", "ore-no-orders", "ore-order-0", "ore-two-elements",
        "ore-long-element", "no-delta"])
def test_malformed_input_to_a_command_exits_two(tmp_path, capsys, argv,
                                                message):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"crossbial: error: {message}"


def test_a_twist_that_fails_its_own_check_names_the_law(tmp_path, capsys,
                                                        monkeypatch):
    # a doubled chi^- doubles the twisted product and its antipode, which
    # then fail the output check of the twist
    solve = twisting._scalar_inverse
    monkeypatch.setattr(twisting, "_scalar_inverse",
                        lambda *args: doubled(solve(*args)))
    H = group_algebra(2)
    path = str(tmp_path / "kc2.json")
    save_workspace(Workspace().add_structure("main", H)
                   .add_map("chi", H.eps @ H.eps), path)
    twisted = tmp_path / "out.json"
    code, out, err = run(capsys, "twist", "apply", "--in", path,
                         "-o", str(twisted))
    assert code == 1
    assert out == ""
    assert err.splitlines()[:2] == [
        "crossbial: verified failure: twisted structure fails left-unit",
        "failing: left-unit, right-unit, mult-comult, counit-mult, "
        "left-antipode, right-antipode"]
    assert not twisted.exists()


def test_a_missing_input_file_is_an_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", "hopf", "--in",
                         str(tmp_path / "nosuch.json"))
    assert code == 2
    assert out == ""
    assert "io error" in err


def test_pairing_commands(tmp_path, capsys):
    p = canonical_pairing(3)
    ws = (Workspace().add_structure("h", p.H).add_structure("a", p.A)
          .add_map("form", p.form))
    path = str(tmp_path / "pair.json")
    save_workspace(ws, path)
    code, out, _ = run(capsys, "pairing", "check", "--in", path)
    assert code == 0 and "ok   pairing-mult-h" in out
    code, out, _ = run(capsys, "pairing", "matched-pair", "--in", path)
    assert code == 0
    assert "is_matched_pair: true" in out
    assert "braiding_involutive: true" in out


def sweedler_dbp_workspace():
    """The Sweedler double-biproduct input with a pairing, as a workspace."""
    inp = sweedler_rho(1)
    ws = (Workspace().add_structure("h", inp.H).add_structure("b", inp.B)
          .add_structure("c", inp.C))
    for name, f in (("b_act", inp.b_act), ("b_coact", inp.b_coact),
                    ("c_act", inp.c_act), ("c_coact", inp.c_coact),
                    ("rho", inp.rho)):
        ws.add_map(name, f)
    return ws


def test_double_biproduct_command(tmp_path, capsys):
    path = str(tmp_path / "dbp.json")
    save_workspace(sweedler_dbp_workspace(), path)
    out_path = str(tmp_path / "z.json")
    code, out, _ = run(capsys, "double-biproduct", "build", "--in", path,
                       "-o", out_path)
    assert code == 0
    assert "dim: 8" in out
    assert "twist_changed_multiplication: false" in out
    built = load_workspace(out_path)
    assert set(built.structures) == {"main", "z_twisted"}
    assert set(built.maps) == {"rho_hat", "rho_hat_inv"}


def braided_sweedler_workspace():
    """The Sweedler input with the trivial cocycle on B and a section that
    registers SwB over h."""
    ws = sweedler_dbp_workspace()
    b = ws.structure("b")
    ws.add_map("chi", b.eps @ b.eps)
    ws.braiding = {"kind": "yetter-drinfeld", "host": "h",
                   "modules": [{"space": "SwB", "act": "b_act",
                                "coact": "b_coact"}]}
    return ws


@pytest.mark.parametrize("argv, call", [
    (("twist", "validate", "--name", "b"), "validate_cocycle"),
    (("twist", "apply", "--name", "b"), "twist"),
    (("double-biproduct", "build"), "double_biproduct"),
    (("pairing", "check"), "validate_pairing"),
    (("pairing", "matched-pair"), "matched_pair_from_pairing"),
], ids=["twist-validate", "twist-apply", "double-biproduct-build",
        "pairing-check", "pairing-matched-pair"])
def test_a_braided_workspace_is_refused_by_the_flip_only_commands(
        tmp_path, capsys, monkeypatch, argv, call):
    # twisting, the double biproduct and pairings live over the flip: the
    # braided Sweedler input, or for a pairing the braided q-line pairing,
    # is refused before the library call
    def never(*args):
        raise AssertionError(f"{call} reached")
    monkeypatch.setattr(cli, call, never)
    ws = (braided_qline_workspace()[0] if argv[0] == "pairing"
          else braided_sweedler_workspace())
    path = str(tmp_path / "in.json")
    save_workspace(ws, path)
    written = tmp_path / "out.json"
    out_opt = ["-o", str(written)] if argv[1] in ("apply", "build") else []
    code, out, err = run(capsys, *argv, "--in", path, *out_opt)
    assert code == 2
    assert out == ""
    assert "crossbial: error: /braiding: " in err
    assert not written.exists()


# ---------------------------------------------------------------------------
# workspace persistence
# ---------------------------------------------------------------------------

def test_workspace_roundtrip_is_byte_identical(tmp_path):
    z = root_of_unity(3, 1)
    ws = (Workspace().add_structure("main", taft_factor(3, z))
          .add_map("id", taft_factor(3, z).id_map()))
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    save_workspace(ws, a)
    save_workspace(load_workspace(a), b)
    assert open(a).read() == open(b).read()
    assert workspace_to_json(ws)["conductor"] == 3


def test_one_space_name_with_two_dims_is_refused():
    # kC3 on a space that is named kC2
    s = Space("kC2", 3)
    k3 = Structure(s, LinMap((s, s), (s,), {
                       ((i + j) % 3, 3 * i + j): 1
                       for i in range(3) for j in range(3)}),
                   LinMap(UNIT, (s,), {(0, 0): 1}),
                   LinMap((s,), (s, s), {(4 * i, i): 1 for i in range(3)}),
                   LinMap((s,), UNIT, {(0, i): 1 for i in range(3)}))
    ws = Workspace().add_structure("a", group_algebra(2))
    with pytest.raises(WorkspaceError, match="^/spaces/kC2: conflicting dims$"):
        ws.add_structure("b", k3)


def test_a_failed_save_leaves_the_old_file_as_it_was(tmp_path):
    # sorting int and str space names raises inside workspace_to_json
    ws = Workspace()
    ws.spaces.update({7: Space(7, 1), "x": Space("x", 1)})
    path = tmp_path / "keep.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(TypeError):
        save_workspace(ws, str(path))
    assert path.read_bytes() == b"old bytes\n"


def test_workspace_schema_violations_are_pointed_at(tmp_path, capsys):
    path = str(tmp_path / "ws.json")
    open(path, "w").write(json.dumps({"schema": "nope"}))
    code, _, err = run(capsys, "check", "hopf", "--in", path)
    assert code == 2
    assert "/schema" in err


def test_mixed_conductors_are_refused():
    ws = Workspace().add_structure("main", taft_factor(3, root_of_unity(3, 1)))
    ws.add_structure("other", taft_factor(4, root_of_unity(4, 1)))
    with pytest.raises(Exception) as exc:
        workspace_to_json(ws)
    assert "conductor" in str(exc.value)


# ---------------------------------------------------------------------------
# braided workspaces
# ---------------------------------------------------------------------------

def braided_qline_workspace():
    """The braided q-line pairing of the acceptance tests as a workspace:
    the copies h and a, the form, the host kC3, each copy's action and
    coaction, and the Yetter-Drinfeld braiding section that names them.
    Also the provider built in Python."""
    p, prov = braided_taft_pairing()
    ws = (Workspace().add_structure("h", p.H).add_structure("a", p.A)
          .add_structure("host", group_algebra(3)).add_map("form", p.form))
    modules = []
    for tag, st in (("h", p.H), ("a", p.A)):
        act, coact = prov._reg[st.space]
        ws.add_map(f"{tag}_act", act).add_map(f"{tag}_coact", coact)
        modules.append({"space": st.space.name, "act": f"{tag}_act",
                        "coact": f"{tag}_coact"})
    ws.braiding = {"kind": "yetter-drinfeld", "host": "host",
                   "modules": modules}
    return ws, prov


def sweedler_left_workspace():
    """The Sweedler input's left crossed module C over kC2 as a workspace
    with a left Yetter-Drinfeld braiding section; also its provider."""
    inp = sweedler_crossed_modules()
    prov = yd_provider_left(inp.H, [(inp.C.space, inp.c_act, inp.c_coact)])
    ws = (Workspace().add_structure("h", inp.H).add_structure("c", inp.C)
          .add_map("c_act", inp.c_act).add_map("c_coact", inp.c_coact))
    ws.braiding = {"kind": "left-yetter-drinfeld", "host": "h",
                   "modules": [{"space": inp.C.space.name, "act": "c_act",
                                "coact": "c_coact"}]}
    return ws, prov


@pytest.fixture
def qline_path(tmp_path):
    path = str(tmp_path / "qline.json")
    save_workspace(braided_qline_workspace()[0], path)
    return path


@pytest.mark.parametrize("build", [braided_qline_workspace,
                                   sweedler_left_workspace])
def test_braided_workspaces_roundtrip_byte_identical(tmp_path, build):
    ws, prov = build()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_workspace(ws, a)
    back = load_workspace(a)
    save_workspace(back, b)
    assert open(a).read() == open(b).read()
    assert json.loads(open(a).read())["schema"] == "crossbial-workspace/2"
    assert type(back.provider) is type(prov)
    assert back.provider.host == prov.host
    assert back.provider._reg == prov._reg


def test_braided_verdicts_match_the_python_calls(tmp_path, capsys,
                                                 qline_path):
    # the q-line copy is a bialgebra only under its braiding
    p, prov = braided_taft_pairing()
    assert check_axioms(p.H, "bialgebra", prov).ok
    assert check_axioms(p.H, "bialgebra").failed() == ["mult-comult"]
    code, _, _ = run(capsys, "check", "bialgebra", "--name", "h",
                     "--in", qline_path)
    assert code == 0

    obj = json.loads(open(qline_path).read())
    del obj["braiding"]
    obj["schema"] = "crossbial-workspace/1"
    flip = str(tmp_path / "flip.json")
    open(flip, "w").write(json.dumps(obj))
    code, out, _ = run(capsys, "check", "bialgebra", "--name", "h",
                       "--in", flip)
    assert code == 1
    assert "FAIL mult-comult" in out


def _set(path, value):
    """An edit of a workspace document that sets the node at path."""
    def edit(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, pointer", [
    (_set(("schema",), "crossbial-workspace/1"), "/schema"),
    (lambda obj: obj.pop("braiding"), "/schema"),
    (_set(("braiding",), "flip"), "/braiding: expected an object"),
    (_set(("braiding", "kind"), "symmetric"), "/braiding/kind"),
    (_set(("braiding", "kind"), ["yetter-drinfeld"]), "/braiding/kind"),
    (lambda obj: obj["braiding"].pop("host"), "/braiding/host"),
    (_set(("braiding", "host"), "form"), "/braiding/host"),
    (_set(("braiding", "modules"), {}), "/braiding/modules"),
    (_set(("braiding", "modules", 0), "h_act"), "/braiding/modules/0"),
    (_set(("braiding", "modules", 1, "act"), "gone"),
     "/braiding/modules/1/act"),
    (lambda obj: obj["braiding"]["modules"][0].pop("coact"),
     "/braiding/modules/0/coact"),
    (_set(("braiding", "modules", 0, "space"), 3),
     "/braiding/modules/0/space"),
    (_set(("braiding", "modules", 1, "space"), "TaftH"),
     "/braiding/modules/1/space"),
    # the right shape for neither side's action
    (_set(("braiding", "modules", 0, "act"), "form"), "/braiding/modules"),
    (_set(("braiding", "kind"), "left-yetter-drinfeld"), "/braiding/modules"),
])
def test_malformed_braiding_sections_are_pointed_at(tmp_path, capsys,
                                                    qline_path, edit,
                                                    pointer):
    obj = json.loads(open(qline_path).read())
    edit(obj)
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "bialgebra", "--name", "h",
                         "--in", bad)
    assert code == 2
    assert out == ""
    assert f"crossbial: error: {pointer}" in err
    assert "Traceback" not in err


def test_a_module_on_the_wrong_strands_is_named(tmp_path, capsys,
                                               qline_path):
    # module 1 (TaftA) pointed at module 0's action on TaftH
    obj = json.loads(open(qline_path).read())
    obj["braiding"]["modules"][1]["act"] = "h_act"
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "bialgebra", "--name", "h",
                         "--in", bad)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        "crossbial: error: /braiding/modules/1/act: act_r must map "
        "TaftA (x) kC3 -> TaftA, not TaftH (x) kC3 -> TaftH")


def test_a_coaction_on_the_wrong_strands_is_named(tmp_path, capsys,
                                                  qline_path):
    # module 1 (TaftA) with its own action but module 0's coaction
    obj = json.loads(open(qline_path).read())
    obj["braiding"]["modules"][1]["coact"] = "h_coact"
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "bialgebra", "--name", "h",
                         "--in", bad)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        "crossbial: error: /braiding/modules/1/coact: coact_r must map "
        "TaftA -> TaftA (x) kC3, not TaftH -> TaftH (x) kC3")


def test_a_module_that_fails_its_laws_is_a_verified_failure(
        tmp_path, capsys, qline_path):
    obj = json.loads(open(qline_path).read())
    act = obj["maps"]["h_act"]["matrix"]
    obj["maps"]["h_act"]["matrix"] = [["0/1"] * len(row) for row in act]
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write(json.dumps(obj))
    code, out, err = run(capsys, "check", "bialgebra", "--name", "h",
                         "--in", bad)
    assert code == 1
    assert out == ""
    assert ("crossbial: verified failure: TaftH: (co)module laws fail "
            "first: action-unit") in err
    assert "failing: action-unit" in err


def test_a_braided_host_is_guarded_before_it_is_checked(capsys, qline_path,
                                                       monkeypatch):
    # the host kC3 times a dim-3 module is 9
    monkeypatch.setenv("CROSSBIAL_MAX_DIM", "8")
    code, out, err = run(capsys, "check", "bialgebra", "--name", "h",
                         "--in", qline_path)
    assert code == 2
    assert "total dimension 9 exceeds CROSSBIAL_MAX_DIM=8" in err


def braided_qline_point_workspace(degree=0):
    """The trivial datum of the q-line T and a point K of degree g^degree
    over kC3, which acts on K trivially, with the Yetter-Drinfeld braiding
    section that registers both, and T as "main" split as T (x) K.  At
    degree 0 the datum's product is a bialgebra under that braiding only,
    and the splitting is one of its category."""
    T, host, K, modules = qline_and_point(degree)
    d = trivial_datum(T, K)
    ws = (Workspace().add_structure("b1", T).add_structure("b2", K)
          .add_structure("host", host).add_structure("main", T))
    for name in ("act_l", "coact_l", "act_r", "coact_r"):
        ws.add_map(name, getattr(d, name))
    ws.add_map("i1", T.id_map()).add_map("p1", T.id_map())
    ws.add_map("i2", LinMap((K.space,), (T.space,), T.eta.entries))
    ws.add_map("p2", LinMap((T.space,), (K.space,), T.eps.entries))
    section = []
    for tag, (s, act, coact) in zip(("t", "k"), modules):
        ws.add_map(f"{tag}_act", act).add_map(f"{tag}_coact", coact)
        section.append({"space": s.name, "act": f"{tag}_act",
                        "coact": f"{tag}_coact"})
    ws.braiding = {"kind": "yetter-drinfeld", "host": "host",
                   "modules": section}
    return ws


def test_trivalence_of_a_braided_splitting(tmp_path, capsys):
    # the trivial point splits T in the braided category; a point of
    # degree g makes phi miss the braiding, a verified failure
    path = str(tmp_path / "tk.json")
    save_workspace(braided_qline_point_workspace(), path)
    code, _, _ = run(capsys, "cross", "trivalent", "--in", path)
    assert code == 0
    save_workspace(braided_qline_point_workspace(degree=1), path)
    code, _, err = run(capsys, "cross", "trivalent", "--in", path)
    assert code == 1
    assert "failing: phi-braiding\n" in err
    assert "witness: phi-braiding " in err


def test_output_workspaces_carry_no_braiding(tmp_path, capsys):
    # the cross product of the braided q-line and a point, built under its
    # braiding and written over the flip
    path, out = str(tmp_path / "tk.json"), str(tmp_path / "out.json")
    save_workspace(braided_qline_point_workspace(), path)
    code, _, _ = run(capsys, "datum", "build", "--in", path, "-o", out)
    assert code == 0
    obj = json.loads(open(out).read())
    assert obj["schema"] == "crossbial-workspace/1"
    assert "braiding" not in obj


# ---------------------------------------------------------------------------
# workspace fuzz
# ---------------------------------------------------------------------------

FUZZ_COMMANDS = (["check", "hopf"], ["datum", "check"],
                 ["cross", "decompose"], ["datum", "order", "--max-n", "2"])


@pytest.fixture(scope="module")
def radford_doc(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "rad.json")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["zoo", "build", "radford", "--n", "2", "--q-exp", "1",
                     "--N", "2", "--nu", "1", "-o", path]) == 0
    return path, json.loads(open(path).read())


def json_paths(node, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# half the replacements are scalar encodings, so that many mutants parse
# and fail a law (exit 1) rather than the schema (exit 2)
REPLACEMENTS = st.sampled_from(["0/1", "1/1", "-1/1", "1/2"]) | JSON_VALUES


def mutate_and_run(path, doc, commands, data):
    """Replace or delete one node of the valid workspace doc, write it to
    path and run each command on it: every command must end in 0, 1 or 2,
    and 1 only with a report or a verified failure."""
    doc = json.loads(json.dumps(doc))
    where = data.draw(st.sampled_from(list(json_paths(doc))), label="node")
    if not where:
        doc = data.draw(JSON_VALUES, label="root")
    else:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="delete"):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(REPLACEMENTS, label="value")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--in", path, "--format", "json"])
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert out.getvalue() or "verified failure" in err.getvalue(), \
                (argv, err.getvalue())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_workspaces_exit_cleanly(radford_doc, data):
    mutate_and_run(*radford_doc, FUZZ_COMMANDS, data)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def test_list_nodes_must_stay_lists(radford_doc):
    # each list node (spaces, every dom, cod, matrix and row) replaced by
    # an object keyed by its items, or by its string items run together:
    # iterating either yields the items again, which must not pass as the
    # list
    path, doc = radford_doc
    escaped = []
    nodes = [p for p in json_paths(doc) if isinstance(_at(doc, p), list)]
    assert len(nodes) == 135
    for where in nodes:
        items = _at(doc, where)
        for value in ({x if isinstance(x, str) else json.dumps(x): None
                       for x in items},
                      "".join(x for x in items if isinstance(x, str))):
            mutant = json.loads(json.dumps(doc))
            _at(mutant, where[:-1])[where[-1]] = value
            with open(path, "w") as fh:
                fh.write(json.dumps(mutant))
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = main(["check", "hopf", "--in", path])
            if code != 2:
                escaped.append(("/".join(map(str, where)), value, code))
    assert escaped == []


@pytest.fixture(scope="module")
def qline_doc(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "qline.json")
    save_workspace(braided_qline_workspace()[0], path)
    return path, json.loads(open(path).read())


# the braided section's own commands: each copy's bialgebra laws under
# the braiding
BRAIDED_FUZZ_COMMANDS = FUZZ_COMMANDS + (
    ["check", "bialgebra", "--name", "h"],
    ["check", "bialgebra", "--name", "a"])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_braided_workspaces_exit_cleanly(qline_doc, data):
    mutate_and_run(*qline_doc, BRAIDED_FUZZ_COMMANDS, data)
