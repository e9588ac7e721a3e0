import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbial import cli
from crossbial.cli import (
    Workspace,
    load_workspace,
    main,
    save_workspace,
    workspace_to_json,
)
from crossbial.linmaps import LinMap, UNIT
from crossbial.scalars import root_of_unity
from crossbial.zoo import sweedler_crossed_modules, taft_factor
from tests.test_twisting import bicharacter_cocycle, canonical_pairing

ONE = Fraction(1)


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
    code, out, _ = run(capsys, "check", "hopf", "--in", bad)
    assert code == 1
    assert "verdict: fail" in out
    assert "FAIL" in out


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
    ("maps", _scalar_map({"n": 3, "coeffs": ["1_0", "1"]}))])
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


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense", "--in", "x.json"])
    assert exc.value.code == 2


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


# ---------------------------------------------------------------------------
# datum and cross commands
# ---------------------------------------------------------------------------

def test_datum_pipeline(tmp_path, capsys):
    path = build_radford_ws(tmp_path, capsys)
    code, out, _ = run(capsys, "datum", "check", "--in", path)
    assert code == 0 and "verdict: pass" in out
    code, out, _ = run(capsys, "datum", "order", "--in", path)
    assert code == 0 and '"order": 1' in out.replace("order: 1", '"order": 1')
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


def test_double_biproduct_command(tmp_path, capsys):
    inp = sweedler_crossed_modules()
    sb, sc = inp.B.space, inp.C.space
    rho = LinMap((sb, sc), UNIT, {(0, 0): ONE, (0, 3): ONE})
    ws = (Workspace().add_structure("h", inp.H).add_structure("b", inp.B)
          .add_structure("c", inp.C))
    for name, f in (("b_act", inp.b_act), ("b_coact", inp.b_coact),
                    ("c_act", inp.c_act), ("c_coact", inp.c_coact),
                    ("rho", rho)):
        ws.add_map(name, f)
    path = str(tmp_path / "dbp.json")
    save_workspace(ws, path)
    out_path = str(tmp_path / "z.json")
    code, out, _ = run(capsys, "double-biproduct", "build", "--in", path,
                       "-o", out_path)
    assert code == 0
    assert "dim: 8" in out
    assert "twist_changed_multiplication: false" in out
    built = load_workspace(out_path)
    assert set(built.structures) == {"main", "z_twisted"}
    assert set(built.maps) == {"rho_hat", "rho_hat_inv"}


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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_workspaces_exit_cleanly(radford_doc, data):
    # one node of a valid workspace replaced or deleted; every command
    # must end in 0, 1 or 2, and 1 only with a report or a verified failure
    path, doc = radford_doc
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
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--in", path, "--format", "json"])
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert out.getvalue() or "verified failure" in err.getvalue(), \
                (argv, err.getvalue())
