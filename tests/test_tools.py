"""The tools under tools/ refuse what would make their output wrong."""

import fcntl
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_evidence_digests_refuses_a_second_run(capsys):
    # two runs at once would share one work directory and print digests
    # of each other's files
    tool = load_tool("evidence_digests")
    with open(tool.LOCKFILE, "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert tool.main(["--seeds", "1", "--size", "tiny"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "is held by another run" in err


def test_every_mutant_edits_text_that_occurs_once():
    # a refactor that moves code must move its mutants with it; the gate
    # itself, which runs each mutant's tests, is a CI step of its own
    tool = load_tool("mutants")
    assert tool.misplaced() == []
    for m in tool.MUTANTS:
        assert m.new != m.old and m.tests, m
        assert all(t.startswith("tests/test_") and "::" in t
                   for t in m.tests), m
