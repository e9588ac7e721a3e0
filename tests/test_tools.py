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
