"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Checks that BENCHMARK.json agrees with metrics.py and obeys the naming
rules, runs every workload at the tiny size untraced and traced, and
checks that each prints every metric it names, with its unit, that every
job passed (error_rate 0) and that no bypass prediction broke.  Finally
it checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and perfbench/.  Exits 1 on
the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import metrics as spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": bd}
                for n, u, b, bd in spec.END_TO_END]
    want_layer = [{"name": n, "unit": u, "better": b}
                  for n, u, b, _ in spec.PER_LAYER]
    want_wl = [{"name": n, "why": w} for n, w in spec.WORKLOADS.items()]
    if doc["end_to_end"] != want_e2e or doc["per_layer"] != want_layer \
            or doc["workloads"] != want_wl:
        fail("BENCHMARK.json and metrics.py disagree")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]
             + doc["workloads"]]
    for name in names:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"bad unit or direction in {m}")
    for w in doc["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"why of {w['name']} is not one line of at most 200")
    return doc


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=cwd)


def main():
    doc = check_spec()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    for w in doc["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            if res.returncode != 0:
                fail(f"{w['name']} trace={trace} exited {res.returncode}:\n"
                     f"{res.stderr}")
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                fail(f"{w['name']} trace={trace}: error_rate "
                     f"{out['failed']}/{out['attempted']}\n{res.stderr}")
            want = [m["name"] for m in doc[section]]
            if sorted(out["metrics"]) != sorted(want):
                fail(f"{w['name']} trace={trace} printed "
                     f"{sorted(set(out['metrics']) ^ set(want))} wrongly")
            for name, m in out["metrics"].items():
                if m["unit"] != units[name] or not isinstance(
                        m["value"], (int, float)):
                    fail(f"{name}: {m}")
            print(f"smoke: ok {w['name']} trace={trace} "
                  f"({out['attempted']} jobs)")
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        res = run(doc["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or '"metrics"' in res.stdout:
        fail("the benchmark ran without the program")
    print("smoke: ok refuses to run without the program")


if __name__ == "__main__":
    main()
