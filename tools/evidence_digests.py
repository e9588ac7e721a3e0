"""Byte-identity evidence of the benchmark workloads, for diffing two trees.

    python3 tools/evidence_digests.py --seeds 11 12 13 > after.txt

Run from the root of a source checkout.  For each workload and seed it
builds the inputs ``perfbench/run.py`` would build and runs one pass of
the job list, then prints one line per job:

    <workload> <seed> <job> <verdict> <digest>

where the digest is perfbench's exact fingerprint of the job's evidence
(report and output bytes for CLI jobs, every returned map and report for
the others).  Every CLI command of the pass is run again with
``--format text`` and its exit code and report are printed, and so is the
SHA-256 of every file left in the work directory.  The work directory is
the same fixed path in every checkout and is emptied before each run, so
the output of two trees, run one after the other, differs only where
their evidence does:

    diff before.txt after.txt

A run holds an exclusive lock on a file next to the work directory; a
second run started while it is held exits 1 without touching anything.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402

WORKLOADS = ("cli-verify", "twist", "recursion")
# reports name their input files, so both trees must use the same path
WORKDIR = os.path.join(tempfile.gettempdir(), "crossbial-evidence")
LOCKFILE = WORKDIR + ".lock"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def recorded_pass(workloads, jobs):
    """One pass of jobs; also the argv of every CLI call, by job."""
    argvs = {}
    run_cli = workloads._run_cli

    def recording(job):
        def run(state):
            def record(argv):
                argvs.setdefault(job.name, []).append(list(argv))
                return run_cli(argv)
            workloads._run_cli = record
            try:
                return job.run(state)
            finally:
                workloads._run_cli = run_cli
        return workloads.Job(job.name, run)

    return bench.run_pass([recording(job) for job in jobs]), argvs


def as_text(argv):
    i = argv.index("--format")
    return argv[:i + 1] + ["text"] + argv[i + 2:]


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(LOCKFILE, "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"evidence_digests: {LOCKFILE} is held by another run; "
                  f"two runs at once share {WORKDIR}", file=sys.stderr)
            return 1
        return digests(args)


def digests(args) -> int:
    workloads = bench.import_program()
    for name in WORKLOADS:
        for seed in args.seeds:
            shutil.rmtree(WORKDIR, ignore_errors=True)
            inputs = bench.make_inputs(workloads, bench.parse_args(
                ["--workload", name, "--seed", str(seed), "--seconds", "1",
                 "--size", args.size]), WORKDIR)
            p, argvs = recorded_pass(workloads, inputs.jobs)
            for job in inputs.jobs:
                ok, why = p.verdicts[job.name]
                print(name, seed, job.name, "ok" if ok else f"FAIL({why})",
                      p.digests.get(job.name))
            for job, calls in argvs.items():
                for call in calls:
                    code, text = workloads._run_cli(as_text(call))
                    print(f"== {name} {seed} {job} text exit {code}")
                    print(text, end="")
            for top, _, files in sorted(os.walk(WORKDIR)):
                for file in sorted(files):
                    path = os.path.join(top, file)
                    with open(path, "rb") as fh:
                        sha = hashlib.sha256(fh.read()).hexdigest()
                    print(name, seed, "file",
                          os.path.relpath(path, WORKDIR), sha)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
