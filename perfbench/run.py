"""crossbial benchmark: one seeded workload, one client in a closed loop.

    python3 perfbench/run.py --workload cli-verify --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; crossbial is imported from
``src/``.  One process, one thread: the client sends one job, waits for its
verdict, then sends the next, which is how both Python and CLI users drive
crossbial.  A pass is the workload's fixed job list; a run makes the
number of passes planned for ``--seconds`` (see ``PASS_S``).

``--trace 0`` prints the end-to-end metrics: setup_s (median over this
process and six set-up probes in fresh processes), wall_s (median pass
time), job_s.p50, job_s.tail and peak_rss_mb.  ``--trace 1`` follows each
untraced pass with a traced one, checks that they give identical
evidence, and prints the per-layer metrics of the traced set-up plus the
first traced pass.

Job times are reported in reference seconds.  On a shared machine the
speed of a process swings by up to 3x in plateaus of a few seconds, which
no amount of repetition averages out, so each job's measured seconds are
scaled by the machine speed a calibration loop saw around and inside it
(see ``speed.py``); so is each set-up time, by the loop timed around it.
Seconds as measured are printed on ``#`` lines.  The per-layer self and
total times are not scaled.

Every job checks its result exactly; the evidence of every job (report
bytes, output workspaces, returned maps) must repeat exactly across
passes.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Working files go to ``.perfbench/`` in the
checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 6
# Seconds one pass of each workload takes as measured here; a run
# plans round(--seconds / PASS_S) passes, at least one, so that every run
# of a workload does the same work.  A pass is not started when it would
# end after OVERRUN * --seconds.
PASS_S = {"cli-verify": 12.0, "twist": 12.0, "recursion": 25.0}
OVERRUN = 1.2
MUL_BATCH = 512
MUL_REPS = 9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-verify", "twist", "recursion"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the smoke test")
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="only time import and set-up into DIR (internal)")
    return ap.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "crossbial")):
        raise SystemExit(f"perfbench: no crossbial package under {src}")
    sys.path.insert(0, src)
    import workloads  # noqa: F401  (imports crossbial)
    return workloads


def make_inputs(workloads, args, workdir):
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    return workloads.SETUPS[args.workload](rng, workdir, args.size)


# ---------------------------------------------------------------------------
# evidence digests
# ---------------------------------------------------------------------------

def _canon(obj):
    from crossbial.linmaps import LinMap
    from crossbial.structures import CheckReport, Structure
    if isinstance(obj, LinMap):
        return ("LinMap", [s.name for s in obj.dom], [s.name for s in obj.cod],
                sorted((k, repr(v)) for k, v in obj.entries.items()))
    if isinstance(obj, Structure):
        return ("Structure", obj.space.name,
                [_canon(f) for f in (obj.m, obj.eta, obj.delta, obj.eps,
                                     obj.S)])
    if isinstance(obj, CheckReport):
        return ("CheckReport", obj.to_json())
    if isinstance(obj, dict):
        return sorted((repr(k), _canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return repr(obj)


def digest(evidence) -> str:
    """Exact fingerprint of a job's evidence; CLI output files are read."""
    if isinstance(evidence, tuple) and evidence and evidence[0] == "cli":
        _, code, text, out_path = evidence
        blob = f"{code}\n{text}".encode()
        if out_path is not None:
            with open(out_path, "rb") as fh:
                blob += b"\0" + fh.read()
    else:
        blob = json.dumps(_canon(evidence)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self):
        self.latencies = []       # reference seconds, one per job
        self.raw = []             # seconds as measured, one per job
        self.verdicts = {}        # job name -> (ok, reason)
        self.digests = {}         # job name -> evidence digest

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_pass(jobs, tracer=None, label="pass"):
    """Run the job list once.  The garbage of each job is collected before
    the next starts, outside the timed region, and each latency is also
    converted to reference seconds (see speed.py)."""
    out, state, evidence = Pass(), {}, []
    if tracer is not None:
        tracer.scope = label
    probe = speed.SpeedProbe()

    def attempt(job):
        try:
            return job.run(state)
        except Exception as err:  # a job that raises is a failed job
            return False, f"raised {type(err).__name__}: {err}", None

    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        gc.collect()
        (ok, why, ev), dt, ref = probe.run(lambda: attempt(job))
        out.raw.append(dt)
        out.latencies.append(ref)
        out.verdicts[job.name] = (ok, why)
        evidence.append((job.name, ev))
    for name, ev in evidence:
        try:
            out.digests[name] = digest(ev)
        except OSError as err:
            out.verdicts[name] = (False, f"evidence unreadable: {err}")
    return out


def failed_jobs(p: Pass, reference: Pass, problems: list) -> int:
    """Jobs of ``p`` that failed their checks or whose evidence differs
    from the reference pass."""
    bad = 0
    for name, (ok, why) in p.verdicts.items():
        if ok and p.digests.get(name) != reference.digests.get(name):
            ok, why = False, "evidence differs from the first pass"
        if not ok:
            bad += 1
            problems.append(f"{name}: {why}")
    return bad


def tail(latencies, planned):
    """Latency at the highest whole percentile that leaves at least ten of
    the run's planned samples above it (nearest rank), with that
    percentile.  The percentile depends on the plan only, so a run cut
    short reports the same percentile of the same job mix."""
    xs = sorted(latencies)
    pct = math.floor(100 * (planned - 10) / planned) if planned > 10 else 50
    rank = max(1, math.ceil(pct * len(xs) / 100))
    return xs[rank - 1], pct


# ---------------------------------------------------------------------------
# set-up probes and scalar micro-timings
# ---------------------------------------------------------------------------

def setup_probe(args):
    """Import crossbial and build the inputs into a throwaway directory, in a
    fresh interpreter.  Returns the seconds from its start to jobs ready,
    as measured and in reference seconds (scaled by the calibration loop
    timed just before and after)."""
    probe_dir = os.path.join(WORK, f"probe-{os.getpid()}")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--size", args.size, "--setup-probe", probe_dir]
    before = speed.loop_seconds()
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    after = speed.loop_seconds()
    raw = float(res.stdout.strip().splitlines()[-1])
    return raw, raw * speed.NOMINAL_S / ((before + after) / 2)


def mul_ns(maps, seed):
    """ns per scalar product on a fixed batch of operand pairs drawn from
    the workload's own maps (rationals: q; Q(zeta_n): nN).  A conductor
    the workload lacks is drawn from the Radford algebra of that order.
    Operands are built before timing; loop overhead is included."""
    from crossbial import zoo
    from crossbial.scalars import Cyclo

    def pool_of(fs):
        pools = {}
        for f in fs:
            for _, v in sorted(f.entries.items()):
                key = f"n{v.n}" if isinstance(v, Cyclo) else "q"
                pools.setdefault(key, []).append(v)
        return pools

    pools = pool_of(maps)
    fallback = {"n3": (3, 1, 3, 1), "n4": (4, 1, 4, 1), "n8": (8, 1, 8, 4)}
    rng = random.Random(f"mul:{seed}")
    out = {}
    for key in ("q", "n3", "n4", "n8"):
        pool = pools.get(key)
        if not pool:
            H = zoo.radford(zoo.RadfordParams(*fallback[key]))["H"]
            pool = pool_of([H.m, H.delta, H.S])[key]
        pairs = [(rng.choice(pool), rng.choice(pool))
                 for _ in range(MUL_BATCH)]
        for a, b in pairs:
            a * b
        samples = []
        for _ in range(MUL_REPS):
            t = time.perf_counter_ns()
            for a, b in pairs:
                a * b
            samples.append((time.perf_counter_ns() - t) / MUL_BATCH)
        out[f"scalars.mul_ns.{key}"] = statistics.median(samples)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def fresh_inputs(build, first):
    """The inputs of each pass: the set-up's own, then freshly built
    identical ones, so that no pass finds the caches an earlier pass
    filled on its input objects.  Rebuilding is not part of any pass."""
    wl = first
    while True:
        gc.collect()
        yield wl
        wl = build()


def planned_passes(args) -> int:
    return max(1, round(args.seconds / PASS_S[args.workload]))


def run_passes(args, inputs, problems, tracer=None):
    """Untraced passes (each followed by a traced one when a tracer is
    given) until the planned number is done or the next would overrun
    the time allowed.  Returns the untraced passes, the traced passes,
    jobs attempted and jobs failed."""
    untraced, traced, reference, bad, attempted = [], [], None, 0, 0
    start = time.perf_counter()
    while True:
        p = run_pass(next(inputs).jobs)
        reference = reference or p
        bad += failed_jobs(p, reference, problems)
        attempted += len(p.raw)
        untraced.append(p)
        if tracer is not None:
            t = tracer if not traced else type(tracer)()
            jobs = next(inputs).jobs
            t.install()
            try:
                p = run_pass(jobs, t, label=f"pass-{len(traced)}")
            finally:
                t.uninstall()
            bad += failed_jobs(p, reference, problems)
            attempted += len(p.raw)
            traced.append(p)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= planned_passes(args) or \
                elapsed + per_round > OVERRUN * args.seconds:
            return untraced, traced, attempted, bad


def end_to_end(args, passes, setup):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    planned = planned_passes(args) * len(passes[0].raw)
    latencies = [x for p in passes for x in p.latencies]
    raw = [x for p in passes for x in p.raw]
    tail_s, pct = tail(latencies, planned)
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    print(f"# passes={len(passes)} jobs={len(latencies)}; job_s.tail is p{pct}"
          f" of {len(latencies)} samples "
          f"({len(latencies) - math.ceil(pct * len(latencies) / 100)} above)")
    print(f"# pass times: {' '.join(f'{p.wall:.3f}' for p in passes)} "
          f"reference s; {' '.join(f'{p.raw_wall:.3f}' for p in passes)} "
          f"s as measured")
    print(f"# as measured: wall_s "
          f"{statistics.median(p.raw_wall for p in passes):.6g} job_s.p50 "
          f"{statistics.median(raw):.6g} job_s.tail {tail(raw, planned)[0]:.6g}")
    print(f"# setup_s samples: {' '.join(f'{r:.4f}' for _, r in setups)} "
          f"reference s; {' '.join(f'{s:.4f}' for s, _ in setups)} "
          f"s as measured")
    return {
        "setup_s": statistics.median(r for _, r in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "job_s.p50": statistics.median(latencies),
        "job_s.tail": tail_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(args, untraced, traced, tracer, sample_maps, problems):
    import metrics as spec
    metrics = tracer.metrics()
    metrics.update(mul_ns(sample_maps(), args.seed))
    metrics["trace.overhead_share"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1)
    for name in spec.BYPASS.get(args.workload, []):
        if metrics.get(name, 0):
            problems.append(f"bypass broken: {name} = {metrics[name]} on "
                            f"{args.workload}")
    tracer.write(os.path.join(WORK, "trace",
                              f"{args.workload}-s{args.seed}.jsonl"))
    print(f"# traced passes={len(traced)} spans={len(tracer.spans)}")
    return {name: float(metrics.get(name, 0)) for name, *_ in spec.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads = import_program()
        make_inputs(workloads, args, args.setup_probe)
        print(f"{time.perf_counter() - _T0:.6f}")
        return 0
    workloads = import_program()
    import metrics as spec
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")

    def build():
        return make_inputs(workloads, args, workdir)

    problems = []
    try:
        try:
            wl = build()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = time.perf_counter() - _T0
        setup = (setup_s, setup_s * speed.NOMINAL_S / speed.loop_seconds())
        untraced, traced, attempted, bad = run_passes(
            args, fresh_inputs(build, wl), problems, tracer)
        if tracer is not None:
            metrics = per_layer(args, untraced, traced, tracer,
                                wl.sample_maps, problems)
            units = {name: unit for name, unit, *_ in spec.PER_LAYER}
        else:
            metrics = end_to_end(args, untraced, setup)
            units = {name: unit for name, unit, *_ in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"# error_rate = {bad / attempted:.6g} ({bad} of {attempted} jobs)")
    emit(not problems, attempted, bad, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
