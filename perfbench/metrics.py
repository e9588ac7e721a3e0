"""Names, units and intent of every metric the benchmark prints.

``END_TO_END`` is what a user of crossbial sees; ``PER_LAYER`` comes from
the traced run.  Each per-layer entry records the end-to-end metric and
workload it should move, so a later change can state its prediction in
these terms.  ``BYPASS`` lists per-layer figures that must be 0 on a
workload; a non-zero value means the workload no longer isolates its
layers, and the traced run then reports ``correct: false``.
``BENCHMARK.json`` repeats the names, units and bounds; ``smoke.py`` checks
that the two agree.
"""

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("job_s.p50", "s", "lower", 0.25),
    ("job_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_P50 = "job_s.p50 on cli-verify"
_TWIST_WALL = "wall_s on twist"
_REC_WALL = "wall_s on recursion"

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = [
    ("scalars.cyclo_mul.calls", "count", "lower",
     "wall_s on recursion and twist"),
    ("scalars.cyclo_make.calls", "count", "lower",
     "wall_s on recursion and twist"),
    ("scalars.mul_ns.q", "ns", "lower",
     "wall_s on recursion first, then on all workloads"),
    ("scalars.mul_ns.n3", "ns", "lower",
     "wall_s on recursion first, then on all workloads"),
    ("scalars.mul_ns.n4", "ns", "lower",
     "wall_s on recursion first, then on all workloads"),
    ("scalars.mul_ns.n8", "ns", "lower",
     "wall_s on recursion first, then on all workloads"),
    ("linmaps.compose.calls", "count", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.compose.self_s", "s", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.compose.out_nnz", "count", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.tensor.calls", "count", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.tensor.self_s", "s", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.tensor.out_nnz", "count", "lower", f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.tensor.identity_pad_share", "ratio", "lower",
     f"{_P50}; {_TWIST_WALL}"),
    ("linmaps.first_difference.self_s", "s", "lower", _P50),
    ("linmaps.run_pipeline.calls", "count", "lower", _REC_WALL),
    ("linmaps.run_pipeline.self_s", "s", "lower", _REC_WALL),
    ("structures.check_axioms.calls", "count", "lower",
     "wall_s on twist and cli-verify"),
    ("structures.check_axioms.total_s", "s", "lower",
     "wall_s on twist and cli-verify"),
    ("structures.check_axioms.repeat_share", "ratio", "lower", _TWIST_WALL),
    ("structures.compare.calls", "count", "lower", _P50),
    ("structures.compare.self_s", "s", "lower", _P50),
    ("structures.compare.fail_share", "ratio", "lower", _P50),
    ("structures.convolution_inverse.calls", "count", "lower",
     "wall_s and job_s.tail on twist"),
    ("structures.convolution_inverse.self_s", "s", "lower",
     "wall_s and job_s.tail on twist"),
    ("structures.convolution_inverse.unknowns", "count", "lower",
     "wall_s and job_s.tail on twist"),
    ("datum.build_phi_superoperator.calls", "count", "lower",
     f"{_REC_WALL} (and peak_rss_mb there if memoized)"),
    ("datum.build_phi_superoperator.self_s", "s", "lower",
     f"{_REC_WALL} (and peak_rss_mb there if memoized)"),
    ("datum.build_phi_superoperator.phi_nnz", "count", "lower",
     f"{_REC_WALL} (and peak_rss_mb there if memoized)"),
    ("datum.build_phi_superoperator.repeat_share", "ratio", "lower",
     f"{_REC_WALL} (and peak_rss_mb there if memoized)"),
    ("datum.sop_compose.calls", "count", "lower", _REC_WALL),
    ("datum.sop_compose.self_s", "s", "lower", _REC_WALL),
    ("datum.check_hopf_datum.total_s", "s", "lower", _P50),
    ("datum.phi_apply.total_s", "s", "lower", _REC_WALL),
    ("crossproduct.decompose.total_s", "s", "lower", _P50),
    ("crossproduct.verify_trivalent_equivalences.total_s", "s", "lower",
     _P50),
    ("twisting.twist.total_s", "s", "lower", _TWIST_WALL),
    ("twisting.validate_cocycle.total_s", "s", "lower", _TWIST_WALL),
    ("twisting.cocycle_inverse.total_s", "s", "lower", _TWIST_WALL),
    ("twisting.double_biproduct.total_s", "s", "lower", _TWIST_WALL),
    ("zoo.build.total_s", "s", "lower", "setup_s on all workloads"),
    ("cli.main.calls", "count", "lower",
     "none: 0 on twist and recursion shows they bypass the CLI"),
    ("cli.load_workspace.self_s", "s", "lower",
     "job_s.p50 and setup_s on cli-verify"),
    ("cli.load_workspace.bytes", "bytes", "lower",
     "job_s.p50 and setup_s on cli-verify"),
    ("cli.save_workspace.self_s", "s", "lower",
     "job_s.p50 and setup_s on cli-verify"),
    ("cli.save_workspace.bytes", "bytes", "lower",
     "job_s.p50 and setup_s on cli-verify"),
    ("cli.canonical_json.self_s", "s", "lower",
     "job_s.p50 and setup_s on cli-verify"),
    ("trace.overhead_share", "ratio", "lower",
     "none: traced wall_s / untraced wall_s - 1"),
]

# workload -> per-layer counts that must read 0 there
BYPASS = {
    "twist": ["datum.build_phi_superoperator.calls", "cli.main.calls",
              "cli.load_workspace.calls", "cli.save_workspace.calls",
              "cli.canonical_json.calls"],
    "recursion": ["structures.convolution_inverse.calls", "cli.main.calls",
                  "cli.load_workspace.calls", "cli.save_workspace.calls",
                  "cli.canonical_json.calls"],
}

WORKLOADS = {
    "cli-verify": (
        "1 client, closed loop: CLI script via cli.main on seeded workspaces, "
        "refutations too; exercises check_axioms, compare, compose/tensor, "
        "JSON; superoperator nearly idle"),
    "twist": (
        "1 client, closed loop, Python API: bicharacter twists and back, N=4 "
        "twist, double biproducts; exercises convolution solving, repeated "
        "checks; bypasses CLI, recursion"),
    "recursion": (
        "1 client, closed loop, Python API: superoperator, recursion_order, "
        "phi_apply fixed points; exercises pipelines, sop_compose, scalar "
        "products; bypasses convolution solving, CLI"),
}
