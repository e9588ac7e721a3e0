"""Spans and counters around crossbial's public functions, from outside.

``Tracer.install()`` wraps the functions listed in ``_span_table`` and rebinds
every module attribute in ``crossbial.*`` that refers to the original, so
an alias made by ``from .structures import check_axioms`` is traced as
well.  ``LinMap.compose``/``tensor``/``first_difference`` are wrapped on
the class; ``Cyclo.__mul__``/``__rmul__``/``make`` get bare counters,
because a span per scalar product would cost more than the product.
``uninstall()`` puts every original back.  Nothing in ``src/`` changes.

A span is (name, start, end, parent span index, job).  Self time is the
span's duration minus the time covered by its child spans; total time of
a name counts only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from crossbial import (cli, crossproduct, datum, linmaps, scalars, structures,
                       twisting, zoo)
from crossbial.linmaps import LinMap, VectFlip
from crossbial.scalars import Cyclo

MODULES = (scalars, linmaps, structures, datum, crossproduct, twisting, zoo,
           cli)

ZOO_CONSTRUCTIONS = ("group_algebra", "dual_group_algebra", "taft_factor",
                     "radford", "ore_finite", "sweedler_crossed_modules",
                     "braided_line_input")


def _map_hash(f: LinMap) -> int:
    return hash((f.dom, f.cod, frozenset(f.entries.items())))


def _structure_hash(st) -> int:
    return hash((st.space, tuple(None if f is None else _map_hash(f)
                                 for f in (st.m, st.eta, st.delta, st.eps,
                                           st.S))))


def _braiding_key(bp):
    return "flip" if bp is None or isinstance(bp, VectFlip) else id(bp)


def _is_identity(f: LinMap) -> bool:
    n = f.nrows
    return (f.dom == f.cod and len(f.entries) == n
            and all(r == c and v == 1 for (r, c), v in f.entries.items()))


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: List[Optional[tuple]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.job = "setup"
        self.scope = "setup"          # the pass, for pass-wide repeats
        self._stack: List[list] = []  # [span index, child seconds]
        self._depth: Dict[str, int] = defaultdict(int)
        self._seen_checks: Dict[str, set] = defaultdict(set)
        self._seen_datums: Dict[str, set] = defaultdict(set)
        self._patches: List[tuple] = []
        self._mul = [0]
        self._make = [0]

    # -- wrapping ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook=None) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if depth[name] == 0:
                    total_s[name] += dur
                spans[idx] = (name, start - self.t0, end - self.t0, parent,
                              self.job)
            if hook is not None:
                hook(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, orig, new) -> None:
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, new)

    def _patch_class(self, cls, attr: str, new) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, fname, name, hook in self._span_table():
            orig = getattr(mod, fname)
            self._rebind(orig, self._span(name, orig, hook))
        for attr, name, hook in (("compose", "linmaps.compose",
                                  self._on_compose),
                                 ("tensor", "linmaps.tensor", self._on_tensor),
                                 ("first_difference",
                                  "linmaps.first_difference", None)):
            self._patch_class(LinMap, attr,
                              self._span(name, LinMap.__dict__[attr], hook))
        mul, make = self._mul, self._make
        orig_mul, orig_rmul = Cyclo.__dict__["__mul__"], Cyclo.__dict__["__rmul__"]
        orig_make = Cyclo.__dict__["make"].__func__

        def cmul(a, b):
            mul[0] += 1
            return orig_mul(a, b)

        def crmul(a, b):
            mul[0] += 1
            return orig_rmul(a, b)

        def cmake(n, coeffs):
            make[0] += 1
            return orig_make(n, coeffs)
        self._patch_class(Cyclo, "__mul__", cmul)
        self._patch_class(Cyclo, "__rmul__", crmul)
        self._patch_class(Cyclo, "make", staticmethod(cmake))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, val = self._patches.pop()
            setattr(owner, key, val)

    def _span_table(self):
        t = [
            (linmaps, "run_pipeline", "linmaps.run_pipeline", None),
            (structures, "check_axioms", "structures.check_axioms",
             self._on_check_axioms),
            (structures, "compare", "structures.compare", self._on_compare),
            (structures, "convolution_inverse",
             "structures.convolution_inverse", self._on_convolution_inverse),
            (datum, "build_phi_superoperator",
             "datum.build_phi_superoperator", self._on_superoperator),
            (datum, "sop_compose", "datum.sop_compose", None),
            (datum, "check_hopf_datum", "datum.check_hopf_datum", None),
            (datum, "phi_apply", "datum.phi_apply", None),
            (crossproduct, "decompose", "crossproduct.decompose", None),
            (crossproduct, "verify_trivalent_equivalences",
             "crossproduct.verify_trivalent_equivalences", None),
            (twisting, "twist", "twisting.twist", None),
            (twisting, "validate_cocycle", "twisting.validate_cocycle", None),
            (twisting, "cocycle_inverse", "twisting.cocycle_inverse", None),
            (twisting, "double_biproduct", "twisting.double_biproduct", None),
            (cli, "main", "cli.main", None),
            (cli, "load_workspace", "cli.load_workspace", self._on_load),
            (cli, "save_workspace", "cli.save_workspace", self._on_save),
            (cli, "canonical_json", "cli.canonical_json", None),
        ]
        t += [(zoo, f, "zoo.build", None) for f in ZOO_CONSTRUCTIONS]
        return t

    # -- counters ----------------------------------------------------------

    def _on_compose(self, args, result) -> None:
        self.counts["linmaps.compose.out_nnz"] += len(result.entries)

    def _on_tensor(self, args, result) -> None:
        nnz = len(result.entries)
        self.counts["linmaps.tensor.out_nnz"] += nnz
        if _is_identity(args[0]) or _is_identity(args[1]):
            self.counts["linmaps.tensor.pad_nnz"] += nnz

    def _on_compare(self, args, result) -> None:
        if not result.ok:
            self.counts["structures.compare.failed"] += 1

    def _on_check_axioms(self, args, result) -> None:
        st, kind = args[0], args[1]
        bp = args[2] if len(args) > 2 else None
        key = (_structure_hash(st), kind, _braiding_key(bp))
        seen = self._seen_checks[self.job]
        if key in seen:
            self.counts["structures.check_axioms.repeats"] += 1
        seen.add(key)

    def _on_convolution_inverse(self, args, result) -> None:
        self.counts["structures.convolution_inverse.unknowns"] += (
            args[1].dim * args[2].dim)

    def _on_superoperator(self, args, result) -> None:
        d = args[0]
        self.counts["datum.build_phi_superoperator.phi_nnz"] += sum(
            len(col) for col in result.phi.values())
        key = (_structure_hash(d.b1), _structure_hash(d.b2),
               tuple(_map_hash(f) for f in (d.act_l, d.coact_l, d.act_r,
                                            d.coact_r)),
               _braiding_key(d.braiding))
        seen = self._seen_datums[self.scope]
        if key in seen:
            self.counts["datum.build_phi_superoperator.repeats"] += 1
        seen.add(key)

    def _on_load(self, args, result) -> None:
        self.counts["cli.load_workspace.bytes"] += os.path.getsize(args[0])

    def _on_save(self, args, result) -> None:
        self.counts["cli.save_workspace.bytes"] += os.path.getsize(args[1])

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures over everything traced so far."""
        c, calls = self.counts, self.calls

        def share(num, den):
            return num / den if den else 0.0

        out = {
            "scalars.cyclo_mul.calls": self._mul[0],
            "scalars.cyclo_make.calls": self._make[0],
            "linmaps.compose.out_nnz": c["linmaps.compose.out_nnz"],
            "linmaps.tensor.out_nnz": c["linmaps.tensor.out_nnz"],
            "linmaps.tensor.identity_pad_share": share(
                c["linmaps.tensor.pad_nnz"], c["linmaps.tensor.out_nnz"]),
            "structures.check_axioms.repeat_share": share(
                c["structures.check_axioms.repeats"],
                calls["structures.check_axioms"]),
            "structures.compare.fail_share": share(
                c["structures.compare.failed"], calls["structures.compare"]),
            "structures.convolution_inverse.unknowns":
                c["structures.convolution_inverse.unknowns"],
            "datum.build_phi_superoperator.phi_nnz":
                c["datum.build_phi_superoperator.phi_nnz"],
            "datum.build_phi_superoperator.repeat_share": share(
                c["datum.build_phi_superoperator.repeats"],
                calls["datum.build_phi_superoperator"]),
            "cli.load_workspace.bytes": c["cli.load_workspace.bytes"],
            "cli.save_workspace.bytes": c["cli.save_workspace.bytes"],
        }
        for name in set(calls) | set(self.self_s):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".total_s"] = self.total_s[name]
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                if s is None:
                    continue
                name, start, end, parent, job = s
                fh.write(json.dumps({"name": name, "start": round(start, 7),
                                     "end": round(end, 7), "parent": parent,
                                     "job": job}) + "\n")
