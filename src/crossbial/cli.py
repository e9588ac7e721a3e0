"""Command-line interface and JSON workspace persistence.

A workspace file carries named spaces, structures and maps over a single
cyclotomic field; builders write them, verification commands read them
and emit deterministic machine-readable reports.  Exit codes: 0 for a
passing verdict, 1 for a verified failure, 2 for usage or input errors.
Timing is written to stderr only, so reports are byte-identical across
repeated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Dict

from . import __version__
from .crossproduct import (BAT, InvalidSystemError, NotABATError,
                           NotASplittingError, ProjectionSystem,
                           build_cross_product, decompose,
                           verify_trivalent_equivalences)
from .datum import (ConsistencyError, HopfDatum, build_bialgebra,
                    check_hopf_datum, classify, recursion_order, trivalence)
from .linmaps import (ConfigurationError, LinMap, NotInvertibleError,
                      ShapeError, Space, json_dim, json_int,
                      linmap_from_json,
                      linmap_to_json)
from .scalars import ConductorMixError, ScalarParseError, scalar_conductor
from .structures import (CheckReport, NotConvolutionInvertibleError,
                         PreconditionError, Structure, check_axioms,
                         structure_from_json, structure_to_json)
from .twisting import (DoubleBiproductInput, DualPairing, TwoCocycle,
                       double_biproduct, matched_pair_from_pairing, twist,
                       validate_cocycle, validate_pairing)
from .zoo import (OreParams, ParameterError, RadfordParams, UnsupportedError,
                  group_algebra, ore_finite, radford)

WORKSPACE_SCHEMA = "crossbial-workspace/1"
REPORT_SCHEMA = "crossbial-report/1"


class UsageError(ValueError):
    pass


class WorkspaceError(ValueError):
    """Workspace file violates the schema; message carries a pointer."""


# ---------------------------------------------------------------------------
# workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Named spaces, structures and maps over one coefficient field."""

    def __init__(self, spaces=None, structures=None, maps=None):
        self.spaces: Dict[str, Space] = dict(spaces or {})
        self.structures: Dict[str, Structure] = dict(structures or {})
        self.maps: Dict[str, LinMap] = dict(maps or {})

    def add_structure(self, name: str, st: Structure) -> "Workspace":
        self.structures[name] = st
        self._note_spaces((st.space,))
        for f in (st.m, st.eta, st.delta, st.eps, st.S):
            if f is not None:
                self._note_spaces(f.dom + f.cod)
        return self

    def add_map(self, name: str, f: LinMap) -> "Workspace":
        self.maps[name] = f
        self._note_spaces(f.dom + f.cod)
        return self

    def _note_spaces(self, spaces):
        for s in spaces:
            old = self.spaces.setdefault(s.name, s)
            if old.dim != s.dim:
                raise WorkspaceError(f"/spaces/{s.name}: conflicting dims")

    def structure(self, name: str) -> Structure:
        if name not in self.structures:
            raise WorkspaceError(f"/structures/{name}: not present")
        return self.structures[name]

    def map(self, name: str) -> LinMap:
        if name not in self.maps:
            raise WorkspaceError(f"/maps/{name}: not present")
        return self.maps[name]

    def conductor(self) -> int:
        seen = set()
        for f in self._all_maps():
            for v in f.entries.values():
                n = scalar_conductor(v)
                if n is not None:
                    seen.add(n)
        if len(seen) > 1:
            raise WorkspaceError(
                f"/conductor: mixed conductors {sorted(seen)}")
        return seen.pop() if seen else 1

    def _all_maps(self):
        for st in self.structures.values():
            for f in (st.m, st.eta, st.delta, st.eps, st.S):
                if f is not None:
                    yield f
        yield from self.maps.values()


def workspace_to_json(ws: Workspace) -> dict:
    return {
        "schema": WORKSPACE_SCHEMA,
        "conductor": ws.conductor(),
        "spaces": [{"name": n, "dim": ws.spaces[n].dim}
                   for n in sorted(ws.spaces)],
        "structures": {n: structure_to_json(st)
                       for n, st in ws.structures.items()},
        "maps": {n: linmap_to_json(f) for n, f in ws.maps.items()},
    }


def workspace_from_json(obj: dict) -> Workspace:
    if not isinstance(obj, dict) or obj.get("schema") != WORKSPACE_SCHEMA:
        raise WorkspaceError(f"/schema: expected {WORKSPACE_SCHEMA!r}")
    ws = Workspace()
    for section, kind, what in (("spaces", list, "a list"),
                                ("structures", dict, "an object"),
                                ("maps", dict, "an object")):
        if not isinstance(obj.get(section, kind()), kind):
            raise WorkspaceError(f"/{section}: expected {what}")
    for i, e in enumerate(obj.get("spaces", [])):
        try:
            ws.spaces[e["name"]] = Space(e["name"], json_dim(e["dim"]))
        except (KeyError, TypeError, ValueError) as err:
            raise WorkspaceError(f"/spaces/{i}: {err}") from err
    for section, loader, target in (
            ("structures", structure_from_json, ws.structures),
            ("maps", linmap_from_json, ws.maps)):
        for name, enc in obj.get(section, {}).items():
            try:
                target[name] = loader(enc, ws.spaces)
            except (ScalarParseError, ShapeError, KeyError,
                    TypeError) as err:
                raise WorkspaceError(f"/{section}/{name}: {err}") from err
    declared = obj.get("conductor")
    if declared is not None:
        try:
            json_int(declared)
        except ValueError as err:
            raise WorkspaceError(f"/conductor: {err}") from err
        if declared != ws.conductor():
            raise WorkspaceError(f"/conductor: declared {declared}, "
                                 f"computed {ws.conductor()}")
    return ws


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_workspace(ws: Workspace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(workspace_to_json(ws)))


def load_workspace(path: str) -> Workspace:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise WorkspaceError(f"/: not JSON ({err})") from err
    return workspace_from_json(obj)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _max_dim() -> int:
    raw = os.environ.get("CROSSBIAL_MAX_DIM", "64")
    try:
        cap = _non_negative(raw)
    except argparse.ArgumentTypeError:
        cap = 0
    if cap < 1:
        raise UsageError(
            f"CROSSBIAL_MAX_DIM={raw!r} is not a positive integer")
    return cap


def _guard_dim(dim: int) -> None:
    if dim > _max_dim():
        raise UsageError(
            f"total dimension {dim} exceeds CROSSBIAL_MAX_DIM={_max_dim()}")


def _document(args, checks: Dict[str, CheckReport], extra: dict,
              ok: bool) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": "crossbial",
        "version": __version__,
        "command": args.echo,
        "verdict": "pass" if ok else "fail",
        "checks": {name: rep.to_json() for name, rep in checks.items()},
        **extra,
    }


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(doc))
        return
    print(f"crossbial {doc['version']} :: {' '.join(doc['command'])}")
    for key in sorted(doc):
        if key in ("schema", "tool", "version", "command", "verdict",
                   "checks"):
            continue
        print(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    for name in sorted(doc.get("checks", {})):
        print(f"[{name}]")
        for e in doc["checks"][name]:
            mark = "ok  " if e["ok"] else "FAIL"
            line = f"  {mark} {e['axiom']}"
            if "witness" in e:
                w = e["witness"]
                line += (f"  out={w['out_index']} in={w['in_index']}: "
                         f"{w['lhs']} != {w['rhs']}")
            print(line)
    print(f"verdict: {doc['verdict']}")


def _finish(args, checks, extra, ok) -> int:
    _emit(_document(args, checks, extra, ok), args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _save(args, ws: Workspace, extra: dict) -> None:
    """Write ws to the -o file, if one was given, and name it in extra."""
    if args.out:
        save_workspace(ws, args.out)
        extra["output"] = args.out


def _tower_workspace(out: dict) -> Workspace:
    """A zoo tower's bialgebra, Hopf datum and projection system."""
    ws = Workspace().add_structure("main", out["H"])
    d: HopfDatum = out["datum"]
    ws.add_structure("b1", d.b1).add_structure("b2", d.b2)
    for k in ("act_l", "coact_l", "act_r", "coact_r"):
        ws.add_map(k, getattr(d, k))
    sysm: ProjectionSystem = out["system"]
    for k in ("i1", "i2", "p1", "p2"):
        ws.add_map(k, getattr(sysm, k))
    return ws


def _cmd_zoo(args) -> int:
    if args.zoo_cmd == "list":
        builders = ["group", "ore", "radford"]
        return _finish(args, {}, {"builders": builders}, True)
    # each builder is guarded by the dim its parameters give, before it
    # allocates anything
    if args.builder == "radford":
        params = RadfordParams(args.n, args.q_exp, args.big_n, args.nu)
        _guard_dim(params.dim)
        out = radford(params)
        ws = _tower_workspace(out)
        extra = {"built": "radford", "dim": out["H"].dim}
    elif args.builder == "group":
        _guard_dim(args.big_n)
        H = group_algebra(args.big_n)
        ws = Workspace().add_structure("main", H)
        extra = {"built": "group", "dim": H.dim}
    else:
        with open(args.spec) as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as err:
                raise UsageError(f"--spec is not JSON ({err})") from err
        try:
            fields = (tuple(map(json_int, spec["orders"])),
                      json_int(spec["t"]),
                      tuple(tuple(map(json_int, e)) for e in spec["g"]),
                      tuple(tuple(map(json_int, e)) for e in spec["g_star"]))
        except (KeyError, TypeError) as err:
            raise UsageError(f"--spec missing field {err}") from err
        except ValueError as err:
            raise UsageError(f"--spec holds a non-integer ({err})") from err
        params = OreParams(*fields)
        _guard_dim(params.dim)
        out = ore_finite(params)
        ws = _tower_workspace(out)
        extra = {"built": "ore", "dim": out["H"].dim}
    _save(args, ws, extra)
    return _finish(args, {}, extra, True)


def _cmd_check(args) -> int:
    ws = load_workspace(args.infile)
    st = ws.structure(args.name)
    _guard_dim(st.dim)
    rep = check_axioms(st, args.kind)
    extra = {"structure": args.name, "kind": args.kind, "dim": st.dim}
    return _finish(args, {"axioms": rep}, extra, rep.ok)


def _datum_from_workspace(ws: Workspace) -> HopfDatum:
    return HopfDatum(ws.structure("b1"), ws.structure("b2"),
                     ws.map("act_l"), ws.map("coact_l"),
                     ws.map("act_r"), ws.map("coact_r"))


def _cmd_datum(args) -> int:
    ws = load_workspace(args.infile)
    d = _datum_from_workspace(ws)
    _guard_dim(d.b1.dim * d.b2.dim)
    if args.datum_cmd == "check":
        rep = check_hopf_datum(d)
        return _finish(args, {"datum": rep}, {}, rep.ok)
    if args.datum_cmd == "order":
        res = recursion_order(d, args.max_n)
        return _finish(args, {}, res, "order" in res)
    if args.datum_cmd == "classify":
        res = classify(d)
        tri = trivalence(d)
        extra = {"pattern": tri["pattern"].string,
                 "trivalent": tri["trivalent"],
                 "family": res["family"],
                 "consistent": tri["consistent"]}
        return _finish(args, {}, extra, tri["consistent"])
    # build
    st = build_bialgebra(d)
    out_ws = Workspace().add_structure("main", st)
    extra = {"dim": st.dim}
    _save(args, out_ws, extra)
    return _finish(args, {}, extra, True)


def _cmd_cross(args) -> int:
    ws = load_workspace(args.infile)
    if args.cross_cmd == "build":
        t = BAT(ws.structure("b1"), ws.structure("b2"),
                ws.map("phi12"), ws.map("phi21"))
        _guard_dim(t.b1.dim * t.b2.dim)
        st = build_cross_product(t)
        out_ws = Workspace().add_structure("main", st)
        extra = {"dim": st.dim}
        _save(args, out_ws, extra)
        return _finish(args, {}, extra, True)
    A = ws.structure(args.name)
    _guard_dim(A.dim)
    sysm = ProjectionSystem(A, ws.map("i1"), ws.map("i2"),
                            ws.map("p1"), ws.map("p2"))
    if args.cross_cmd == "decompose":
        res = decompose(A, sysm)
        out_ws = Workspace()
        out_ws.add_structure("b1", res.bat.b1)
        out_ws.add_structure("b2", res.bat.b2)
        out_ws.add_map("phi12", res.bat.phi12)
        out_ws.add_map("phi21", res.bat.phi21)
        extra = {"factor_dims": [res.bat.b1.dim, res.bat.b2.dim]}
        _save(args, out_ws, extra)
        return _finish(args, {}, extra, True)
    rep = verify_trivalent_equivalences(A, sysm)
    return _finish(args, {"equivalences": rep}, {}, rep.ok)


def _cmd_twist(args) -> int:
    ws = load_workspace(args.infile)
    st = ws.structure(args.name)
    _guard_dim(st.dim)
    chi_inv = ws.maps.get("chi_inv")
    c = TwoCocycle(st, ws.map("chi"), chi_inv)
    if args.twist_cmd == "validate":
        rep = validate_cocycle(c)
        return _finish(args, {"cocycle": rep}, {}, rep.ok)
    twisted = twist(st, c)
    out_ws = Workspace().add_structure("main", twisted)
    extra = {"dim": twisted.dim,
             "multiplication_changed": twisted.m != st.m}
    _save(args, out_ws, extra)
    return _finish(args, {}, extra, True)


def _cmd_pairing(args) -> int:
    ws = load_workspace(args.infile)
    p = DualPairing(ws.structure("h"), ws.structure("a"), ws.map("form"))
    _guard_dim(p.H.dim * p.A.dim)
    if args.pairing_cmd == "check":
        rep = validate_pairing(p)
        return _finish(args, {"pairing": rep}, {}, rep.ok)
    res = matched_pair_from_pairing(p)
    extra = {"is_matched_pair": res["is_matched_pair"],
             "braiding_involutive": res["braiding_involutive"]}
    return _finish(args, {"interaction": res["report"]}, extra, True)


def _cmd_double_biproduct(args) -> int:
    ws = load_workspace(args.infile)
    inp = DoubleBiproductInput(
        ws.structure("h"), ws.structure("b"), ws.structure("c"),
        ws.map("b_act"), ws.map("b_coact"),
        ws.map("c_act"), ws.map("c_coact"), ws.map("rho"))
    _guard_dim(inp.H.dim * inp.B.dim * inp.C.dim)
    res = double_biproduct(inp)
    out_ws = Workspace()
    out_ws.add_structure("main", res["Z"])
    out_ws.add_structure("z_twisted", res["Z_twisted"])
    out_ws.add_map("rho_hat", res["rho_hat"].chi)
    out_ws.add_map("rho_hat_inv", res["rho_hat"].chi_inv)
    extra = {"dim": res["Z"].dim,
             "twist_changed_multiplication":
                 res["Z_twisted"].m != res["Z"].m}
    _save(args, out_ws, extra)
    return _finish(args, {"construction": res["report"]}, extra, True)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _integer(text: str, signed: bool = True) -> int:
    """argparse type of an integer in ASCII decimal digits, '-' only when
    signed: int() alone would also take blanks, underscores, '+' and other
    scripts' digits."""
    if re.fullmatch("-?[0-9]+" if signed else "[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer" + ("" if signed else " >= 0"))
    return int(text)


def _non_negative(text: str) -> int:
    """argparse type of a count: a decimal integer of at least 0."""
    return _integer(text, signed=False)


def _common(p: argparse.ArgumentParser, infile=True, out=False, name=False):
    p.add_argument("--format", choices=("json", "text"), default="text")
    if infile:
        p.add_argument("--in", dest="infile", required=True,
                       metavar="FILE")
    if out:
        p.add_argument("-o", "--out", metavar="FILE")
    if name:
        p.add_argument("--name", default="main")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crossbial",
        description="exact checks and constructions for cross product "
                    "bialgebras")
    ap.add_argument("--version", action="version",
                    version=f"crossbial {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="catalogue builders")
    zsub = zoo.add_subparsers(dest="zoo_cmd", required=True)
    _common(zsub.add_parser("list"), infile=False)
    zb = zsub.add_parser("build")
    bsub = zb.add_subparsers(dest="builder", required=True)
    rad = bsub.add_parser("radford")
    rad.add_argument("--n", type=_integer, required=True)
    rad.add_argument("--q-exp", dest="q_exp", type=_integer, required=True)
    rad.add_argument("--N", dest="big_n", type=_integer, required=True)
    rad.add_argument("--nu", type=_integer, required=True)
    _common(rad, infile=False, out=True)
    grp = bsub.add_parser("group")
    grp.add_argument("--N", dest="big_n", type=_integer, required=True)
    _common(grp, infile=False, out=True)
    ore = bsub.add_parser("ore")
    ore.add_argument("--spec", required=True, metavar="FILE")
    _common(ore, infile=False, out=True)

    chk = sub.add_parser("check", help="axiom suites on one structure")
    chk.add_argument("kind",
                     choices=("algebra", "coalgebra", "bialgebra", "hopf"))
    _common(chk, name=True)

    dat = sub.add_parser("datum", help="interaction datum commands")
    dsub = dat.add_subparsers(dest="datum_cmd", required=True)
    _common(dsub.add_parser("check"))
    order = dsub.add_parser("order")
    order.add_argument("--max-n", dest="max_n", type=_non_negative,
                       default=8)
    _common(order)
    _common(dsub.add_parser("classify"))
    _common(dsub.add_parser("build"), out=True)

    cross = sub.add_parser("cross", help="cross product (de)composition")
    csub = cross.add_subparsers(dest="cross_cmd", required=True)
    _common(csub.add_parser("build"), out=True)
    _common(csub.add_parser("decompose"), out=True, name=True)
    _common(csub.add_parser("trivalent"), name=True)

    tw = sub.add_parser("twist", help="2-cocycle validation and twisting")
    tsub = tw.add_subparsers(dest="twist_cmd", required=True)
    _common(tsub.add_parser("validate"), name=True)
    _common(tsub.add_parser("apply"), out=True, name=True)

    pr = sub.add_parser("pairing", help="dual pairings and matched pairs")
    psub = pr.add_subparsers(dest="pairing_cmd", required=True)
    _common(psub.add_parser("check"))
    _common(psub.add_parser("matched-pair"))

    dbp = sub.add_parser("double-biproduct",
                         help="assemble and twist C(x)H(x)B")
    dbsub = dbp.add_subparsers(dest="dbp_cmd", required=True)
    _common(dbsub.add_parser("build"), out=True)
    return ap


_DISPATCH = {
    "zoo": _cmd_zoo,
    "check": _cmd_check,
    "datum": _cmd_datum,
    "cross": _cmd_cross,
    "twist": _cmd_twist,
    "pairing": _cmd_pairing,
    "double-biproduct": _cmd_double_biproduct,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.echo = argv
    t0 = time.perf_counter()
    try:
        code = _DISPATCH[args.command](args)
    except (PreconditionError, ConsistencyError, NotABATError,
            InvalidSystemError, NotASplittingError,
            NotConvolutionInvertibleError, NotInvertibleError) as err:
        print(f"crossbial: verified failure: {err}", file=sys.stderr)
        report = getattr(err, "report", None)
        if report is not None:
            print("failing:", ", ".join(report.failed()), file=sys.stderr)
        code = 1
    except (UsageError, WorkspaceError, ScalarParseError, ParameterError,
            UnsupportedError, ConductorMixError, ShapeError,
            ConfigurationError) as err:
        print(f"crossbial: error: {err}", file=sys.stderr)
        code = 2
    except OSError as err:
        print(f"crossbial: io error: {err}", file=sys.stderr)
        code = 2
    finally:
        dt = time.perf_counter() - t0
        print(f"crossbial: {dt:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
