"""Command-line interface and JSON workspace persistence.

A workspace file carries named spaces, structures and maps over a single
cyclotomic field, and optionally a braiding section that names a host
structure and the module maps of a Yetter-Drinfeld braiding among them;
without one, every command runs over the flip.  Builders write
workspaces, verification commands read them and emit deterministic
machine-readable reports.  Exit codes: 0 for a passing verdict, 1 for a
verified failure, 2 for usage or input errors.  Timing is written to
stderr only, so reports are byte-identical across repeated runs.

This module is the one workspace codec: spaces, structures, maps (dense
row-major matrices of scalar encodings), the conductor and the braiding
section.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Tuple

from . import __version__
from .crossproduct import (BAT, ProjectionSystem, build_bialgebra,
                           build_cross_product, decompose,
                           verify_trivalent_equivalences)
from .datum import HopfDatum, check_hopf_datum, recursion_order, trivalence
from .linmaps import FLIP, LinMap, ShapeError, Space, dim_of
from .scalars import (ZERO, InputError, Scalar, ScalarParseError,
                      VerifiedFailure, json_int, scalar_conductor,
                      scalar_from_json, scalar_to_json)
from .structures import (CheckReport, Structure, check_axioms, yd_provider,
                         yd_provider_left)
from .twisting import (DoubleBiproductInput, DualPairing, TwoCocycle,
                       double_biproduct, matched_pair_from_pairing, twist,
                       validate_cocycle, validate_pairing)
from .zoo import OreParams, RadfordParams, group_algebra, ore_finite, radford

WORKSPACE_SCHEMA = "crossbial-workspace/1"
# the schema of a workspace with a braiding section; a /1 reader that met
# one would take the braided data for data over the flip
BRAIDED_SCHEMA = "crossbial-workspace/2"
# each braiding kind and the constructor that verifies its modules
BRAIDINGS = {"yetter-drinfeld": yd_provider,
             "left-yetter-drinfeld": yd_provider_left}
REPORT_SCHEMA = "crossbial-report/1"


class UsageError(InputError, ValueError):
    pass


class WorkspaceError(InputError, ValueError):
    """Workspace file violates the schema; message carries a pointer."""


# ---------------------------------------------------------------------------
# workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Named spaces, structures and maps over one coefficient field.

    braiding is None (the flip) or the braiding section
    {"kind": ..., "host": <structure>, "modules": [{"space": <space>,
    "act": <map>, "coact": <map>}, ...]}, which names entries of the
    workspace.  provider is the braiding every command that takes one
    passes on: the flip, or the provider workspace_from_json builds from
    the section.
    """

    def __init__(self):
        self.spaces: Dict[str, Space] = {}
        self.structures: Dict[str, Structure] = {}
        self.maps: Dict[str, LinMap] = {}
        self.braiding = None
        self.provider = FLIP

    def add_structure(self, name: str, st: Structure) -> "Workspace":
        # Structure.__post_init__ holds every map of st to st.space and k,
        # so st.space is the one space they name
        self.structures[name] = st
        self._note_spaces((st.space,))
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
        """The maps in every structure's filled slots, in STRUCTURE_MAPS
        order, then the named maps."""
        for st in self.structures.values():
            yield from (f for f in (getattr(st, k) for k in STRUCTURE_MAPS)
                        if f is not None)
        yield from self.maps.values()


# The map slots of a Structure, in field order.  A workspace structure
# fills every one of them but S, which it may leave out.
STRUCTURE_MAPS = ("m", "eta", "delta", "eps", "S")


def linmap_to_json(f: LinMap) -> dict:
    """The dense row-major encoding; only nonzero entries are encoded one by
    one, every other cell is the one encoding of zero."""
    zero = scalar_to_json(ZERO)
    matrix = [[zero] * f.ncols for _ in range(f.nrows)]
    for (r, c), v in f.entries.items():
        matrix[r][c] = scalar_to_json(v)
    return {
        "dom": [s.name for s in f.dom],
        "cod": [s.name for s in f.cod],
        "matrix": matrix,
    }


def linmap_from_json(obj: dict, spaces: Dict[str, Space]) -> LinMap:
    try:
        strands = obj["dom"], obj["cod"]
        matrix = obj["matrix"]
        for key, names in zip(("dom", "cod"), strands):
            if type(names) is not list or any(type(n) is not str
                                              for n in names):
                raise ShapeError(f"{key} must be a list of space names")
        dom, cod = (tuple(spaces[n] for n in names) for names in strands)
    except KeyError as e:
        raise ShapeError(f"bad LinMap encoding: missing {e}") from e
    # Every entry is parsed before the shape is checked, so a bad scalar
    # is reported first; a matrix or row that is not a JSON list has the
    # wrong shape even when iterating it yields parsable entries.  Each
    # distinct encoding is parsed once: a cyclotomic is keyed only when its
    # conductor is an int and its coefficients strings, the only kind that
    # parses, so a malformed encoding never finds a valid one's value.  A
    # "0/1" cell of a list row is zero, so it is not visited at all.
    parsed: Dict[object, Scalar] = {}
    entries: Dict[Tuple[int, int], Scalar] = {}
    nr, nc = dim_of(cod), dim_of(dom)
    nrows, rows_ok = 0, type(matrix) is list
    for r, row in enumerate(matrix):
        listed = type(row) is list
        for c, v in ([(c, v) for c, v in enumerate(row) if v != "0/1"]
                     if listed else enumerate(row)):
            if type(v) is str:
                key = v
            elif (type(v) is dict and type(v.get("n")) is int
                  and type(v.get("coeffs")) is list
                  and all(type(x) is str for x in v["coeffs"])):
                key = (v["n"], *v["coeffs"])
            else:
                key = None
            val = parsed.get(key)
            if val is None:
                val = scalar_from_json(v)
                if key is not None:
                    parsed[key] = val
            if val:
                entries[(r, c)] = val
        rows_ok = rows_ok and listed and len(row) == nc
        nrows = r + 1
    if nrows != nr or not rows_ok:
        raise ShapeError(f"matrix must be {nr}x{nc}")
    return LinMap._trusted(dom, cod, entries)


def structure_to_json(s: Structure) -> dict:
    """The space's name and the encoding of each slot; S is left out when
    empty."""
    out = {"space": s.space.name}
    for k in STRUCTURE_MAPS:
        if k != "S" or s.S is not None:
            out[k] = linmap_to_json(getattr(s, k))
    return out


def structure_from_json(obj: dict, spaces: Dict[str, Space]) -> Structure:
    try:
        space = spaces[obj["space"]]
        maps = {k: linmap_from_json(obj[k], spaces)
                for k in STRUCTURE_MAPS if k != "S"}
    except KeyError as e:
        raise ShapeError(f"bad structure encoding: missing {e}") from e
    if "S" in obj:
        maps["S"] = linmap_from_json(obj["S"], spaces)
    return Structure(space, **maps)


def workspace_to_json(ws: Workspace) -> dict:
    doc = {
        "schema": WORKSPACE_SCHEMA,
        "conductor": ws.conductor(),
        "spaces": [{"name": n, "dim": ws.spaces[n].dim}
                   for n in sorted(ws.spaces)],
        "structures": {n: structure_to_json(st)
                       for n, st in ws.structures.items()},
        "maps": {n: linmap_to_json(f) for n, f in ws.maps.items()},
    }
    if ws.braiding is not None:
        doc.update(schema=BRAIDED_SCHEMA, braiding=ws.braiding)
    return doc


def _named(table: dict, obj: dict, key: str, where: str, what: str):
    """The entry of table that obj[key] names."""
    name = obj.get(key)
    if not isinstance(name, str) or name not in table:
        raise WorkspaceError(f"{where}/{key}: {name!r} names no {what} "
                             "of the workspace")
    return table[name]


def _read_braiding(sec, ws: Workspace) -> None:
    """Set ws.braiding to the section sec and ws.provider to the provider
    it names, built by one constructor call that verifies the host and then
    each module.  A law that fails raises PreconditionError (exit 1); a
    malformed section raises WorkspaceError at a /braiding pointer."""
    if not isinstance(sec, dict):
        raise WorkspaceError("/braiding: expected an object")
    kind = sec.get("kind")
    if not isinstance(kind, str) or kind not in BRAIDINGS:
        raise WorkspaceError(f"/braiding/kind: expected one of "
                             f"{sorted(BRAIDINGS)}")
    host = _named(ws.structures, sec, "host", "/braiding", "structure")
    if not isinstance(sec.get("modules"), list):
        raise WorkspaceError("/braiding/modules: expected a list")
    names, modules = [], []
    for i, mod in enumerate(sec["modules"]):
        where = f"/braiding/modules/{i}"
        if not isinstance(mod, dict):
            raise WorkspaceError(f"{where}: expected an object")
        space = _named(ws.spaces, mod, "space", where, "space")
        if any(space is m[0] for m in modules):
            raise WorkspaceError(f"{where}/space: {space.name!r} is "
                                 "registered twice")
        modules.append((space, _named(ws.maps, mod, "act", where, "map"),
                        _named(ws.maps, mod, "coact", where, "map")))
        names.append({k: mod[k] for k in ("space", "act", "coact")})
    _guard_dim(host.dim * max((m[0].dim for m in modules), default=1))
    try:
        ws.provider = BRAIDINGS[kind](host, modules)
    except ShapeError as err:
        # register names the slot act_r, coact_l, ...; the section's key is
        # the part before the side
        raise WorkspaceError(f"/braiding/modules/{err.module}/"
                             f"{err.slot.split('_')[0]}: {err}") from err
    ws.braiding = {"kind": kind, "host": sec["host"], "modules": names}


def workspace_from_json(obj: dict) -> Workspace:
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema not in (WORKSPACE_SCHEMA, BRAIDED_SCHEMA):
        raise WorkspaceError(f"/schema: expected {WORKSPACE_SCHEMA!r} or "
                             f"{BRAIDED_SCHEMA!r}")
    if (schema == BRAIDED_SCHEMA) != ("braiding" in obj):
        raise WorkspaceError(f"/schema: a workspace has schema "
                             f"{BRAIDED_SCHEMA!r} exactly when it has a "
                             "braiding section")
    ws = Workspace()
    for section, kind, what in (("spaces", list, "a list"),
                                ("structures", dict, "an object"),
                                ("maps", dict, "an object")):
        if not isinstance(obj.get(section, kind()), kind):
            raise WorkspaceError(f"/{section}: expected {what}")
    for i, e in enumerate(obj.get("spaces", [])):
        # a JSON string names a space, and a JSON integer of at least 1 is
        # its dim
        try:
            name = e["name"]
            if not isinstance(name, str):
                raise ValueError(f"{name!r} is not a string")
            dim = e["dim"]
            if json_int(dim) < 1:
                raise ValueError(f"{dim!r} is not a positive integer")
        except (KeyError, TypeError, ValueError) as err:
            raise WorkspaceError(f"/spaces/{i}: {err}") from err
        space = Space(name, dim)
        if space.name in ws.spaces:
            raise WorkspaceError(f"/spaces/{i}: space {space.name!r} is "
                                 "named twice")
        ws.spaces[space.name] = space
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
    if "braiding" in obj:
        _read_braiding(obj["braiding"], ws)
    return ws


def canonical_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte, for a
    document of dicts with string keys, lists, strings, ints, bools and
    None; any other value raises TypeError.  With an indent, json.dumps
    runs its pure-Python encoder one value at a time.  Here the text is
    joined from parts, and a list of strings, such as a matrix row, is one
    join of the C string quoter."""
    parts: List[str] = []
    _encode(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(v, nl: str, out: List[str]) -> None:
    """Append the text of v to out; nl is a newline and the indent of the
    line v starts on."""
    t = type(v)
    if t is str:
        out.append(_quote(v))
    elif t is list:
        inner = nl + "  "
        if not v:
            out.append("[]")
        elif all(type(x) is str for x in v):
            out.append("[" + inner + ("," + inner).join(map(_quote, v))
                       + nl + "]")
        else:
            head = "[" + inner
            for x in v:
                out.append(head)
                _encode(x, inner, out)
                head = "," + inner
            out.append(nl + "]")
    elif t is dict:
        inner = nl + "  "
        head = "{" + inner
        for k in sorted(v):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(head + _quote(k) + ": ")
            _encode(v[k], inner, out)
            head = "," + inner
        out.append(nl + "}" if v else "{}")
    elif t is int:
        out.append(int.__repr__(v))
    elif t is bool:
        out.append("true" if v else "false")
    elif v is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON "
                        "serializable")


def save_workspace(ws: Workspace, path: str) -> None:
    text = canonical_json(workspace_to_json(ws))
    with open(path, "w") as fh:
        fh.write(text)


def _read_json(path: str, error: type, what: str):
    """The JSON document in the UTF-8 file at path.  Text that is not UTF-8
    or not JSON (both ValueErrors, as is an integer literal with more
    digits than int() converts) or nested past the parser's recursion
    limit raises error(f"{what} ({reason})")."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise error(f"{what} ({err})") from err


def load_workspace(path: str) -> Workspace:
    return workspace_from_json(_read_json(path, WorkspaceError, "/: not JSON"))


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


def _witness_text(w: dict) -> str:
    """A to_json witness as report lines and exit 1's stderr print it: a
    rational side as its p/q encoding, a cyclotomic one as the scalar."""
    lhs, rhs = (v if isinstance(v, str) else str(scalar_from_json(v))
                for v in (w["lhs"], w["rhs"]))
    return f"out={w['out_index']} in={w['in_index']}: {lhs} != {rhs}"


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
                line += f"  {_witness_text(e['witness'])}"
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


def _finish_built(args, st: Structure) -> int:
    """Save the built st as the structure "main" and report its dim."""
    extra = {"dim": st.dim}
    _save(args, Workspace().add_structure("main", st), extra)
    return _finish(args, {}, extra, True)


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
        spec = _read_json(args.spec, UsageError, "--spec is not JSON")
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
    rep = check_axioms(st, args.kind, ws.provider)
    extra = {"structure": args.name, "kind": args.kind, "dim": st.dim}
    return _finish(args, {"axioms": rep}, extra, rep.ok)


def _datum_from_workspace(ws: Workspace) -> HopfDatum:
    return HopfDatum(ws.structure("b1"), ws.structure("b2"),
                     ws.map("act_l"), ws.map("coact_l"),
                     ws.map("act_r"), ws.map("coact_r"), ws.provider)


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
        tri = trivalence(d)
        extra = {k: tri[k]
                 for k in ("pattern", "trivalent", "family", "consistent")}
        return _finish(args, {}, extra, tri["consistent"])
    # build
    return _finish_built(args, build_bialgebra(d))


def _cmd_cross(args) -> int:
    ws = load_workspace(args.infile)
    if args.cross_cmd == "build":
        t = BAT(ws.structure("b1"), ws.structure("b2"),
                ws.map("phi12"), ws.map("phi21"), ws.provider)
        _guard_dim(t.b1.dim * t.b2.dim)
        return _finish_built(args, build_cross_product(t))
    A = ws.structure(args.name)
    _guard_dim(A.dim)
    sysm = ProjectionSystem(ws.map("i1"), ws.map("i2"), ws.map("p1"),
                            ws.map("p2"))
    if args.cross_cmd == "decompose":
        res = decompose(A, sysm, ws.provider)
        out_ws = Workspace()
        out_ws.add_structure("b1", res.bat.b1)
        out_ws.add_structure("b2", res.bat.b2)
        out_ws.add_map("phi12", res.bat.phi12)
        out_ws.add_map("phi21", res.bat.phi21)
        extra = {"factor_dims": [res.bat.b1.dim, res.bat.b2.dim]}
        _save(args, out_ws, extra)
        return _finish(args, {}, extra, True)
    rep = verify_trivalent_equivalences(A, sysm, ws.provider)
    return _finish(args, {"equivalences": rep}, {}, rep.ok)


def _load_flip_workspace(path: str, what: str) -> Workspace:
    """load_workspace for a command that lives over the flip: a workspace
    with a braiding section exits 2 at /braiding before any work."""
    ws = load_workspace(path)
    if ws.braiding is not None:
        raise WorkspaceError(f"/braiding: {what} over the flip; a braided "
                             "workspace is refused")
    return ws


def _cmd_twist(args) -> int:
    ws = _load_flip_workspace(args.infile, "twisting is defined")
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
    ws = _load_flip_workspace(args.infile, "pairings are defined")
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
    ws = _load_flip_workspace(args.infile, "the double biproduct is built")
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


# The largest `datum order --max-n`, twice the default of 8.  On a datum
# that is not recursive each step of the order search multiplies denser
# remainders with longer entries, so an unbounded cap runs as long as the
# user waits.
MAX_ORDER_CAP = 16


def _order_cap(text: str) -> int:
    """argparse type of the order search's cap: a count of at most
    MAX_ORDER_CAP, refused before any workspace is read."""
    n = _non_negative(text)
    if n > MAX_ORDER_CAP:
        raise argparse.ArgumentTypeError(
            f"{n} is above the largest cap, {MAX_ORDER_CAP}")
    return n


def _common(p: argparse.ArgumentParser, infile=True, out=False, name=False):
    p.add_argument("--format", choices=("json", "text"), default="text")
    if infile:
        p.add_argument("--in", dest="infile", required=True,
                       metavar="FILE")
    if out:
        p.add_argument("-o", "--out", metavar="FILE")
    if name:
        p.add_argument("--name", default="main")


def _radford_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--q-exp", dest="q_exp", type=_integer, required=True)
    p.add_argument("--N", dest="big_n", type=_integer, required=True)
    p.add_argument("--nu", type=_integer, required=True)
    _common(p, infile=False, out=True)


def _group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", dest="big_n", type=_integer, required=True)
    _common(p, infile=False, out=True)


def _ore_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, metavar="FILE")
    _common(p, infile=False, out=True)


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind",
                   choices=("algebra", "coalgebra", "bialgebra", "hopf"))
    _common(p, name=True)


def _order_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", dest="max_n", type=_order_cap, default=8)
    _common(p)


# The command tree.  A level is (dest, {name: (help, body)}), where body is
# the level below or, at a leaf, the function that adds the leaf's
# arguments; a help of None adds the name to no help listing.
_COMMANDS = ("command", {
    "zoo": ("catalogue builders", ("zoo_cmd", {
        "list": (None, partial(_common, infile=False)),
        "build": (None, ("builder", {
            "radford": (None, _radford_args),
            "group": (None, _group_args),
            "ore": (None, _ore_args),
        })),
    })),
    "check": ("axiom suites on one structure", _check_args),
    "datum": ("interaction datum commands", ("datum_cmd", {
        "check": (None, _common),
        "order": (None, _order_args),
        "classify": (None, _common),
        "build": (None, partial(_common, out=True)),
    })),
    "cross": ("cross product (de)composition", ("cross_cmd", {
        "build": (None, partial(_common, out=True)),
        "decompose": (None, partial(_common, out=True, name=True)),
        "trivalent": (None, partial(_common, name=True)),
    })),
    "twist": ("2-cocycle validation and twisting", ("twist_cmd", {
        "validate": (None, partial(_common, name=True)),
        "apply": (None, partial(_common, out=True, name=True)),
    })),
    "pairing": ("dual pairings and matched pairs", ("pairing_cmd", {
        "check": (None, _common),
        "matched-pair": (None, _common),
    })),
    "double-biproduct": ("assemble and twist C(x)H(x)B", ("dbp_cmd", {
        "build": (None, partial(_common, out=True)),
    })),
})


def _leaf_path(argv) -> List[str]:
    """The leading tokens of argv when each is an exact child name down to
    a leaf of _COMMANDS; otherwise [] (no args, an option first, a name
    that is unknown or abbreviated, or a path that stops above a leaf)."""
    path, level = [], _COMMANDS
    for token in argv:
        if token not in level[1]:
            return []
        path.append(token)
        level = level[1][token][1]
        if callable(level):
            return path
    return []


def _grow(parser: argparse.ArgumentParser, level, path: List[str]) -> None:
    """Add level's subcommands to parser: all of them when path is empty,
    else only path[0], then the rest of path below it.  A narrowed level
    names all its children in its metavar, so the usage line an error
    prints is the full tree's; the full tree passes none, since a metavar
    would also rename the subcommand argument in argparse's errors."""
    dest, children = level
    kw = {"metavar": "{" + ",".join(children) + "}"} if path else {}
    sub = parser.add_subparsers(dest=dest, required=True, **kw)
    for name in path[:1] or children:
        help_, body = children[name]
        child = sub.add_parser(name,
                               **({} if help_ is None else {"help": help_}))
        if callable(body):
            body(child)
        else:
            _grow(child, body, path[1:])


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser: for an argv that names a leaf command, only the
    parsers on its path (a CLI process parses one argv); otherwise, and
    when argv is None, the full tree.  Either parses argv the same way and
    prints the same help and usage bytes."""
    ap = argparse.ArgumentParser(
        prog="crossbial",
        description="exact checks and constructions for cross product "
                    "bialgebras")
    ap.add_argument("--version", action="version",
                    version=f"crossbial {__version__}")
    _grow(ap, _COMMANDS, [] if argv is None else _leaf_path(argv))
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
    args = build_parser(argv).parse_args(argv)
    args.echo = argv
    t0 = time.perf_counter()
    try:
        code = _DISPATCH[args.command](args)
    except VerifiedFailure as err:
        print(f"crossbial: verified failure: {err}", file=sys.stderr)
        print("failing:", ", ".join(err.report.failed()), file=sys.stderr)
        bad = next(e for e in err.report.to_json() if not e["ok"])
        if "witness" in bad:
            print(f"witness: {bad['axiom']} {_witness_text(bad['witness'])}",
                  file=sys.stderr)
        code = 1
    except InputError as err:
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
