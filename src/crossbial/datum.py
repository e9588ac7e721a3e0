"""Interacting pairs of structures and the product/coproduct they induce.

A HopfDatum bundles two structures B1, B2 with four interaction maps: the
second factor acts on the first from the left (act_l) and coacts on it from
the left (coact_l), while the first acts/coacts on the second from the right
(act_r, coact_r).  check_hopf_datum verifies the complete defining system as
exact matrix identities.  The recursion operator on endomorphisms of
B1(x)B2(x)B1(x)B2 is a layered pipeline (phi_apply); recursion_order
assembles it as an exact superoperator matrix and finds the recursion order
as a nilpotency computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from .linmaps import (
    LeftYetterDrinfeld,
    LinMap,
    ShapeError,
    Space,
    UNIT,
    VectFlip,
    YetterDrinfeld,
    apply_at,
    dim_of,
    json_dim,
    linmap_from_json,
    linmap_to_json,
    pipeline_as_linmap,
    pipeline_columns,
    run_pipeline,
)
from .scalars import ZERO
from .structures import (
    ActionData,
    CheckEntry,
    CheckReport,
    Structure,
    _action_report,
    _algebra_entries,
    _coalgebra_entries,
    _cross_maps,
    check_axioms,
    classify_morphism,
    compare,
    cross_structure,
    rebind,
    structure_from_json,
    structure_to_json,
)


class ConsistencyError(RuntimeError):
    """An internally produced object failed its own verification."""


# ---------------------------------------------------------------------------
# the datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfDatum:
    """Two structures plus four interaction maps through the braiding.

    act_l:   B2(x)B1 -> B1   (left action of B2 on B1)
    coact_l: B1 -> B2(x)B1   (left coaction of B2 on B1)
    act_r:   B2(x)B1 -> B2   (right action of B1 on B2)
    coact_r: B2 -> B2(x)B1   (right coaction of B1 on B2)

    Only shapes are enforced here; validity is established by
    check_hopf_datum.
    """

    b1: Structure
    b2: Structure
    act_l: LinMap
    coact_l: LinMap
    act_r: LinMap
    coact_r: LinMap
    braiding: object = field(default_factory=VectFlip)

    def __post_init__(self):
        s1, s2 = (self.b1.space,), (self.b2.space,)
        shapes = [
            ("act_l", self.act_l, s2 + s1, s1),
            ("coact_l", self.coact_l, s1, s2 + s1),
            ("act_r", self.act_r, s2 + s1, s2),
            ("coact_r", self.coact_r, s2, s2 + s1),
        ]
        for name, f, dom, cod in shapes:
            if f.dom != dom or f.cod != cod:
                raise ShapeError(f"{name} has wrong boundaries")

    @property
    def quad(self) -> Tuple[Space, ...]:
        """The 4-fold product B1(x)B2(x)B1(x)B2 the recursion acts on."""
        s1, s2 = self.b1.space, self.b2.space
        return (s1, s2, s1, s2)


def _trivial_forms(b1: Structure, b2: Structure) -> Dict[str, LinMap]:
    id1, id2 = b1.id_map(), b2.id_map()
    return {
        "act_l": b2.eps @ id1,
        "coact_l": b2.eta @ id1,
        "act_r": id2 @ b1.eps,
        "coact_r": id2 @ b1.eta,
    }


def trivial_datum(b1: Structure, b2: Structure, braiding=None) -> HopfDatum:
    """The datum whose four interaction maps are the (co)unit tensors."""
    forms = _trivial_forms(b1, b2)
    return HopfDatum(b1, b2, forms["act_l"], forms["coact_l"],
                     forms["act_r"], forms["coact_r"],
                     braiding or VectFlip())


def _mixed_maps(d: HopfDatum) -> Tuple[LinMap, LinMap]:
    """The two connecting maps B1(x)B2 <-> B2(x)B1 built from the datum."""
    s1, s2 = d.b1.space, d.b2.space
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    ps12, ps21 = d.braiding.braiding(s1, s2), d.braiding.braiding(s2, s1)
    phi12 = run_pipeline([[d.coact_l, d.coact_r], [id2, ps12, id1],
                          [d.b2.m, d.b1.m]])
    phi21 = run_pipeline([[d.b2.delta, d.b1.delta], [id2, ps21, id1],
                          [d.act_l, d.act_r]])
    return phi12, phi21


# ---------------------------------------------------------------------------
# the full datum check
# ---------------------------------------------------------------------------

def _prefixed(entries, prefix: str) -> List[CheckEntry]:
    out = []
    for e in entries:
        name = e.axiom
        for strip in ("action-", "coaction-"):
            if name.startswith(strip):
                name = name[len(strip):]
        out.append(CheckEntry(prefix + name, e.ok, e.witness))
    return out


def check_hopf_datum(d: HopfDatum) -> CheckReport:
    """Verify every defining identity of the datum, each exactly.

    The report lists, in order: the algebra/coalgebra laws of both factors,
    the four (co)module axiom sets, the eight (co)unit interaction
    equations, and the eleven braided compatibilities.  When a factor fails
    its own laws the dependent checks are skipped (their statements would
    not be meaningful).
    """
    entries: List[CheckEntry] = []
    for tag, st in (("b1", d.b1), ("b2", d.b2)):
        base = [compare("unit-counit", st.eps * st.eta,
                        LinMap.identity(UNIT))]
        base += _algebra_entries(st) + _coalgebra_entries(st)
        entries += _prefixed(base, tag + "-")
    if not all(e.ok for e in entries):
        return CheckReport(entries)

    bp = d.braiding
    for tag, carrier, actor, f, kind in (
            ("act-l-", d.b1.space, d.b2, d.act_l, "module-l"),
            ("act-r-", d.b2.space, d.b1, d.act_r, "module-r"),
            ("coact-l-", d.b1.space, d.b2, d.coact_l, "comodule-l"),
            ("coact-r-", d.b2.space, d.b1, d.coact_r, "comodule-r")):
        entries += _prefixed(
            _action_report(ActionData(carrier, actor, f), kind).entries, tag)

    s1, s2 = d.b1.space, d.b2.space
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    m1, e1, dl1, ep1 = d.b1.m, d.b1.eta, d.b1.delta, d.b1.eps
    m2, e2, dl2, ep2 = d.b2.m, d.b2.eta, d.b2.delta, d.b2.eps
    al, cl, ar, cr = d.act_l, d.coact_l, d.act_r, d.coact_r
    ps11 = bp.braiding(s1, s1)
    ps22 = bp.braiding(s2, s2)
    ps12 = bp.braiding(s1, s2)
    ps21 = bp.braiding(s2, s1)
    phi12, phi21 = _mixed_maps(d)

    e2ep1, e1ep2 = e2 * ep1, e1 * ep2
    ep2ep1, e2e1 = run_pipeline([[ep2, ep1]]), apply_at(e2, e1, 1)
    laws = [
        # how the units and counits pass through the four interaction maps
        ("unit-act-r", run_pipeline([[e2, id1], [ar]]), e2ep1),
        ("counit-coact-l", apply_at(cl, ep1, 1), e2ep1),
        ("act-r-counit", ep2 * ar, ep2ep1),
        ("act-l-counit", ep1 * al, ep2ep1),
        ("unit-act-l", run_pipeline([[id2, e1], [al]]), e1ep2),
        ("counit-coact-r", apply_at(cr, ep2, 0), e1ep2),
        ("coact-r-unit", cr * e2, e2e1),
        ("coact-l-unit", cl * e1, e2e1),
        # multiplicatively perturbed coproducts on each factor
        ("alg-coalg-1", dl1 * m1, run_pipeline(
            [[dl1, dl1], [id1, cl, id1, id1], [id1, id2, ps11, id1],
             [id1, al, id1, id1], [m1, m1]])),
        ("alg-coalg-2", dl2 * m2, run_pipeline(
            [[dl2, dl2], [id2, id2, cr, id2], [id2, ps22, id1, id2],
             [id2, id2, ar, id2], [m2, m2]])),
        ("module-comodule", run_pipeline(
            [[dl2, dl1], [id2, ps21, id1], [al, ar], [cl, cr],
             [id2, ps12, id1], [m2, m1]]), run_pipeline(
            [[dl2, dl1], [cr, ps21, cl], [id2, ps11, ps22, id1],
             [ar, ps12, al], [m2, m1]])),
        ("module-algebra-1", run_pipeline([[m2, id1], [ar]]),
         run_pipeline([[id2, phi21], [ar, id2], [m2]])),
        ("module-algebra-2", run_pipeline([[id2, m1], [al]]),
         run_pipeline([[phi21, id1], [id1, al], [m1]])),
        ("comodule-coalgebra-1", apply_at(cr, dl2, 0),
         run_pipeline([[dl2], [cr, id2], [id2, phi12]])),
        ("comodule-coalgebra-2", apply_at(cl, dl1, 1),
         run_pipeline([[dl1], [id1, cl], [phi12, id1]])),
        ("module-coalgebra-1", dl2 * ar, run_pipeline(
            [[dl2, dl1], [id2, ps21, cl], [ar, ps22, id1], [m2, ar]])),
        ("module-coalgebra-2", dl1 * al, run_pipeline(
            [[dl2, dl1], [cr, ps21, id1], [id2, ps11, al], [al, m1]])),
        ("comodule-algebra-1", cr * m2, run_pipeline(
            [[dl2, cr], [cr, ps22, id1], [id2, ps12, al], [m2, m1]])),
        ("comodule-algebra-2", cl * m1, run_pipeline(
            [[cl, dl1], [id2, ps11, cl], [ar, ps12, id1], [m2, m1]])),
    ]
    return CheckReport(entries + [compare(*law) for law in laws])


# ---------------------------------------------------------------------------
# induced structure on B1 (x) B2
# ---------------------------------------------------------------------------

class InducedMaps(NamedTuple):
    phi12: LinMap
    phi21: LinMap
    m_B: LinMap
    delta_B: LinMap


def induced_structures(d: HopfDatum) -> InducedMaps:
    """The connecting maps and the induced product/coproduct on B1(x)B2.

    Refuses (PreconditionError carrying the report) when the datum check
    fails; for a valid datum the returned m_B with eta_1(x)eta_2 is an
    algebra and delta_B with eps_1(x)eps_2 a coalgebra.
    """
    check_hopf_datum(d).require("datum fails {}")
    phi12, phi21 = _mixed_maps(d)
    return InducedMaps(phi12, phi21, *_cross_maps(d.b1, d.b2, phi12, phi21))


def product_braiding(d, st: Structure) -> LinMap:
    """The braiding of the product object with itself, rebound to the
    single product space (d supplies braiding, b1, b2)."""
    s1, s2 = d.b1.space, d.b2.space
    psi4 = d.braiding.braiding_list((s1, s2), (s1, s2))
    P2 = (st.space, st.space)
    return rebind(psi4, P2, P2, "Psi")


def build_bialgebra(d: HopfDatum) -> Structure:
    """Assemble B1(x)B2 with the induced maps and verify it is a bialgebra.

    The datum is checked first (refusal on failure).  Every bialgebra axiom
    is then verified exactly on the product space; a failure there means a
    non-recursive datum slipped through and raises ConsistencyError.
    """
    check_hopf_datum(d).require("datum fails {}")
    st = cross_structure(d.b1, d.b2, *_mixed_maps(d))
    verdict = check_axioms(st, "bialgebra", psi=product_braiding(d, st))
    if not verdict.ok:
        raise ConsistencyError(
            "induced structure fails " + ", ".join(verdict.failed())
            + " (datum is not recursive)")
    return st


# ---------------------------------------------------------------------------
# the recursion operator
# ---------------------------------------------------------------------------

def _phi_layers(d: HopfDatum, center: List[LinMap]) -> List[List[LinMap]]:
    """The recursion diagram as rows of side-by-side factors.

    `center` occupies the four middle strands of the widest row; passing
    [f] evaluates the operator on f, passing four identities splits the
    diagram for the superoperator assembly.
    """
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    m1, dl1 = d.b1.m, d.b1.delta
    m2, dl2 = d.b2.m, d.b2.delta
    al, cl, ar, cr = d.act_l, d.coact_l, d.act_r, d.coact_r
    s1, s2 = d.b1.space, d.b2.space
    bp = d.braiding
    ps11 = bp.braiding(s1, s1)
    ps22 = bp.braiding(s2, s2)
    ps12 = bp.braiding(s1, s2)
    ps21 = bp.braiding(s2, s1)
    return [
        [id1, dl2, dl1, id2],
        [id1, dl2, ps21, dl1, id2],
        [id1, cr, ps21, ps21, cl, id2],
        [dl1, id2, ps11, id2, id1, ps22, id1, dl2],
        [id1, cl, al, id1, id2, id1, id2, ar, cr, id2],
        [id1, id2, ps11] + list(center) + [ps22, id1, id2],
        [id1, al, cl, id1, id2, id1, id2, cr, ar, id2],
        [m1, id2, ps11, id2, id1, ps22, id1, m2],
        [id1, ar, ps12, ps12, al, id2],
        [id1, m2, ps12, m1, id2],
        [id1, m2, m1, id2],
    ]


def phi_apply(d: HopfDatum, f: LinMap) -> LinMap:
    """Evaluate the recursion operator on an endomorphism of the 4-fold
    product, by running the layered diagram on each basis vector."""
    quad = d.quad
    if f.dom != quad or f.cod != quad:
        raise ShapeError("phi_apply needs an endomorphism of "
                         "B1(x)B2(x)B1(x)B2")
    return pipeline_as_linmap(_phi_layers(d, [f]))


@dataclass(frozen=True)
class PhiSuperoperator:
    """The recursion operator as an exact matrix on End(B1(x)B2(x)B1(x)B2)
    vectorised row-major, stored sparsely column by column."""

    # a column dict, not a LinMap, because perfbench/ reads it; that waits
    # for the benchmark change of ROADMAP item 5
    phi: Dict[int, Dict[int, object]]


def sop_compose(a, b):
    """Column-sparse matrix product a o b."""
    out = {}
    for c, bcol in b.items():
        acc: Dict[int, object] = {}
        for r, w in bcol.items():
            for u, v in a.get(r, {}).items():
                cur = acc.get(u, ZERO) + v * w
                if cur:
                    acc[u] = cur
                else:
                    acc.pop(u, None)
        if acc:
            out[c] = acc
    return out


def build_phi_superoperator(d: HopfDatum) -> PhiSuperoperator:
    """Assemble the recursion operator matrix without ever materialising a
    12-strand map: the diagram is split at its widest row, the bottom half
    is pushed forward column by column, the top half is pulled back row by
    row (transposed factors in reverse order), and the two halves are
    joined over the spectator strands."""
    dV = dim_of(d.quad)
    ids = [d.b1.id_map(), d.b2.id_map(), d.b1.id_map(), d.b2.id_map()]
    layers = _phi_layers(d, ids)
    bottom, top = layers[:6], layers[6:]
    top_t = [[f.transpose() for f in layer] for layer in reversed(top)]
    # each image lives on the 12 strands of the cut; the middle four are
    # the quad, the outer ones the spectators the halves are joined over
    R = dim_of(tuple(s for f in top[0] for s in f.dom)[8:])
    from_bot: Dict[tuple, list] = {}
    from_top: Dict[tuple, list] = {}
    for half, joined in ((bottom, from_bot), (top_t, from_top)):
        for v, col in pipeline_columns(half):
            for (key, _), val in col.entries.items():
                a, rest = divmod(key, dV * R)
                i, c = divmod(rest, R)
                joined.setdefault((a, c), []).append((v, i, val))

    phi: Dict[int, Dict[int, object]] = {}
    for side, tops in from_top.items():
        _join(phi, dV, tops, from_bot.get(side, ()))
    return PhiSuperoperator({c: rows for c, rows in phi.items() if rows})


def _join(out, dV: int, tops, bots) -> None:
    """Add a*b at row u*dV + v of column i*dV + j of the column-sparse
    out, for each (u, i, a) of tops and (v, j, b) of bots."""
    for u, i, a in tops:
        for v, j, b in bots:
            col = out.setdefault(i * dV + j, {})
            row = u * dV + v
            cur = col.get(row, ZERO) + a * b
            if cur:
                col[row] = cur
            else:
                col.pop(row, None)


def _corner_complement(d: HopfDatum) -> Dict[int, Dict[int, object]]:
    """Id - P as a column dict, P the corner conjugation f -> pi o f o pi.

    P's entry at row u*dV + v, column i*dV + j is pi[u, i] * pi[j, v], so
    P is the Kronecker product pi (x) pi^T on the vectorised space."""
    pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
          @ d.b2.unit_counit())
    return (LinMap.identity(d.quad * 2) - pi @ pi.transpose()).by_col()


def recursion_order(d: HopfDatum, n_max: int = 8) -> dict:
    """Least n with Phi^n o (Id - P) = 0 at the superoperator level.

    Returns {"order": n} when found within the cap, otherwise
    {"not_recursive_up_to": n_max}.
    """
    sop = build_phi_superoperator(d)
    rem = _corner_complement(d)
    for n in range(n_max + 1):
        if not rem:
            return {"order": n}
        if n < n_max:
            rem = sop_compose(sop.phi, rem)
    return {"not_recursive_up_to": n_max}


# ---------------------------------------------------------------------------
# trivalence and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivalencePattern:
    """Which interaction maps differ from their (co)unit-tensor forms.

    True means nontrivial; the string form orders the flags as
    (coact_l, coact_r, act_l, act_r).
    """

    coact_l: bool
    coact_r: bool
    act_l: bool
    act_r: bool

    @property
    def string(self) -> str:
        flags = (self.coact_l, self.coact_r, self.act_l, self.act_r)
        return "".join("1" if b else "0" for b in flags)

    @property
    def table(self):
        return ((self.coact_l, self.coact_r), (self.act_l, self.act_r))

    def to_json(self) -> dict:
        return {"pattern": self.string,
                "nontrivial": {"coact_l": self.coact_l,
                               "coact_r": self.coact_r,
                               "act_l": self.act_l,
                               "act_r": self.act_r}}


_SLOTS = ("coact_l", "coact_r", "act_l", "act_r")


def _pattern_of(d: HopfDatum) -> TrivalencePattern:
    forms = _trivial_forms(d.b1, d.b2)
    return TrivalencePattern(
        *(getattr(d, k) != forms[k] for k in _SLOTS))


def trivalence(d: HopfDatum) -> dict:
    """Triviality pattern plus the morphism witnesses on the product.

    Each of the four canonical unit/counit tensor maps between a factor and
    the induced structure is classified; the datum is trivalent iff at
    least one interaction map is trivial, which happens iff at least one of
    those maps is both an algebra and a coalgebra morphism.
    """
    pattern = _pattern_of(d)
    trivalent = not all(pattern.table[0] + pattern.table[1])
    prod = cross_structure(d.b1, d.b2, *_mixed_maps(d))
    P = (prod.space,)
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    probes = {
        "inj1": (rebind(id1 @ d.b2.eta, (d.b1.space,), P), d.b1, prod),
        "inj2": (rebind(d.b1.eta @ id2, (d.b2.space,), P), d.b2, prod),
        "proj1": (rebind(id1 @ d.b2.eps, P, (d.b1.space,)), prod, d.b1),
        "proj2": (rebind(d.b1.eps @ id2, P, (d.b2.space,)), prod, d.b2),
    }
    witness = {name: classify_morphism(f, src, dst)
               for name, (f, src, dst) in probes.items()}
    both = [name for name, c in witness.items()
            if c["is_algebra_morphism"] and c["is_coalgebra_morphism"]]
    return {
        "pattern": pattern,
        "trivalent": trivalent,
        "witness": witness,
        "both_morphisms": both,
        "consistent": trivalent == bool(both),
    }


def _family(pattern: str) -> str:
    if pattern == "0000":
        return "tensor-product"
    if pattern == "1111":
        return "non-trivalent"
    if pattern.count("1") == 1 or pattern in ("1010", "0101"):
        return "biproduct"
    if pattern in ("0011", "1100"):
        return "double-cross"
    if pattern in ("1001", "0110"):
        return "bicross"
    return "general"


def classify(d: HopfDatum) -> dict:
    """Raw triviality pattern plus its mirror/dual symmetry family."""
    pattern = _pattern_of(d).string
    return {"pattern": pattern, "family": _family(pattern)}


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

_YD_KINDS = {YetterDrinfeld: "yetter-drinfeld",
             LeftYetterDrinfeld: "left-yetter-drinfeld"}


def datum_to_json(d: HopfDatum) -> dict:
    """JSON encoding of d.  A braiding provider other than the flip and the
    two Yetter-Drinfeld backends has no encoding and raises ShapeError, the
    error datum_from_json also raises for an encoding it cannot read."""
    spaces ={d.b1.space.name: d.b1.space, d.b2.space.name: d.b2.space}
    braid: dict = {"kind": "flip"}
    yd_kind = _YD_KINDS.get(type(d.braiding))
    if yd_kind is not None:
        spaces[d.braiding.host.name] = d.braiding.host
        mods = []
        for sp in sorted(d.braiding._reg, key=lambda s: s.name):
            act, coact = d.braiding._reg[sp]
            spaces[sp.name] = sp
            mods.append({"space": sp.name, "act": linmap_to_json(act),
                         "coact": linmap_to_json(coact)})
        braid = {"kind": yd_kind, "host": d.braiding.host.name,
                 "modules": mods}
    elif not isinstance(d.braiding, VectFlip):
        raise ShapeError("no JSON encoding for braiding "
                         f"{type(d.braiding).__name__}")
    return {
        "spaces": [{"name": n, "dim": spaces[n].dim}
                   for n in sorted(spaces)],
        "b1": structure_to_json(d.b1),
        "b2": structure_to_json(d.b2),
        "act_l": linmap_to_json(d.act_l),
        "coact_l": linmap_to_json(d.coact_l),
        "act_r": linmap_to_json(d.act_r),
        "coact_r": linmap_to_json(d.coact_r),
        "braiding": braid,
    }


def datum_from_json(obj: dict) -> HopfDatum:
    try:
        spaces = {}
        for e in obj["spaces"]:
            name, dim = e["name"], e["dim"]
            try:
                spaces[name] = Space(name, json_dim(dim))
            except ValueError as err:
                raise ShapeError(f"bad datum encoding: space {name!r} has "
                                 f"dim {dim!r}, not an integer >= 1") from err
        b1 = structure_from_json(obj["b1"], spaces)
        b2 = structure_from_json(obj["b2"], spaces)
        maps = {k: linmap_from_json(obj[k], spaces)
                for k in ("act_l", "coact_l", "act_r", "coact_r")}
        braid = obj.get("braiding", {"kind": "flip"})
        if not isinstance(braid, dict):
            raise ShapeError(f"bad datum encoding: braiding {braid!r} is "
                             "not an object")
        kind = braid.get("kind", "flip")
        yd_cls = next((c for c, k in _YD_KINDS.items() if k == kind), None)
        if yd_cls is not None:
            prov: object = yd_cls(spaces[braid["host"]])
            for mod in braid["modules"]:
                prov.register(spaces[mod["space"]],
                              linmap_from_json(mod["act"], spaces),
                              linmap_from_json(mod["coact"], spaces))
        elif kind == "flip":
            prov = VectFlip()
        else:
            raise ShapeError(f"unknown braiding kind {kind!r}")
    except KeyError as e:
        raise ShapeError(f"bad datum encoding: missing {e}") from e
    return HopfDatum(b1, b2, maps["act_l"], maps["coact_l"],
                     maps["act_r"], maps["coact_r"], prov)
