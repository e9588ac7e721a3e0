"""Interacting pairs of structures and the product/coproduct they induce.

A HopfDatum bundles two structures B1, B2 with four interaction maps: the
second factor acts on the first from the left (act_l) and coacts on it from
the left (coact_l), while the first acts/coacts on the second from the right
(act_r, coact_r).  check_hopf_datum verifies the complete defining system as
exact matrix identities.  The recursion operator on endomorphisms of
B1(x)B2(x)B1(x)B2 is a layered diagram split at a stated row, _CUT:
recursion_order assembles the operator as an exact superoperator matrix
and finds the recursion order as a nilpotency computation.  phi_apply
evaluates the operator on one f: as one sparse mat-vec when the datum
keeps that matrix, otherwise by applying f at the cut on the diagram's
bottom half; it never builds the matrix itself.  A datum's check report,
its induced maps, that bottom half and the superoperator are cached
properties of the datum, computed once per datum object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import matmul, mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .linmaps import (
    FLIP,
    LinMap,
    Space,
    dim_of,
    pipeline_as_linmap,
    rebind,
    require_boundaries,
)
from .scalars import ONE, ZERO, VerifiedFailure, json_int, scalar_to_json
from .structures import (
    CheckEntry,
    CheckReport,
    Structure,
    _action_report,
    canonical_maps,
    check_axioms,
    classify_morphism,
    compare,
    cross_structure,
)


class ConsistencyError(VerifiedFailure, RuntimeError):
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

    A map left as None is its trivial (co)unit-tensor form, so a
    biproduct, double cross or bicross product datum names only its
    nontrivial pairs.  Only shapes are enforced here; validity is
    established by check_hopf_datum.

    A datum and its maps are immutable once built, as LinMap._cols and
    _ones already assume, so what a datum determines is a cached property,
    computed on the first request and kept in the datum object's __dict__:
    _report (the check_hopf_datum report), _induced (induced_structures'
    maps), _bottom (the bottom half of Phi's split diagram) and _phi
    (Phi's superoperator matrix).  Nothing
    is kept when a body raises, and only this module reads them.  ==, hash
    and repr see the fields alone, and dataclasses.replace starts with
    none of them kept.
    """

    b1: Structure
    b2: Structure
    act_l: Optional[LinMap] = None
    coact_l: Optional[LinMap] = None
    act_r: Optional[LinMap] = None
    coact_r: Optional[LinMap] = None
    braiding: object = FLIP

    def __post_init__(self):
        missing = [slot for slot in _SLOTS if getattr(self, slot) is None]
        forms = _trivial_forms(self.b1, self.b2) if missing else {}
        for slot in missing:
            object.__setattr__(self, slot, forms[slot])
        s1, s2 = (self.b1.space,), (self.b2.space,)
        require_boundaries(("act_l", self.act_l, s2 + s1, s1),
                           ("coact_l", self.coact_l, s1, s2 + s1),
                           ("act_r", self.act_r, s2 + s1, s2),
                           ("coact_r", self.coact_r, s2, s2 + s1))

    @property
    def quad(self) -> Tuple[Space, ...]:
        """The 4-fold product B1(x)B2(x)B1(x)B2 the recursion acts on."""
        s1, s2 = self.b1.space, self.b2.space
        return (s1, s2, s1, s2)

    def product(self, name: Optional[str] = None,
                antipodes: Optional[Tuple[LinMap, LinMap]] = None
                ) -> Structure:
        """X = B1(x)B2 with the product and coproduct the datum induces,
        unverified like cross_structure (build_bialgebra verifies it).

        antipodes = (S1, S2), the factors' braided antipodes, fills X's S,
        unverified too.  With X's canonical injections i1, i2 and tau the
        braiding of B1 past B2 rebound onto X,
          sigma_j = m_X o (i2 S2 (x) i1 S1) o coact_j  (j = l on B1, r on B2),
          S_X = m_X o (sigma_r (x) sigma_l) o tau.
        With a left coaction alone this is Radford's antipode of a biproduct
        (Radford, "The structure of Hopf algebras with a projection", 1985),
        with trivial coactions Majid's of a double cross product (Majid,
        "Foundations of Quantum Group Theory", 1995)."""
        X = cross_structure(self.b1, self.b2, *_mixed_maps(self), name)
        if antipodes is None:
            return X
        S1, S2 = antipodes
        s1, s2 = self.b1.space, self.b2.space
        require_boundaries(("S1", S1, (s1,), (s1,)), ("S2", S2, (s2,), (s2,)))
        i1, i2, _, _ = canonical_maps(self.b1, self.b2, X.space)
        sigma_l, sigma_r = (X.m * ((i2 * S2) @ (i1 * S1)) * c
                            for c in (self.coact_l, self.coact_r))
        tau = rebind(self.braiding.braiding(s1, s2), (X.space,), (s2, s1))
        return replace(X, S=X.m * (sigma_r @ sigma_l) * tau)

    @cached_property
    def _report(self) -> CheckReport:
        return _check_hopf_datum(self)

    @cached_property
    def _induced(self) -> InducedMaps:
        """The mixed maps and cross_structure's m and delta, rebound onto
        the two strands B1, B2.  m and delta are read here, so a caller's
        composite of them finds them evaluated."""
        phi12, phi21 = _mixed_maps(self)
        X = cross_structure(self.b1, self.b2, phi12, phi21)
        X.m.entries
        X.delta.entries
        s12 = (self.b1.space, self.b2.space)
        return InducedMaps(phi12, phi21, rebind(X.m, s12 * 2, s12, "m"),
                           rebind(X.delta, s12, s12 * 2, "delta"))

    @cached_property
    def _bottom(self) -> LinMap:
        """Rows 0.._CUT-1 of Phi's diagram as a map from the quad to the 10
        strands of the cut."""
        return pipeline_as_linmap(_phi_layers(self)[:_CUT])

    @cached_property
    def _phi(self) -> PhiSuperoperator:
        return _build_phi_superoperator(self)


def _trivial_forms(b1: Structure, b2: Structure) -> Dict[str, LinMap]:
    id1, id2 = b1.id_map(), b2.id_map()
    return {
        "act_l": b2.eps @ id1,
        "coact_l": b2.eta @ id1,
        "act_r": id2 @ b1.eps,
        "coact_r": id2 @ b1.eta,
    }


def trivial_datum(b1: Structure, b2: Structure, braiding=FLIP) -> HopfDatum:
    """The datum whose four interaction maps are the (co)unit tensors."""
    return HopfDatum(b1, b2, braiding=braiding)


def _mixed_maps(d: HopfDatum) -> Tuple[LinMap, LinMap]:
    """The two connecting maps B1(x)B2 <-> B2(x)B1 built from the datum."""
    s1, s2 = d.b1.space, d.b2.space
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    ps12, ps21 = d.braiding.braiding(s1, s2), d.braiding.braiding(s2, s1)
    phi12 = ((d.b2.m @ d.b1.m) * (id2 @ ps12 @ id1)
             * (d.coact_l @ d.coact_r))
    phi21 = ((d.act_l @ d.act_r) * (id2 @ ps21 @ id1)
             * (d.b2.delta @ d.b1.delta))
    return phi12, phi21


# ---------------------------------------------------------------------------
# the full datum check
# ---------------------------------------------------------------------------

def check_hopf_datum(d: HopfDatum) -> CheckReport:
    """Verify every defining identity of the datum, each exactly.

    The report lists, in order: the algebra/coalgebra laws of both factors,
    the four (co)module axiom sets, the eight (co)unit interaction
    equations, and the eleven braided compatibilities.  When a factor fails
    its own laws the dependent checks are skipped (their statements would
    not be meaningful).  The report is the datum's cached _report, computed
    once per datum object: a later call returns the same report without
    checking again.
    """
    return d._report


def _check_hopf_datum(d: HopfDatum) -> CheckReport:
    """The body of check_hopf_datum, run once per datum object: each
    factor's algebra and coalgebra laws, as check_axioms states them, then
    _datum_laws once those hold."""
    entries = [CheckEntry(f"{tag}-{e.axiom}", e.ok, e.witness)
               for tag, st in (("b1", d.b1), ("b2", d.b2))
               for e in (check_axioms(st, "algebra").entries
                         + check_axioms(st, "coalgebra").entries[1:])]
    if not all(e.ok for e in entries):
        return CheckReport(entries)
    return CheckReport(entries + _datum_laws(d))


def _datum_laws(d: HopfDatum) -> List[CheckEntry]:
    """The datum's laws past its factors', for factors whose algebra and
    coalgebra laws hold: the four (co)module axiom sets, the eight (co)unit
    interaction equations and the eleven braided compatibilities."""
    entries: List[CheckEntry] = []
    bp = d.braiding
    for tag, carrier, actor, f, kind in (
            ("act-l-", d.b1.space, d.b2, d.act_l, "module-l"),
            ("act-r-", d.b2.space, d.b1, d.act_r, "module-r"),
            ("coact-l-", d.b1.space, d.b2, d.coact_l, "comodule-l"),
            ("coact-r-", d.b2.space, d.b1, d.coact_r, "comodule-r")):
        entries += _action_report(carrier, actor, f, kind, tag).entries

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
    ep2ep1, e2e1 = ep2 @ ep1, (id2 @ e1) * e2
    laws = [
        # how the units and counits pass through the four interaction maps
        ("unit-act-r", ar * (e2 @ id1), e2ep1),
        ("counit-coact-l", (id2 @ ep1) * cl, e2ep1),
        ("act-r-counit", ep2 * ar, ep2ep1),
        ("act-l-counit", ep1 * al, ep2ep1),
        ("unit-act-l", al * (id2 @ e1), e1ep2),
        ("counit-coact-r", (ep2 @ id1) * cr, e1ep2),
        ("coact-r-unit", cr * e2, e2e1),
        ("coact-l-unit", cl * e1, e2e1),
        # multiplicatively perturbed coproducts on each factor
        ("alg-coalg-1", dl1 * m1,
         (m1 @ m1) * (id1 @ al @ id1 @ id1) * (id1 @ id2 @ ps11 @ id1)
         * (id1 @ cl @ id1 @ id1) * (dl1 @ dl1)),
        ("alg-coalg-2", dl2 * m2,
         (m2 @ m2) * (id2 @ id2 @ ar @ id2) * (id2 @ ps22 @ id1 @ id2)
         * (id2 @ id2 @ cr @ id2) * (dl2 @ dl2)),
        ("module-comodule",
         (m2 @ m1) * (id2 @ ps12 @ id1) * (cl @ cr) * (al @ ar)
         * (id2 @ ps21 @ id1) * (dl2 @ dl1),
         (m2 @ m1) * (ar @ ps12 @ al) * (id2 @ ps11 @ ps22 @ id1)
         * (cr @ ps21 @ cl) * (dl2 @ dl1)),
        ("module-algebra-1", ar * (m2 @ id1),
         m2 * (ar @ id2) * (id2 @ phi21)),
        ("module-algebra-2", al * (id2 @ m1),
         m1 * (id1 @ al) * (phi21 @ id1)),
        ("comodule-coalgebra-1", (dl2 @ id1) * cr,
         (id2 @ phi12) * (cr @ id2) * dl2),
        ("comodule-coalgebra-2", (id2 @ dl1) * cl,
         (phi12 @ id1) * (id1 @ cl) * dl1),
        ("module-coalgebra-1", dl2 * ar,
         (m2 @ ar) * (ar @ ps22 @ id1) * (id2 @ ps21 @ cl) * (dl2 @ dl1)),
        ("module-coalgebra-2", dl1 * al,
         (al @ m1) * (id2 @ ps11 @ al) * (cr @ ps21 @ id1) * (dl2 @ dl1)),
        ("comodule-algebra-1", cr * m2,
         (m2 @ m1) * (id2 @ ps12 @ al) * (cr @ ps22 @ id1) * (dl2 @ cr)),
        ("comodule-algebra-2", cl * m1,
         (m2 @ m1) * (ar @ ps12 @ id1) * (id2 @ ps11 @ cl) * (cl @ dl1)),
    ]
    return entries + [compare(*law) for law in laws]


# ---------------------------------------------------------------------------
# induced structure on B1 (x) B2
# ---------------------------------------------------------------------------

class InducedMaps(NamedTuple):
    phi12: LinMap
    phi21: LinMap
    m_B: LinMap
    delta_B: LinMap


def induced_structures(d: HopfDatum) -> InducedMaps:
    """The connecting maps and the induced product/coproduct on B1(x)B2:
    cross_structure's m and delta, rebound onto the two strands.

    Refuses (PreconditionError carrying the report) when the datum check
    fails; for a valid datum the returned m_B with eta_1(x)eta_2 is an
    algebra and delta_B with eps_1(x)eps_2 a coalgebra.  The maps are the
    datum's cached _induced, built once per datum object.
    """
    check_hopf_datum(d).require("datum fails {}")
    return d._induced


# ---------------------------------------------------------------------------
# the recursion operator
# ---------------------------------------------------------------------------

def _phi_layers(d: HopfDatum) -> List[List[LinMap]]:
    """The recursion diagram as rows of side-by-side factors.

    The four middle strands of the widest row, row 5, are the centre, where
    the operator's argument f acts; here they carry identities, and f is
    applied at the cut (see _CUT).  The m1 and m2 that close the left and
    right spectator strands have a row of their own, so every factor that
    touches the spectators alone sits below the first row that touches the
    centre.
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
        [id1, id2, ps11, id1, id2, id1, id2, ps22, id1, id2],
        [id1, al, cl, id1, id2, id1, id2, cr, ar, id2],
        [m1, id2, id1, id1, id2, id1, id2, id2, id1, m2],
        [id1, id2, ps11, id2, id1, ps22, id1, id2],
        [id1, ar, ps12, ps12, al, id2],
        [id1, m2, ps12, m1, id2],
        [id1, m2, m1, id2],
    ]


# Phi's diagram splits at row 8 of _phi_layers (rows count from 0, the
# centre row is 5).  Rows 6 and 7 meet the centre strands with identities
# only, so f commutes past them into the bottom half; row 8 braids a
# spectator B1 with the centre, so the cut can be no higher.  Row 7 closes
# the outer spectators with m1 and m2, and every row from 8 on starts with
# B1's identity and ends with B2's, so the top half is id1 (x) T (x) id2
# and the cut can be no lower.  The strands of the cut are
# B1 B2 B1 [B1 B2 B1 B2] B2 B1 B2, the centre (the quad) at strands 3-6.
_CUT = 8


def phi_apply(d: HopfDatum, f: LinMap) -> LinMap:
    """Evaluate the recursion operator on an endomorphism of the 4-fold
    product.  When d keeps Phi (its _phi, which build_phi_superoperator or
    recursion_order has filled), the value is one sparse mat-vec, Phi
    times f vectorised row-major, read back by the convention of _capped.
    Otherwise it is evaluated at the cut: f is applied at the centre
    strands 3-6 of the image of d._bottom, the bottom half, and that
    image's columns are pushed through the rows from _CUT on,
    PIPELINE_BLOCK at a time.  phi_apply never builds Phi itself: at dim 64
    a build costs far more time and memory than a push."""
    require_boundaries(("f", f, d.quad, d.quad))
    sop = vars(d).get("_phi")
    if sop is not None:
        dV = f.ncols
        col = sop_compose(sop.phi, {0: {i * dV + j: x for (i, j), x
                                        in f.entries.items()}}).get(0, {})
        return LinMap._trusted(d.quad, d.quad,
                               {divmod(r, dV): x for r, x in col.items()})
    cut = d._bottom.cod
    at_cut = (LinMap.identity(cut[:3]) @ f @ LinMap.identity(cut[7:])
              ) * d._bottom
    return pipeline_as_linmap([[at_cut]] + _phi_layers(d)[_CUT:])


@dataclass(frozen=True)
class PhiSuperoperator:
    """The recursion operator as an exact matrix on End(B1(x)B2(x)B1(x)B2)
    vectorised row-major, stored sparsely column by column."""

    # a column dict, not a LinMap, because perfbench/ reads it; that waits
    # for the benchmark change of ROADMAP item 5
    phi: Dict[int, Dict[int, object]]


def sop_compose(a, b):
    """Column-sparse matrix product a o b, for a and b whose columns hold
    no zero entry (every caller's columns are pruned).  A column of a that
    starts an empty sum with the int 1 as its multiplier is copied in
    whole; its values, their types and their order are those of the
    products.  A product of nonzero scalars is nonzero, so only a column
    in which a sum happened can hold a cancelled entry, and such a column
    is pruned once, at the end."""
    out = {}
    for c, bcol in b.items():
        acc: Dict[int, object] = {}
        get = acc.get
        summed = False
        for r, w in bcol.items():
            acol = a.get(r)
            if not acol:
                continue
            if not acc and type(w) is int and w == 1:
                acc.update(acol)
                continue
            for u, v in acol.items():
                cur = get(u)
                if cur is None:
                    acc[u] = v * w
                else:
                    acc[u] = cur + v * w
                    summed = True
        if summed:
            acc = {u: x for u, x in acc.items() if x}
        if acc:
            out[c] = acc
    return out


def build_phi_superoperator(d: HopfDatum) -> PhiSuperoperator:
    """The recursion operator matrix of d, its cached _phi, assembled by
    _build_phi_superoperator on d's first request and kept with d, so a
    build and every recursion_order search on one datum object share one
    Phi.  The returned object and its column dicts are shared: callers
    must not mutate them."""
    return d._phi


def _build_phi_superoperator(d: HopfDatum) -> PhiSuperoperator:
    """Assemble the recursion operator matrix without ever materialising a
    12-strand map, as a meet in the middle of its split diagram.

    The diagram is cut at a fixed row, _CUT = 8.  The rows between the
    centre row and the cut meet the centre (the four strands f acts on) with
    identities only, so f commutes past them and every factor on the
    spectator strands alone runs in the bottom half, from the quad to the 10
    strands of the cut.  Every row from it on starts with B1's identity and
    ends with B2's, so the top half is id1 (x) T (x) id2: the outer strands
    of a side pass straight through to the outer strands of the quad.  The
    cut depends only on the diagram, never on the datum, and each index
    below is a product of d1 and d2.  A vector on the cut has the quad on
    its centre strands and a spectator side on the others, and each entry of
    Phi is a sum over sides of a top term times a bottom term.  The bottom
    half, d._bottom, is materialised by pipeline_as_linmap, a bounded block
    of its first row's columns per push, once per datum object (phi_apply
    reads the same one), and each of its entries is a bottom term.
    T is pushed only from the inner sides (p, q) the bottom reached, one
    block of dV columns per inner side, and its terms are joined with the
    bottom terms on that inner side, whatever their outer strands.  Both
    moves are the interchange law of the monoidal category, so Phi is the
    same for any braiding.
    """
    s1, s2 = d.b1.space, d.b2.space
    n, dz = s1.dim * s2.dim, s2.dim
    dV = n * n
    # T is the `*` expression of the rows from the cut on, one pending
    # tensor per row; it lends them to the push from each inner side and
    # is never evaluated at its full width
    inner = [reduce(matmul, row[1:-1]) for row in _phi_layers(d)[_CUT:]]
    top = reduce(mul, reversed(inner))
    # a side is the strands (a0, p) left of the centre and (q, z) right of
    # it: the outer a0 in B1 and z in B2, and p, q and T's output in B2 B1
    bots: Dict[tuple, list] = {}
    for (key, v), x in d._bottom.entries.items():
        a, rest = divmod(key, dV * n * dz)
        i, c = divmod(rest, n * dz)
        a0, p = divmod(a, n)
        q, z = divmod(c, dz)
        bots.setdefault((p, q), []).append((v, i, a0, z, x))
    phi: Dict[int, Dict[int, object]] = {}
    for (p, q), terms in bots.items():
        # T's input is an injection of the quad onto the inner side (p, q),
        # not an identity, so it is written down here rather than as the
        # first row [e_p, id_quad, e_q]: that row, written down as the
        # tensor product of its factors, made Phi's build 10-17 % slower on
        # Radford(3,1,3,1), (2,1,4,1) and (2,1,2,1)
        block = LinMap._trusted(d.quad, (s2, s1) + d.quad + (s2, s1), {
            ((p * dV + i) * n + q, i): ONE for i in range(dV)}, True)
        image = top * block
        _join(phi, dV, n, dz,
              [(w, i, y) for (w, i), y in image.entries.items()], terms)
    return PhiSuperoperator({c: rows for c, rows in phi.items() if rows})


def _join(out, dV: int, W: int, dz: int, tops, bots) -> None:
    """Add x*y at row u*dV + v of column i*dV + j of the column-sparse out,
    for each (w, i, x) of tops and (v, j, a0, z, y) of bots.  The top term
    is T's, with w on T's W-dim output, and the bottom term's outer strands
    a0 and z pass through: the quad row is u = (a0*W + w)*dz + z.  So the
    row is w*dz*dV plus the bottom term's offset (a0*W*dz + z)*dV + v and
    the column i*dV plus j; each is computed once per term, not per pair."""
    step = dz * dV
    bots = [(j, (a0 * W * dz + z) * dV + v, y) for v, j, a0, z, y in bots]
    for w, i, x in tops:
        iv, wv = i * dV, w * step
        for j, off, y in bots:
            col = out.setdefault(iv + j, {})
            row = wv + off
            term = x * y
            cur = col.get(row)
            if cur is not None:
                term += cur
            if term:
                col[row] = term
            else:
                del col[row]


def _corner_columns(d: HopfDatum) -> Dict[int, Dict[int, object]]:
    """Id - P on the columns where P is nonzero, as a column dict; every
    other column of Id - P is a basis column.

    P is the corner conjugation f -> pi o f o pi.  Its entry at row
    u*dV + v, column i*dV + j is pi[u, i] * pi[j, v], so it is read off
    pi's nonzeros, and no identity on the doubled quad is built."""
    pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
          @ d.b2.unit_counit())
    dV = pi.ncols
    cols: Dict[int, Dict[int, object]] = {}
    for (u, i), a in pi.entries.items():
        for (j, v), b in pi.entries.items():
            cols.setdefault(i * dV + j, {})[u * dV + v] = -(a * b)
    for c, col in cols.items():
        col[c] = ONE + col.get(c, ZERO)
        if not col[c]:
            del col[c]
    return cols


def recursion_order(d: HopfDatum, n_max: int = 8) -> dict:
    """Least n with Phi^n o (Id - P) = 0 at the superoperator level.

    Returns {"order": n} when found within the cap, otherwise
    {"not_recursive_up_to": n_max, "witness": ...} with the first nonzero
    entry of Phi^n_max o (Id - P) (see _capped).  An n_max that is not an
    int of at least 0 is refused with ValueError before any work.  Id - P
    is never built: Phi o (Id - P) is Phi's own column off P's support.
    """
    if json_int(n_max) < 0:
        raise ValueError(f"n_max {n_max!r} is negative")
    comp = _corner_columns(d)
    dV = dim_of(d.quad)
    if len(comp) == dV ** 2 and not any(comp.values()):
        return {"order": 0}
    if n_max == 0:
        # off P's support, column c of Id - P is the basis column e_c
        c = next(c for c in range(dV ** 2) if c not in comp or comp[c])
        return _capped(0, dV, c, comp.get(c, {c: ONE}))
    phi = build_phi_superoperator(d).phi
    rem = {c: col for c, col in phi.items() if c not in comp}
    rem.update(sop_compose(phi, comp))
    for n in range(1, n_max + 1):
        if not rem:
            return {"order": n}
        if n < n_max:
            rem = sop_compose(phi, rem)
    c = min(rem)
    return _capped(n_max, dV, c, rem[c])


def _capped(n_max: int, dV: int, c: int, col: Dict[int, object]) -> dict:
    """The verdict at the cap, witnessed by the first nonzero entry of the
    last remainder: c is its least nonzero column and col that column, so
    the entry is col's least row.  Row u*dV + v of column i*dV + j is
    entry (u, v) of the image of the matrix unit e_i e_j^T."""
    r = min(col)
    (u, v), (i, j) = divmod(r, dV), divmod(c, dV)
    return {"not_recursive_up_to": n_max,
            "witness": {"u": u, "v": v, "i": i, "j": j,
                        "value": scalar_to_json(col[r])}}


# ---------------------------------------------------------------------------
# trivalence and classification
# ---------------------------------------------------------------------------

_SLOTS = ("coact_l", "coact_r", "act_l", "act_r")


def _pattern_of(d: HopfDatum) -> str:
    """Which interaction maps differ from their (co)unit-tensor forms: one
    flag per slot of _SLOTS, "1" for nontrivial."""
    forms = _trivial_forms(d.b1, d.b2)
    return "".join("1" if getattr(d, k) != forms[k] else "0" for k in _SLOTS)


def trivalence(d: HopfDatum) -> dict:
    """Triviality pattern, family and the product's morphism witnesses.

    Each of the four canonical unit/counit tensor maps between a factor and
    the induced structure is classified; the datum is trivalent iff at
    least one interaction map is trivial, which happens iff at least one of
    those maps is both an algebra and a coalgebra morphism.  That holds for
    valid data only: when the two sides disagree, a datum that fails its
    own check is refused (PreconditionError carrying the datum report).
    """
    cls = classify(d)
    trivalent = "0" in cls["pattern"]
    prod = d.product()
    i1, i2, p1, p2 = canonical_maps(d.b1, d.b2, prod.space)
    witness = {"inj1": classify_morphism(i1, d.b1, prod),
               "inj2": classify_morphism(i2, d.b2, prod),
               "proj1": classify_morphism(p1, prod, d.b1),
               "proj2": classify_morphism(p2, prod, d.b2)}
    both = [name for name, c in witness.items()
            if c["is_algebra_morphism"] and c["is_coalgebra_morphism"]]
    if trivalent != bool(both):
        check_hopf_datum(d).require("datum fails {}")
    return {
        **cls,
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
    pattern = _pattern_of(d)
    return {"pattern": pattern, "family": _family(pattern)}
