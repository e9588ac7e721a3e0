"""Structure-constant bundles and exhaustive exact axiom checkers.

A Structure packs the five (six with antipode) tensors of a finite
dimensional algebra-and-coalgebra on one space.  Nothing beyond shape and
the unit/counit normalisation is assumed at construction time; every law is
*checked*, as a full matrix identity, and the first differing entry is
reported so that failures reproduce bit for bit.  The one file format
here is a report's entries, CheckReport.to_json; a structure's workspace
encoding is cli's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import matmul
from typing import Dict, List, Optional, Tuple

from .linmaps import (
    ConfigurationError,
    FLIP,
    LeftYetterDrinfeld,
    LinMap,
    ShapeError,
    Space,
    UNIT,
    YetterDrinfeld,
    _reduce_step,
    flip,
    rebind,
    reduce_rows,
    require_boundaries,
    unflatten,
)
from .scalars import ONE, ZERO, Scalar, VerifiedFailure, scalar_to_json


class PreconditionError(VerifiedFailure, ValueError):
    """A checker was called on data whose prerequisites already fail."""


class NotConvolutionInvertibleError(VerifiedFailure, ValueError):
    pass


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """First differing matrix entry between the two sides of a law."""

    out_index: Tuple[int, ...]
    in_index: Tuple[int, ...]
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class CheckEntry:
    axiom: str
    ok: bool
    witness: Optional[Witness] = None


class CheckReport:
    """Ordered per-axiom verdicts; overall pass iff every axiom passes."""

    def __init__(self, entries):
        self.entries: Tuple[CheckEntry, ...] = tuple(entries)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, axiom: str) -> CheckEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def failed(self) -> List[str]:
        return [e.axiom for e in self.entries if not e.ok]

    def require(self, template: str, error=PreconditionError) -> None:
        """Raise error carrying this report unless every axiom passes:
        PreconditionError for data handed in, datum.ConsistencyError for an
        object the package built itself.  The message is template with its
        last "{}" replaced by the first failed axiom; text before it (a
        space name, say) is taken literally."""
        if not self.ok:
            head, _, tail = template.rpartition("{}")
            raise error(head + self.failed()[0] + tail, report=self)

    def to_json(self) -> list:
        out = []
        for e in self.entries:
            item = {"axiom": e.axiom, "ok": e.ok}
            if e.witness is not None:
                item["witness"] = {
                    "out_index": list(e.witness.out_index),
                    "in_index": list(e.witness.in_index),
                    "lhs": scalar_to_json(e.witness.lhs),
                    "rhs": scalar_to_json(e.witness.rhs),
                }
            out.append(item)
        return out

    def __repr__(self):
        verdict = "ok" if self.ok else "FAIL(" + ",".join(self.failed()) + ")"
        return f"CheckReport({len(self.entries)} axioms, {verdict})"


def compare(axiom: str, lhs: LinMap, rhs: LinMap) -> CheckEntry:
    """Exact equality of two maps, packaged as a named verdict; only a
    mismatch pays for the row-major scan that finds its witness."""
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise ShapeError(f"{axiom}: comparing maps with different boundaries")
    if lhs.entries == rhs.entries:
        return CheckEntry(axiom, True)
    (row, col), a, b = lhs.first_difference(rhs)
    wit = Witness(unflatten(row, tuple(s.dim for s in lhs.cod)),
                  unflatten(col, tuple(s.dim for s in lhs.dom)), a, b)
    return CheckEntry(axiom, False, wit)


# ---------------------------------------------------------------------------
# structure bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """m: B(x)B->B, eta: k->B, delta: B->B(x)B, eps: B->k, optional S: B->B.

    Every structure has its multiplication: m=None is refused with
    ShapeError.  A map built with `*` or `@` may stay pending until it is
    read, so a multiplication that nothing reads costs nothing.
    """

    space: Space
    m: LinMap
    eta: LinMap
    delta: LinMap
    eps: LinMap
    S: Optional[LinMap] = None

    def __post_init__(self):
        if not isinstance(self.m, LinMap):
            raise ShapeError(f"{self.space.name} has no multiplication")
        B = (self.space,)
        require_boundaries(("m", self.m, B * 2, B), ("eta", self.eta, UNIT, B),
                           ("delta", self.delta, B, B * 2),
                           ("eps", self.eps, B, UNIT), ("S", self.S, B, B))

    @property
    def dim(self) -> int:
        return self.space.dim

    def id_map(self) -> LinMap:
        return LinMap.identity((self.space,))

    def unit_counit(self) -> LinMap:
        """eta o eps, the convolution unit of End(B)."""
        return self.eta * self.eps


def restrict(A: Structure, i: LinMap, p: LinMap) -> Structure:
    """The structure A induces on the source of the injection i through the
    projection p: (p m (i (x) i), p eta, (p (x) p) delta i, eps i).  Nothing
    is verified here."""
    return Structure(i.dom[0], p * A.m * (i @ i), p * A.eta,
                     (p @ p) * A.delta * i, A.eps * i)


def fuse(space: Space, m: LinMap, eta: LinMap, delta: LinMap,
         eps: LinMap, S: Optional[LinMap] = None) -> Structure:
    """Rebind multi-strand structure maps onto the single space `space`;
    each map's strands must multiply out to the matching power of
    space.dim.  A pending map stays pending (see linmaps.rebind)."""
    P = (space,)
    return Structure(space, rebind(m, P * 2, P, "m"),
                     rebind(eta, UNIT, P, "eta"),
                     rebind(delta, P, P * 2, "delta"),
                     rebind(eps, P, UNIT, "eps"),
                     None if S is None else rebind(S, P, P, "S"))


def canonical_maps(b1: Structure, b2: Structure, space: Space
                   ) -> Tuple[LinMap, LinMap, LinMap, LinMap]:
    """The canonical injections and projections of a product of b1 and b2
    fused onto `space`: (i1, i2, p1, p2) = (id (x) eta2, eta1 (x) id,
    id (x) eps2, eps1 (x) id), each rebound onto the one strand `space`."""
    s1, s2, P = (b1.space,), (b2.space,), (space,)
    return (rebind(b1.id_map() @ b2.eta, s1, P, "i1"),
            rebind(b1.eta @ b2.id_map(), s2, P, "i2"),
            rebind(b1.id_map() @ b2.eps, P, s1, "p1"),
            rebind(b1.eps @ b2.id_map(), P, s2, "p2"))


def _cross_mult(b1: Structure, b2: Structure, phi21: LinMap) -> LinMap:
    """m = (m1 (x) m2) o (id (x) phi21 (x) id) on B1(x)B2, pending until
    it is read."""
    return (b1.m @ b2.m) * (b1.id_map() @ phi21 @ b2.id_map())


def _cross_comult(b1: Structure, b2: Structure, phi12: LinMap) -> LinMap:
    """delta = (id (x) phi12 (x) id) o (delta1 (x) delta2) on B1(x)B2."""
    return (b1.id_map() @ phi12 @ b2.id_map()) * (b1.delta @ b2.delta)


def cross_structure(b1: Structure, b2: Structure, phi12: LinMap,
                    phi21: LinMap, name: Optional[str] = None) -> Structure:
    """The product/coproduct induced on B1(x)B2 by the connecting maps
    phi12: B1(x)B2 -> B2(x)B1 and phi21: B2(x)B1 -> B1(x)B2, fused onto one
    product space (default name "(B1><B2)").  Nothing is verified here."""
    s1, s2 = b1.space, b2.space
    P = Space(name or f"({s1.name}><{s2.name})", s1.dim * s2.dim)
    return fuse(P, _cross_mult(b1, b2, phi21), b1.eta @ b2.eta,
                _cross_comult(b1, b2, phi12), b1.eps @ b2.eps)


def tensor_structure(a: Structure, b: Structure) -> Structure:
    """Tensor product structure on A(x)B with the flip in the middle.

    m = (m_A (x) m_B) o (id (x) flip_{B,A} (x) id) and dually for delta.
    The antipode slot is filled with S_A (x) S_B when both factors carry one.
    m and S stay pending until they are read, so a convolution solve over
    A(x)B, which reads eta, delta and eps only, never builds them; for two
    factors of dim 16 the multiplication alone would have 65,536 columns.
    """
    A, B = a.space, b.space
    X = cross_structure(a, b, flip(A, B), flip(B, A), f"({A.name}.{B.name})")
    return X if a.S is None or b.S is None else replace(
        X, S=rebind(a.S @ b.S, (X.space,), (X.space,), "S"))


def dual(h: Structure) -> Structure:
    """The transpose of h^{op,cop} on the space "<name>*", in the dual
    basis: m = (tau o delta_h)^T, delta = (m_h o tau)^T, eta = eps_h^T,
    eps = eta_h^T and S = S_h^T (None when h has no S).  The evaluation
    form <e_i, e_j> = delta_ij pairs h with it, and the pairing induces
    the matched pair of the Drinfeld double.  Nothing is verified here."""
    B = h.space
    P = Space(f"{B.name}*", B.dim)
    tau = flip(B, B)

    def t(f):
        return LinMap((P,) * len(f.cod), (P,) * len(f.dom),
                      {(c, r): v for (r, c), v in f.entries.items()})
    return Structure(P, t(tau * h.delta), t(h.eps), t(h.m * tau),
                     t(h.eta), None if h.S is None else t(h.S))


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _generators(m: LinMap, space: Space) -> Optional[LinMap]:
    """The map k^S -> space onto a set S of basis vectors whose products
    under m: space (x) space -> space span the space, or None when checking
    laws on S would not pay: below dim 6, or when 2|S| >= dim (both
    measured on the zoo's structures of dims 2 to 32; below dim 6 the
    search alone costs a few percent of a full check).

    The basis is walked in order: e_j joins S when it is not yet in the
    span, and the span is then closed under left multiplication by S, so
    it is spanned by the products s_1 (s_2 (... s_k)) of elements of S.
    """
    d = space.dim
    if d < 6:
        return None
    cols = m.by_col()
    pivots: Dict[int, Dict[int, Scalar]] = {}
    gens: List[int] = []
    done: List[Dict[int, Scalar]] = []     # closed under the current S
    todo: List[Dict[int, Scalar]] = []

    def grow(j, v):
        # e_j v, queued when it enlarges the span
        out: Dict[int, Scalar] = {}
        for k, x in v.items():
            for r, y in cols.get(j * d + k, {}).items():
                cur = out.get(r)
                out[r] = y * x if cur is None else cur + y * x
        if _reduce_step(pivots, out) is not None:
            todo.append(out)

    for j in range(d):
        if len(pivots) == d:
            break
        if _reduce_step(pivots, {j: ONE}) is None:
            continue
        gens.append(j)
        if 2 * len(gens) >= d:
            return None
        for v in done:
            grow(j, v)
        todo.append({j: ONE})
        while todo and len(pivots) < d:
            v = todo.pop()
            for g in gens:
                grow(g, v)
            done.append(v)
    return LinMap((Space(f"{space.name}.gens", len(gens)),), (space,),
                  {(j, k): ONE for k, j in enumerate(gens)})


def _law(axiom: str, lhs: LinMap, rhs: LinMap,
         shortcut: Optional[Tuple[LinMap, LinMap]]) -> CheckEntry:
    """compare(axiom) of the pending diagrams lhs and rhs.  A shortcut is
    a pair of smaller pending diagrams whose agreement implies the law,
    such as lhs * seed and rhs * seed for a seed onto generators: when they
    agree the law passes and lhs and rhs are never read, and otherwise
    they are, so that a failing entry and its witness never depend on the
    shortcut."""
    if shortcut is not None and (shortcut[0].entries
                                 == shortcut[1].entries):
        return CheckEntry(axiom, True)
    return compare(axiom, lhs, rhs)


def _without_unit(g: LinMap, unit: Optional[LinMap]) -> LinMap:
    """g = _generators(...) with the generator e_u left out when unit is
    given and unit(1) is the basis vector e_u of S; otherwise g itself.
    The caller passes unit only once 1 = unit(1) is known to lie in the
    subspace its argument closes under m, so that S without e_u, together
    with 1, still generates."""
    if unit is None or len(unit.entries) != 1:
        return g
    ((u, _), x), = unit.entries.items()
    gens = [j for j, _ in sorted(g.entries, key=lambda e: e[1])]
    if x != ONE or u not in gens:
        return g
    gens.remove(u)
    return LinMap((Space(g.dom[0].name, len(gens)),), g.cod,
                  {(j, k): ONE for k, j in enumerate(gens)})


def _light_test(m: LinMap, g: Optional[LinMap], unit: Optional[LinMap]):
    """Light's test of m's associativity, as a shortcut for _law, or None
    when g is None: (x a) y against x (a y) on the columns x (x) a (x) y
    with a in the set S that g = _generators(m, ...) picks.  The a that
    pass for all x, y form a subspace closed under m, so when they hold S
    they are the whole space.  unit is the unit of m once x 1 = x = 1 x
    is verified, else None: then (x 1) y = x (1 y), so 1 lies in that
    subspace and its generator is left out of S (_without_unit)."""
    if g is None:
        return None
    i = LinMap.identity(m.cod)
    seed = i @ _without_unit(g, unit) @ i
    return m * (m @ i) * seed, m * (i @ m) * seed


def check_axioms(s: Structure, kind: str, bp=FLIP, psi=None) -> CheckReport:
    """Verify the defining laws of an algebra / coalgebra / bialgebra / Hopf
    algebra, each as an exact matrix identity.

    The bialgebra compatibility uses the braiding Psi on s(x)s:
    delta o m = (m (x) m) o (id (x) Psi (x) id) o (delta (x) delta).
    Psi is the provider's braiding of s.space with itself unless given
    explicitly, as it must be for a fused product space that no provider
    has registered.
    """
    if kind not in ("algebra", "coalgebra", "bialgebra", "hopf"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "hopf" and s.S is None:
        raise ConfigurationError("hopf check needs an antipode")
    g = None if kind == "coalgebra" else _generators(s.m, s.space)
    i = s.id_map()
    entries = [compare("unit-counit", s.eps * s.eta, LinMap.identity(UNIT))]
    if kind != "coalgebra":
        # associativity is listed first, but decided after the unit laws,
        # which let Light's test on the generators g leave the unit out
        units = [compare("left-unit", s.m * (s.eta @ i), i),
                 compare("right-unit", s.m * (i @ s.eta), i)]
        unital = units[0].ok and units[1].ok
        entries += [_law("associativity", s.m * (s.m @ i), s.m * (i @ s.m),
                         _light_test(s.m, g, s.eta if unital else None)),
                    *units]
    if kind != "algebra":
        entries += [compare("coassociativity", (s.delta @ i) * s.delta,
                            (i @ s.delta) * s.delta),
                    compare("left-counit", (s.eps @ i) * s.delta, i),
                    compare("right-counit", (i @ s.eps) * s.delta, i)]
    if kind in ("bialgebra", "hopf"):
        unit_comult = compare("unit-comult", s.delta * s.eta,
                              (i @ s.eta) * s.eta)
        # Once m is associative (entries[1]) and under the flip, the a with
        # delta(a y) = delta(a) delta(y) for all y are closed under m too;
        # they hold 1 once the unit laws (entries[2:4]) and unit-comult do
        seeded = g is not None and entries[1].ok and (
            bp == FLIP if psi is None else psi == flip(s.space, s.space))
        if seeded:
            unital = entries[2].ok and entries[3].ok and unit_comult.ok
            g = _without_unit(g, s.eta if unital else None)
        if psi is None:
            psi = bp.braiding(s.space, s.space)
        lhs = s.delta * s.m
        rhs = (s.m @ s.m) * (i @ psi @ i) * (s.delta @ s.delta)
        entries.append(_law("mult-comult", lhs, rhs,
                            (lhs * (g @ i), rhs * (g @ i)) if seeded
                            else None))
        entries.append(unit_comult)
        entries.append(compare("counit-mult", s.eps * s.m, s.eps @ s.eps))
    if kind == "hopf":
        ue = s.unit_counit()
        entries.append(compare("left-antipode", s.m * (s.S @ i) * s.delta,
                               ue))
        entries.append(compare("right-antipode", s.m * (i @ s.S) * s.delta,
                               ue))
    return CheckReport(entries)


# -- (co)actions ------------------------------------------------------------

def _action_report(carrier: Space, actor: Structure, f: LinMap, kind: str,
                   tag: str) -> CheckReport:
    """The (co)action laws of f, for an actor whose laws already hold, named
    tag + "unit" and "associativity" (tag + "counit" and "coassociativity"
    for a comodule).  The actor's strand sits left of the carrier's for
    the kinds module-l (f: H(x)M -> M) and comodule-l (f: M -> H(x)M), and
    right of it for module-r and comodule-r; a comodule's laws are a
    module's diagrams upside down.  The caller has checked f's strands."""
    co = "co" if kind.startswith("co") else ""
    left = kind.endswith("-l")
    im, ih = LinMap.identity((carrier,)), LinMap.identity((actor.space,))

    def row(h, x):
        return h @ x if left else x @ h

    if co:
        unit = row(actor.eps, im) * f
        lhs, rhs = row(actor.delta, im) * f, row(ih, f) * f
    else:
        unit = f * row(actor.eta, im)
        lhs, rhs = f * row(actor.m, im), f * row(ih, f)
    return CheckReport([
        compare(f"{tag}{co}unit", unit, im),
        compare(f"{tag}{co}associativity", lhs, rhs)])


# -- crossed modules --------------------------------------------------------

def _crossed_module_report(carrier: Space, host: Structure, act: LinMap,
                           coact: LinMap, side: str) -> CheckReport:
    """The (co)module laws and the compatibility of the action with the
    coaction, for a host whose laws already hold.  side "right": act:
    M(x)H -> M and coact: M -> M(x)H, and both sides of the defining
    identity are composites on M(x)H; side "left" is the same diagrams
    mirrored, on H(x)M, with the flips M(x)H -> H(x)M and back swapped."""
    im, ih = LinMap.identity((carrier,)), LinMap.identity((host.space,))
    mod = _action_report(carrier, host, act, "module-" + side[0], "action-")
    com = _action_report(carrier, host, coact, "comodule-" + side[0],
                         "coaction-")
    for rep in (mod, com):
        rep.require(f"{carrier.name}: (co)module laws fail first: {{}}")
    psi_hh = flip(host.space, host.space)
    psi_mh, psi_hm = flip(carrier, host.space), flip(host.space, carrier)
    if side == "left":
        psi_mh, psi_hm = psi_hm, psi_mh
    loop = coact * act

    def row(*fs):
        return reduce(matmul, fs if side == "right" else fs[::-1])

    lhs = row(act, host.m) * row(im, psi_hh, ih) * row(coact, host.delta)
    rhs = (row(im, host.m) * row(psi_hm, ih) * row(ih, loop)
           * row(psi_mh, ih) * row(im, host.delta))
    return CheckReport(mod.entries + com.entries + (compare(
        "crossed-compatibility", lhs, rhs),))


def _yd_providers(host: Structure, *groups) -> list:
    """Verify the host once (as a Hopf algebra when it carries an
    antipode), then build one provider per (cls, modules) group.  Each
    module is registered, which checks its maps' strands (a ShapeError
    carries the module's index in its group), and then must pass its
    crossed-module laws on the provider class's side; a provider is
    returned only when every module has passed."""
    kind = "hopf" if host.S is not None else "bialgebra"
    check_axioms(host, kind).require("host fails {}")
    provs = []
    for cls, modules in groups:
        prov = cls(host.space)
        for i, (space, act, coact) in enumerate(modules):
            try:
                prov.register(space, act, coact)
            except ShapeError as err:
                err.module = i
                raise
            _crossed_module_report(space, host, act, coact,
                                   cls.side).require(f"{space.name}: {{}}")
        provs.append(prov)
    return provs


def yd_provider(host: Structure, modules):
    """Braiding backend from right crossed modules, validated on the way in.

    modules: iterable of (space, act, coact) with act: X(x)H -> X and
    coact: X -> X(x)H.  The host's laws are verified first; each triple
    must then pass its (co)module laws and the crossed-module
    compatibility over the host before it is registered.  A law that
    fails raises PreconditionError carrying the report.
    """
    return _yd_providers(host, (YetterDrinfeld, modules))[0]


def yd_provider_left(host: Structure, modules):
    """Left-sided counterpart of yd_provider: act: H(x)X -> X and
    coact: X -> H(x)X, validated as left crossed modules."""
    return _yd_providers(host, (LeftYetterDrinfeld, modules))[0]


# -- morphism classification ------------------------------------------------

def morphism_reports(f: LinMap, src: Structure, dst: Structure,
                     tag: str = "morphism") -> Tuple[CheckReport, CheckReport]:
    """The algebra-morphism laws of f : src -> dst (tag + "-multiplicative",
    "-unital") and its coalgebra-morphism laws ("-comultiplicative",
    "-counital"), as two reports; tag also names f's boundary slot."""
    require_boundaries((tag, f, (src.space,), (dst.space,)))
    return (CheckReport([
        compare(f"{tag}-multiplicative", f * src.m, dst.m * (f @ f)),
        compare(f"{tag}-unital", f * src.eta, dst.eta)]), CheckReport([
        compare(f"{tag}-comultiplicative", (f @ f) * src.delta,
                dst.delta * f),
        compare(f"{tag}-counital", dst.eps * f, src.eps)]))


def classify_morphism(f: LinMap, src: Structure, dst: Structure) -> dict:
    """Test the four morphism laws of f : src -> dst exactly."""
    alg, coa = morphism_reports(f, src, dst)
    return {"is_algebra_morphism": alg.ok, "is_coalgebra_morphism": coa.ok}


# ---------------------------------------------------------------------------
# convolution algebra
# ---------------------------------------------------------------------------

def convolution_product(f: LinMap, g: LinMap, coalg: Structure,
                        alg: Structure) -> LinMap:
    """f * g = m o (f (x) g) o delta in Hom(C, A)."""
    return alg.m * (f @ g) * coalg.delta


def _inverse_report(f: LinMap, g: LinMap, coalg: Structure,
                    alg: Structure) -> CheckReport:
    """f * g = eta o eps ("convolution-right-inverse") and g * f = eta o eps
    ("convolution-left-inverse") in Hom(C, A); no law of C or A is read."""
    unit = alg.eta * coalg.eps
    return CheckReport(compare(f"convolution-{side}-inverse",
                               convolution_product(a, b, coalg, alg), unit)
                       for side, a, b in (("right", f, g), ("left", g, f)))


def convolution_inverse(f: LinMap, coalg: Structure, alg: Structure) -> LinMap:
    """Solve f * g = eta o eps for g in Hom(C, A), exactly, once C's
    coalgebra laws and A's algebra laws are checked here; the solve is
    _convolution_inverse's."""
    check_axioms(coalg, "coalgebra").require("convolution boundary fails {}")
    check_axioms(alg, "algebra").require("convolution boundary fails {}")
    return _convolution_inverse(f, coalg, alg)


def _convolution_inverse(f: LinMap, coalg: Structure,
                         alg: Structure) -> LinMap:
    """convolution_inverse's solve, for a coalgebra C and an algebra A that
    the caller has verified (a tensor_structure of verified factors, say,
    which over the flip is a coalgebra); no law of either is checked here.

    Hom(C, A) under convolution is a finite-dimensional associative
    algebra with unit eta o eps, where a right inverse is two-sided and
    unique; so the one-sided system is solved, by one sparse Gaussian
    elimination.  Its coefficients are the entries of one diagram
    X: A (x) C -> A (x) C, which flips the unknown's A strand past the
    first leg of delta and meets f's output at m: X[(u, c2), (a, v)] is
    the coefficient of g[a, c2] in (f * g)[u, v].  The flip is that of
    vector spaces, under any braiding: the convolution product has no
    crossing, and the flip only brings the unknown's strand next to m.
    _inverse_report's two identities are re-verified on the result.  Only
    eta, delta and eps of coalg are read, so a pending m of coalg
    (tensor_structure's) is never evaluated here.
    """
    C, A = coalg.space, alg.space
    dc, da = C.dim, A.dim
    ida, idc = LinMap.identity((A,)), LinMap.identity((C,))
    X = ((alg.m @ idc) * (f @ ida @ idc) * (flip(A, C) @ idc)
         * (ida @ coalg.delta))
    rhs = da * dc  # the right-hand side rides along as one extra column
    rows = [{rhs: alg.eta.entry(u, 0) * coalg.eps.entry(0, v)}
            for u in range(da) for v in range(dc)]
    for (uc2, av), x in X.entries.items():
        u, c2 = divmod(uc2, dc)
        a, v = divmod(av, dc)
        rows[u * dc + v][a * dc + c2] = x
    # free unknowns are zero, so each pivot unknown equals its right side;
    # a pivot on the right side (0 = 1) leaves g to fail the certificate
    g = LinMap((C,), (A,), {divmod(var, dc): row.get(rhs, ZERO)
                            for var, row in reduce_rows(rows).items()
                            if var != rhs})
    _inverse_report(f, g, coalg, alg).require(
        "no two-sided convolution inverse exists: {} fails",
        NotConvolutionInvertibleError)
    return g

