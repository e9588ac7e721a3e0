"""Convolution calculus, 2-cocycle twisting, dual pairings, and the
double biproduct.

Scalar-valued maps out of a coalgebra act on other maps by the dot
products chi.f = (chi (x) f) o Delta and f.chi = (f (x) chi) o Delta;
twisting replaces a bialgebra's multiplication by chi.m.chi^- for a
2-cocycle chi.  Twisting and dual pairings live over the flip, where
B (x) B and H (x) A are coalgebras, so a certified chi^- is the only
convolution inverse of chi, and nothing here takes a braiding.  A dual
pairing between bialgebras whose form has a convolution inverse induces a
matched pair, degenerate or not.  The double biproduct assembles
Z = (C><H)><B on C (x) H (x) B from a Hopf algebra H, a right crossed
module bialgebra B, a left crossed module bialgebra C, and a pairing rho
between them, and twists it by the induced 2-cocycle rho_hat; Z and its
one-sided products C><H and H><B are cross products of Hopf data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from .datum import ConsistencyError, HopfDatum, _datum_laws
from .linmaps import (FLIP, LeftYetterDrinfeld, LinMap, ShapeError, Space,
                      UNIT, YetterDrinfeld, flip, pipeline_as_linmap, rebind,
                      require_boundaries)
from .scalars import ONE
from .structures import (
    CheckEntry,
    CheckReport,
    PreconditionError,
    Structure,
    _convolution_inverse,
    _generators,
    _inverse_report,
    _law,
    _light_test,
    _yd_providers,
    canonical_maps,
    check_axioms,
    compare,
    morphism_reports,
    tensor_structure,
)


def unit_bialgebra() -> Structure:
    """The one-dimensional bialgebra (in fact Hopf algebra) on a point."""
    s = Space("k", 1)
    one = {(0, 0): ONE}
    return Structure(s, LinMap((s, s), (s,), one), LinMap(UNIT, (s,), one),
                     LinMap((s,), (s, s), one), LinMap((s,), UNIT, one),
                     LinMap((s,), (s,), one))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoCocycle:
    """A scalar form on B(x)B; a stored inverse is certified, not solved."""

    host: Structure
    chi: LinMap
    chi_inv: Optional[LinMap] = None

    def __post_init__(self):
        BB = (self.host.space,) * 2
        require_boundaries(("chi", self.chi, BB, UNIT),
                           ("chi_inv", self.chi_inv, BB, UNIT))


@dataclass(frozen=True)
class DualPairing:
    """A bilinear form H (x) A -> k pairing two bialgebras."""

    H: Structure
    A: Structure
    form: LinMap

    def __post_init__(self):
        require_boundaries(
            ("form", self.form, (self.H.space, self.A.space), UNIT))


@dataclass(frozen=True)
class DoubleBiproductInput:
    """A Hopf algebra H, a right H-crossed-module bialgebra B, a left
    H-crossed-module bialgebra C, and optionally a pairing B (x) C -> k."""

    H: Structure
    B: Structure
    C: Structure
    b_act: LinMap      # B (x) H -> B
    b_coact: LinMap    # B -> B (x) H
    c_act: LinMap      # H (x) C -> C
    c_coact: LinMap    # C -> H (x) C
    rho: Optional[LinMap] = None

    def __post_init__(self):
        sh, sb, sc = self.H.space, self.B.space, self.C.space
        require_boundaries(("b_act", self.b_act, (sb, sh), (sb,)),
                           ("b_coact", self.b_coact, (sb,), (sb, sh)),
                           ("c_act", self.c_act, (sh, sc), (sc,)),
                           ("c_coact", self.c_coact, (sc,), (sh, sc)),
                           ("rho", self.rho, (sb, sc), UNIT))

    def with_rho(self, rho: LinMap) -> "DoubleBiproductInput":
        return dataclasses.replace(self, rho=rho)


# ---------------------------------------------------------------------------
# convolution dot products
# ---------------------------------------------------------------------------

def conv_dot(chi: LinMap, f: LinMap, side: str, delta: LinMap) -> LinMap:
    """chi.f = (chi (x) f) o delta or f.chi = (f (x) chi) o delta.

    delta is the comultiplication of the shared domain coalgebra (it is
    not inferable from chi and f alone).
    """
    require_boundaries(("chi", chi, f.dom, UNIT),
                       ("delta", delta, f.dom, f.dom * 2))
    if side == "left":
        return (chi @ f) * delta
    if side == "right":
        return (f @ chi) * delta
    raise ValueError(f"unknown side {side!r}")


def _scalar_inverse(f: LinMap, coalg: Structure, stored: LinMap = None,
                    error=PreconditionError) -> LinMap:
    """Convolution inverse of a scalar-valued form on a coalgebra whose
    laws the caller has verified: a tensor_structure of factors it has
    checked (B (x) B by cocycle_inverse, or by twist and double_biproduct
    before _twist; H (x) A by pairing_inverse or validate_pairing; B (x) C
    by double_biproduct).
    Over the flip the factors' coalgebra laws give the tensor's, and k is
    an algebra, so neither is checked again here.

    The form's multi-strand domain is rolled up into the single space of
    `coalg`.  A stored inverse (a cocycle's chi_inv) is certified, a
    failure raising error, and returned as it is; otherwise the inverse is
    computed exactly and unrolled back to the original strands.
    """
    k = unit_bialgebra()
    fp, *gp = (rebind(x, (coalg.space,), (k.space,))
               for x in (f, stored) if x is not None)
    if gp:
        _inverse_report(fp, *gp, coalg, k).require("chi_inv fails {}", error)
        return stored
    return rebind(_convolution_inverse(fp, coalg, k), f.dom, UNIT)


def cocycle_inverse(c: TwoCocycle) -> LinMap:
    """Convolution inverse of the cocycle over the coalgebra of
    tensor_structure(B, B), by _scalar_inverse, once B's coalgebra laws are
    checked here; a stored chi_inv is returned as it is once both
    convolution identities certify it, and only a missing one is solved
    for.  Twisting lives over the flip, where B (x) B is then a coalgebra,
    so a certified chi_inv is the unique inverse."""
    check_axioms(c.host, "coalgebra").require("host fails {}")
    return _scalar_inverse(c.chi, tensor_structure(c.host, c.host),
                           c.chi_inv)


# ---------------------------------------------------------------------------
# cocycle validation and twisting
# ---------------------------------------------------------------------------

def validate_cocycle(c: TwoCocycle) -> CheckReport:
    """The associativity-style cocycle law plus both unit laws; the two
    unit halves are also compared against each other directly.  From dim
    6 on, the cocycle law is tried first by Light's associativity test on
    Doi's product chi.m (see _cocycle_report); a failing entry and its
    witness are always the full diagrams'."""
    check_axioms(c.host, "bialgebra").require("host fails {}")
    bb = tensor_structure(c.host, c.host)
    return _cocycle_report(c, _chi_dot_m(c, bb)[1])


def _chi_dot_m(c: TwoCocycle, bb: Structure) -> Tuple[LinMap, LinMap]:
    """The comultiplication of bb = tensor_structure(B, B), rebound
    onto B (x) B -> B (x) B (x) B (x) B, and Doi's product
    chi.m = (chi (x) m) o Delta_{B (x) B} on B, which the cocycle report
    and the twist both read."""
    BB = (c.host.space,) * 2
    delta2 = rebind(bb.delta, BB, BB * 2)
    return delta2, conv_dot(c.chi, c.host.m, "left", delta2)


def _cocycle_report(c: TwoCocycle, chi_m: LinMap) -> CheckReport:
    """The cocycle laws of validate_cocycle, for a host already verified as
    a bialgebra, with chi_m from _chi_dot_m.

    On a bialgebra eps o chi.m = chi, so the two sides of "2cocycle1",
    chi o (id (x) chi.m) and chi o (chi.m (x) id), are eps applied to the
    two bracketings of chi.m, and the law holds once chi.m is associative
    (Doi's twisted algebra).  That is decided first by Light's test on
    generators of chi.m's own product (from dim 6 on and when 2|S| < dim,
    as in check_axioms); a test that fails, or no test, evaluates the full
    diagrams, so every failing entry and witness is theirs."""
    b = c.host
    idb = b.id_map()
    g = _generators(chi_m, b.space)
    left_unit = c.chi * (b.eta @ idb)
    right_unit = c.chi * (idb @ b.eta)
    units = [compare("2cocycle2-left", left_unit, b.eps),
             compare("2cocycle2-right", right_unit, b.eps)]
    # chi(1, y) = eps(y) = chi(y, 1) makes the host's unit chi.m's unit
    unital = units[0].ok and units[1].ok
    return CheckReport([
        _law("2cocycle1", c.chi * (idb @ chi_m), c.chi * (chi_m @ idb),
             _light_test(chi_m, g, b.eta if unital else None)),
        *units,
        compare("2cocycle2-agree", left_unit, right_unit),
    ])


def twist(b: Structure, c: TwoCocycle) -> Structure:
    """Twist the multiplication by an invertible 2-cocycle.

    m^chi = chi.m.chi^-; Hopf inputs also get S^chi = u.S.u^- with
    u = chi o (id (x) S) o Delta.  Unit, counit and comultiplication are
    untouched.  chi^- is found as cocycle_inverse finds it, over the
    B (x) B that _twist builds.  The output is
    re-verified against every axiom unless m^chi = m and S^chi = S (as on
    every cocommutative host), when the host's own check, made here at the
    same kind, certifies it.
    """
    if c.host.space != b.space:
        raise ShapeError("cocycle host does not match the twisted algebra")
    # S^chi is built from S, so a host with an antipode is checked as Hopf
    kind = "hopf" if b.S is not None else "bialgebra"
    check_axioms(b, kind).require("host fails {}")
    return _twist(TwoCocycle(b, c.chi, c.chi_inv), PreconditionError)[0]


def _twist(c: TwoCocycle, error) -> Tuple[Structure, CheckReport]:
    """The twist and its cocycle report, for a cocycle on a host verified
    over the flip as "hopf" if it has an antipode, else as "bialgebra"; a
    failed cocycle law or chi_inv raises error, a failed twist
    ConsistencyError.  The one B (x) B built here, by tensor_structure,
    gives Delta_{B (x) B}, chi.m and the space chi^- is solved or certified
    over; its multiplication is never read, so never evaluated.

    The twisted structure is checked at the host's kind only when m^chi
    or S^chi differs from the host's map: otherwise it has the host's six
    maps, and that check would be the host's, which has passed."""
    b = c.host
    bb = tensor_structure(b, b)
    delta2, chi_m = _chi_dot_m(c, bb)
    rep = _cocycle_report(c, chi_m)
    rep.require("cocycle fails {}", error)
    chi_inv = _scalar_inverse(c.chi, bb, c.chi_inv, error)
    m_chi = conv_dot(chi_inv, chi_m, "right", delta2)
    S_chi = None
    if b.S is not None:
        u = c.chi * (b.id_map() @ b.S) * b.delta
        # Doi's identity: u^- = chi^- o (S (x) id) o Delta
        u_inv = chi_inv * (b.S @ b.id_map()) * b.delta
        S_chi = conv_dot(u_inv, conv_dot(u, b.S, "left", b.delta),
                         "right", b.delta)
    out = Structure(b.space, m_chi, b.eta, b.delta, b.eps, S_chi)
    if m_chi != b.m or S_chi != b.S:
        kind = "hopf" if S_chi is not None else "bialgebra"
        check_axioms(out, kind).require("twisted structure fails {}",
                                        ConsistencyError)
    return out, rep


# ---------------------------------------------------------------------------
# dual pairings and matched pairs
# ---------------------------------------------------------------------------

def validate_pairing(p: DualPairing) -> CheckReport:
    """The four defining conditions of a bialgebra pairing H (x) A -> k,
    with H and A checked as bialgebras over the flip.

    The multiplicativity conditions are stated in their planar (nested)
    form, <h h', a> = <h', a_(1)> <h, a_(2)> and
    <h, a a'> = <h_(2), a> <h_(1), a'>, which on a cocommutative side
    collapses to the textbook conditions.
    """
    for tag, st in (("H", p.H), ("A", p.A)):
        check_axioms(st, "bialgebra").require(f"{tag} fails {{}}")
    H, A, form = p.H, p.A, p.form
    idh, ida = H.id_map(), A.id_map()
    hook = form * (idh @ form @ ida)          # H(x)H(x)A(x)A -> k
    entries = [
        compare("pairing-mult-h", form * (H.m @ ida),
                hook * (idh @ idh @ A.delta)),
        compare("pairing-mult-a", form * (idh @ A.m),
                hook * (H.delta @ ida @ ida)),
        compare("pairing-unit-h", form * (H.eta @ ida), A.eps),
        compare("pairing-unit-a", form * (idh @ A.eta), H.eps),
    ]
    return CheckReport(entries)


def pairing_inverse(p: DualPairing) -> LinMap:
    """Convolution inverse of the form over the coalgebra of
    tensor_structure(H, A), once H's and A's coalgebra laws are checked
    here."""
    for tag, st in (("H", p.H), ("A", p.A)):
        check_axioms(st, "coalgebra").require(f"{tag} fails {{}}")
    return _scalar_inverse(p.form, tensor_structure(p.H, p.A))


def matched_pair_from_pairing(p: DualPairing) -> dict:
    """Mutual actions induced by a pairing with a convolution inverse.

    lhd: H (x) A -> H and rhd: H (x) A -> A are built from the form and
    its convolution inverse through the double comultiplications.  They
    are the actions of the matched pair (A, H^op), where H^op is H with
    the product m_H o flip, returned under "h_op": rhd is the left action
    of H^op on A and lhd the right action of A on H^op.  The construction
    needs no nondegeneracy (the counit pairing induces the trivial matched
    pair); a form with no convolution inverse is refused by the
    certificate of its inverse, solved over tensor_structure(H, A) once
    validate_pairing has checked both factors.  lhd and rhd are read before
    the datum's laws, so each applies them as one evaluated factor.  The
    matched-pair axioms are the laws of the action-only datum with A and
    H^op as factors past the factors' own (_datum_laws): validate_pairing
    has checked A's, and H^op's are H's with the product reversed.  They
    are the postcondition: a datum that fails raises ConsistencyError
    carrying their report.
    """
    validate_pairing(p).require("pairing fails {}")
    H, A, form = p.H, p.A, p.form
    sh, sa = H.space, A.space
    idh, ida = H.id_map(), A.id_map()
    pinv = _scalar_inverse(form, tensor_structure(H, A))
    lhd = ((pinv @ idh @ form)
           * (idh @ FLIP.braiding_list((sh, sh), (sa,)) @ ida)
           * (H.delta @ idh @ ida @ ida) * (H.delta @ A.delta))
    rhd = ((pinv @ ida @ form)
           * (idh @ FLIP.braiding_list((sh,), (sa, sa)) @ ida)
           * (idh @ idh @ A.delta @ ida) * (H.delta @ A.delta))
    lhd.entries
    rhd.entries
    h_op = Structure(sh, H.m * flip(sh, sh), H.eta, H.delta, H.eps)
    drep = CheckReport(_datum_laws(HopfDatum(A, h_op, act_l=rhd, act_r=lhd)))
    drep.require("the induced actions are no matched pair: {} fails",
                 ConsistencyError)
    return {"lhd": lhd, "rhd": rhd, "h_op": h_op, "is_matched_pair": True,
            "braiding_involutive": True, "report": drep}


# ---------------------------------------------------------------------------
# the double biproduct
# ---------------------------------------------------------------------------

def _products(inp: DoubleBiproductInput
              ) -> Tuple[Structure, Structure, Structure]:
    """C><H, H><B and Z = (C><H)><B as cross products of Hopf data whose
    pairs not given are trivial (see double_biproduct); nothing is
    verified here."""
    C, H, B = inp.C, inp.H, inp.B
    ch = HopfDatum(C, H, inp.c_act, inp.c_coact).product()
    hb = HopfDatum(H, B, act_r=inp.b_act, coact_r=inp.b_coact).product()
    _, i_h, _, p_h = canonical_maps(C, H, ch.space)
    idb = B.id_map()
    z = HopfDatum(ch, B, act_r=inp.b_act * (idb @ p_h),
                  coact_r=(idb @ i_h) * inp.b_coact)
    name = f"({C.space.name}><{H.space.name}><{B.space.name})"
    return ch, hb, z.product(name)


def _twisted_mult_direct(inp: DoubleBiproductInput, rho_inv: LinMap
                         ) -> LinMap:
    """The closed-form twisted multiplication on C(x)H(x)B, evaluated as
    one tall strand diagram (its crossings are flips)."""
    C, H, B = inp.C, inp.H, inp.B
    sc, sh, sb = C.space, H.space, B.space
    idc, idh, idb = C.id_map(), H.id_map(), B.id_map()
    rho = inp.rho
    layers = [
        [idc, H.delta, B.delta, C.delta, H.delta, idb],
        [idc, idh, idh, idb, flip(sb, sc), idc, idh, idh, idb],
        [idc, idh, idh, inp.b_coact, C.delta, B.delta, inp.c_coact,
         idh, idh, idb],
        [idc, idh, idh, idb, flip(sh, sc), idc, idb, flip(sb, sh),
         idc, idh, idh, idb],
        [idc, idh, idh, rho, H.delta, idc, idb, H.delta, rho_inv,
         idh, idh, idb],
        [idc, idh, idh, idh, flip(sh, sc), flip(sb, sh), idh, idh,
         idh, idb],
        [idc, idh, idh, inp.c_act, H.m, inp.b_act, idh, idh, idb],
        [idc, idh, flip(sh, sc), idh, flip(sb, sh), idh, idb],
        [idc, inp.c_act, H.m, idh, inp.b_act, idb],
        [C.m, H.m, B.m],
    ]
    return pipeline_as_linmap(layers)


def double_biproduct(inp: DoubleBiproductInput) -> dict:
    """Assemble Z = (C><H)><B on C (x) H (x) B, its pairing cocycle, and
    the twist.

    Z and the one-sided products are cross products of Hopf data: C's
    left crossed module over H is the left pair of C><H, B's right one
    the right pair of H><B and, through C><H's projection onto H and
    injection of H, of Z.  The construction lives over the flip: B and C
    braid through their crossed modules over H, and every other crossing,
    those of the fused spaces C><H and Z included, is a flip, so it takes
    no braiding (the CLI refuses a braided workspace with exit 2).  All
    preconditions are verified exactly: the crossed-module and braided
    bialgebra laws for B and C, the square of the mixed braidings against
    the action/coaction loop, and the three compatibility conditions of
    the pairing with the (co)multiplications.
    Z is verified as a bialgebra, the canonical injections/projections
    from and to the two one-sided products are checked as bialgebra
    morphisms, and twist's body runs on Z and rho_hat, whose stored inverse
    (the lift of rho's, solved once over B (x) C) it certifies over Z (x) Z;
    its product is compared with the direct diagram.  Z has no antipode, so
    the twisted Z is checked as a bialgebra when its product moved, and is
    certified by Z's own check when it did not (as for the Sweedler
    crossed modules).
    """
    if inp.rho is None:
        err = ShapeError("no pairing rho supplied")
        err.slot = "rho"
        raise err
    H, B, C, rho = inp.H, inp.B, inp.C, inp.rho
    sh, sb, sc = H.space, B.space, C.space
    idb, idc = B.id_map(), C.id_map()

    prov_r, prov_l = _yd_providers(
        H, (YetterDrinfeld, [(sb, inp.b_act, inp.b_coact)]),
        (LeftYetterDrinfeld, [(sc, inp.c_act, inp.c_coact)]))
    for tag, st, prov in (("B", B, prov_r), ("C", C, prov_l)):
        check_axioms(st, "bialgebra", prov).require(
            f"{tag} is not a bialgebra in its crossed-module category ({{}})")

    entries = []
    # square of the mixed braidings against the action/coaction loop
    loop = ((inp.b_act @ inp.c_act) * (idb @ flip(sh, sh) @ idc)
            * (inp.b_coact @ inp.c_coact))
    entries.append(compare("double-braiding-trivial",
                           LinMap.identity((sb, sc)), loop))
    # pairing compatibilities
    rho2 = rho * (idb @ rho @ idc)            # B(x)B(x)C(x)C -> k
    psi_dy = prov_r.braiding(sb, sb)
    entries.append(compare("pairing-balance", rho * (inp.b_act @ idc),
                           rho * (idb @ inp.c_act)))
    entries.append(compare(
        "pairing-comult-c", rho * (idb @ C.m),
        rho2 * ((flip(sb, sb) * B.delta) @ idc @ idc)))
    entries.append(compare(
        "pairing-mult-b", rho * (B.m @ idc),
        rho2 * (psi_dy @ (flip(sc, sc) * C.delta))))
    CheckReport(entries).require("pairing precondition fails: {}")

    ch, hb, Z = _products(inp)
    check_axioms(Z, "bialgebra").require("assembled product fails {}",
                                         ConsistencyError)

    canon = []
    mono_c, _, epi_c, _ = canonical_maps(ch, B, Z.space)
    _, mono_b, _, epi_b = canonical_maps(C, hb, Z.space)
    for tag, f, src, dst in (("mono-c-side", mono_c, ch, Z),
                             ("mono-b-side", mono_b, hb, Z),
                             ("epi-c-side", epi_c, Z, ch),
                             ("epi-b-side", epi_b, Z, hb)):
        bad = [e for rep in morphism_reports(f, src, dst, tag)
               for e in rep.entries if not e.ok]
        canon.append(CheckEntry(tag, not bad, bad[0].witness if bad else None))
    canon.append(compare("retraction-c-side", epi_c * mono_c, ch.id_map()))
    canon.append(compare("retraction-b-side", epi_b * mono_b, hb.id_map()))
    CheckReport(canon).require("canonical morphism fails: {}",
                               ConsistencyError)

    chi = rebind(C.eps @ H.eps @ rho @ H.eps @ B.eps,
                 (Z.space, Z.space), UNIT)
    rho_inv = _scalar_inverse(rho, tensor_structure(B, C))
    chi_inv = rebind(C.eps @ H.eps @ rho_inv @ H.eps @ B.eps,
                     (Z.space, Z.space), UNIT)
    rho_hat = TwoCocycle(Z, chi, chi_inv)
    # Z passed check_axioms above, so the twist runs its body only
    z_twisted, vrep = _twist(rho_hat, ConsistencyError)
    direct = _twisted_mult_direct(inp, rho_inv)
    direct = rebind(direct, (Z.space, Z.space), (Z.space,))
    agree = CheckReport([compare("twisted-direct-agreement", direct,
                                 z_twisted.m)])
    agree.require("direct twisted multiplication fails {}", ConsistencyError)

    return {"Z": Z, "rho_hat": rho_hat, "Z_twisted": z_twisted,
            "c_rtimes_h": ch, "h_ltimes_b": hb,
            "report": CheckReport(entries + canon + list(vrep.entries)
                                  + list(agree.entries))}
