"""Cross product bialgebras and their universal characterisation.

A BAT (bialgebra admissible tuple) is two structures plus a pair of
connecting maps between the tensor products in either order.  The tuple is
admissible precisely when the product/coproduct it induces on B1(x)B2 pass
every bialgebra law; build_cross_product performs that verification, and
build_bialgebra verifies a Hopf datum and builds the tuple it induces.  The
converse direction starts from a bialgebra given together with either a
projection/injection system or a pair of idempotents, and decompose
recovers the tuple, splitting the idempotents by exact rank factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

from .datum import ConsistencyError, HopfDatum, check_hopf_datum, classify
from .linmaps import (FLIP, LinMap, ShapeError, Space, UNIT, rebind,
                      reduce_rows, require_boundaries)
from .scalars import ONE, VerifiedFailure
from .structures import (
    CheckEntry,
    CheckReport,
    Structure,
    check_axioms,
    classify_morphism,
    compare,
    cross_structure,
    morphism_reports,
    restrict,
)


class NotABATError(VerifiedFailure, ValueError):
    """The candidate tuple does not produce a bialgebra."""


class InvalidSystemError(VerifiedFailure, ValueError):
    pass


class NotASplittingError(VerifiedFailure, ValueError):
    pass


# ---------------------------------------------------------------------------
# admissible tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BAT:
    """Two structures and the connecting maps between their products.

    phi12: B1(x)B2 -> B2(x)B1,  phi21: B2(x)B1 -> B1(x)B2.  Admissibility
    is established only by build_cross_product.
    """

    b1: Structure
    b2: Structure
    phi12: LinMap
    phi21: LinMap
    braiding: object = FLIP

    def __post_init__(self):
        s1, s2 = (self.b1.space,), (self.b2.space,)
        require_boundaries(("phi12", self.phi12, s1 + s2, s2 + s1),
                           ("phi21", self.phi21, s2 + s1, s1 + s2))


def _counit_report(t: BAT) -> CheckReport:
    """eps_j o eta_j = id_k for each factor ("B1", "B2")."""
    return CheckReport(compare(tag, st.eps * st.eta, LinMap.identity(UNIT))
                       for tag, st in (("B1", t.b1), ("B2", t.b2)))


def build_cross_product(t: BAT) -> Structure:
    """Assemble the product/coproduct induced by the tuple and verify every
    bialgebra axiom exactly; raise NotABATError naming the first failure."""
    _counit_report(t).require("{} is not counit-normalised", NotABATError)
    prod = cross_structure(t.b1, t.b2, t.phi12, t.phi21)
    check_axioms(prod, "bialgebra", psi=_product_braiding(t, prod)).require(
        "not a BAT: {} fails", NotABATError)
    return prod


def _product_braiding(t: Union[BAT, HopfDatum], X: Structure) -> LinMap:
    """Psi of B1(x)B2 on X's fused space, which no provider registers."""
    s12, P2 = (t.b1.space, t.b2.space), (X.space, X.space)
    return rebind(t.braiding.braiding_list(s12, s12), P2, P2, "Psi")


def build_bialgebra(d: HopfDatum) -> Structure:
    """B1(x)B2 with the product and coproduct the datum induces, verified.

    The datum is checked first (refusal on failure), its factors' counit
    normalisation included; the product is then the datum's own cross
    product, d.product(), verified as build_cross_product verifies the
    tuple the datum induces, so a product that fails a bialgebra law
    raises NotABATError."""
    check_hopf_datum(d).require("datum fails {}")
    X = d.product()
    check_axioms(X, "bialgebra", psi=_product_braiding(d, X)).require(
        "not a BAT: {} fails", NotABATError)
    return X


def bat_to_hopf_datum(t: BAT) -> HopfDatum:
    """Extract the four interaction maps carried by an admissible tuple,
    once build_cross_product has verified it."""
    build_cross_product(t)
    return _read_datum(t)


def _read_datum(t: BAT) -> HopfDatum:
    """The datum of a tuple whose cross product is a bialgebra.

    The actions read off the connecting maps through the counits, the
    coactions through the units; the induced maps of the resulting datum
    reproduce phi12/phi21 exactly.
    """
    id1, id2 = t.b1.id_map(), t.b2.id_map()
    act_l = (id1 @ t.b2.eps) * t.phi21
    act_r = (t.b1.eps @ id2) * t.phi21
    coact_l = t.phi12 * (id1 @ t.b2.eta)
    coact_r = t.phi12 * (t.b1.eta @ id2)
    return HopfDatum(t.b1, t.b2, act_l, coact_l, act_r, coact_r, t.braiding)


# ---------------------------------------------------------------------------
# projection / idempotent systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSystem:
    """Injections i_j into and projections p_j out of an ambient bialgebra,
    which is passed alongside wherever the system is read."""

    i1: LinMap
    i2: LinMap
    p1: LinMap
    p2: LinMap


@dataclass(frozen=True)
class IdempotentSystem:
    """A pair of idempotent endomorphisms of an ambient bialgebra, which
    is passed alongside wherever the system is read."""

    Pi1: LinMap
    Pi2: LinMap


class DecomposeResult(NamedTuple):
    bat: BAT
    iso: LinMap  # m_A o (i1 (x) i2), invertible onto A
    verdicts: Tuple[dict, ...]  # classify_morphism of i1, i2, p1, p2


def split_idempotent(Pi: LinMap, name: str) -> Tuple[LinMap, LinMap, Space]:
    """Exact rank factorisation Pi = inj o proj with proj o inj = id.

    inj's columns are the pivot columns of Pi, proj is the row-reduced
    coefficient matrix; for an idempotent these compose to the identity on
    the split image automatically, so a factorisation that fails either
    identity is the package's fault and raises ConsistencyError.
    """
    CheckReport([compare(name, Pi * Pi, Pi)]).require(
        "{} is not idempotent", InvalidSystemError)
    red = reduce_rows(Pi.by_row().values())
    pivots = sorted(red)
    B = Space(name, len(pivots))
    A = Pi.dom
    inj = LinMap((B,), A, {(u, k): v for k, p in enumerate(pivots)
                           for u, v in Pi.column(p).items()})
    proj = LinMap(A, (B,), {(k, v): x for k, p in enumerate(pivots)
                            for v, x in {p: ONE, **red[p]}.items()})
    CheckReport([compare("proj o inj", proj * inj, LinMap.identity((B,))),
                 compare("inj o proj", inj * proj, Pi)]).require(
        f"{name} does not split exactly: {{}} fails", ConsistencyError)
    return inj, proj, B


def decompose(A: Structure, sys: Union[ProjectionSystem, IdempotentSystem],
              braiding=FLIP) -> DecomposeResult:
    """Recover an admissible tuple from a splitting of a bialgebra.

    Every stated precondition is verified: p_j o i_j = id, the morphism
    laws of i_j and p_j against the induced factor structures, and the
    mutual inverseness of m_A o (i1 (x) i2) and (p1 (x) p2) o delta_A.  An
    IdempotentSystem is split at once into i_j, p_j with i_j o p_j = Pi_j
    and checked by those same laws: Pi_j is stable under the product and
    fixes the unit iff i_j is an algebra morphism, is stable under the
    coproduct and keeps the counit iff p_j is a coalgebra morphism, and
    m_A o (Pi1 (x) Pi2) and (Pi1 (x) Pi2) o delta_A split Pi1 (x) Pi2 iff
    the two maps above are mutually inverse, because i1 (x) i2 is
    injective and p1 (x) p2 surjective.  The returned tuple's connecting
    maps are read off the transported product and coproduct; `verdicts`
    holds the full classify_morphism dicts of i1, i2, p1 and p2 against
    the factor structures, in that order.
    """
    check_axioms(A, "bialgebra", braiding).require("ambient fails {}")
    P = (A.space,)
    if isinstance(sys, IdempotentSystem):
        require_boundaries(("Pi1", sys.Pi1, P, P), ("Pi2", sys.Pi2, P, P))
        i1, p1, _ = split_idempotent(sys.Pi1, f"{A.space.name}[1]")
        i2, p2, _ = split_idempotent(sys.Pi2, f"{A.space.name}[2]")
        sys = ProjectionSystem(i1, i2, p1, p2)
    i1, i2, p1, p2 = sys.i1, sys.i2, sys.p1, sys.p2
    # each factor is the one space its injection starts from
    s1, s2 = i1.dom[:1], i2.dom[:1]
    if not (s1 and s2):
        raise ShapeError("an injection must start from a space, not k")
    require_boundaries(("i1", i1, s1, P), ("i2", i2, s2, P),
                       ("p1", p1, P, s1), ("p2", p2, P, s2))
    CheckReport([compare("p1 o i1", p1 * i1, LinMap.identity(s1)),
                 compare("p2 o i2", p2 * i2, LinMap.identity(s2))]).require(
        "{} is not the identity", InvalidSystemError)

    # the factors are restricted through i_j and p_j, and the connecting
    # maps are A's product and coproduct transported through phi and
    # phi_inv
    b1, b2 = restrict(A, i1, p1), restrict(A, i2, p2)
    phi = A.m * (i1 @ i2)
    phi_inv = (p1 @ p2) * A.delta
    id1, id2 = b1.id_map(), b2.id_map()
    phi21 = phi_inv * A.m * (phi @ phi) * (b1.eta @ id2 @ id1 @ b2.eta)
    phi12 = ((b1.eps @ id2 @ id1 @ b2.eps) * (phi_inv @ phi_inv) * A.delta
             * phi)
    bat = BAT(b1, b2, phi12, phi21, braiding)
    verdicts = []
    for tag, f, src, dst, kind in (("i1", i1, b1, A, "an algebra"),
                                   ("i2", i2, b2, A, "an algebra"),
                                   ("p1", p1, A, b1, "a coalgebra"),
                                   ("p2", p2, A, b2, "a coalgebra")):
        alg, coa = morphism_reports(f, src, dst, tag)
        verdicts.append({"is_algebra_morphism": alg.ok,
                         "is_coalgebra_morphism": coa.ok})
        (alg if tag[0] == "i" else coa).require(
            f"{tag} is not {kind} morphism: {{}} fails", InvalidSystemError)

    CheckReport([compare("iso-left-inverse", phi_inv * phi,
                         LinMap.identity(s1 + s2)),
                 compare("iso-right-inverse", phi * phi_inv,
                         LinMap.identity(P))]).require(
        "m_A o (i1 (x) i2) and (p1 (x) p2) o delta_A are not mutually "
        "inverse: {} fails", NotASplittingError)
    return DecomposeResult(bat, phi, tuple(verdicts))


def _transported_datum(A: Structure, res: DecomposeResult) -> HopfDatum:
    """The datum of res.bat, certified by transport.

    decompose's verified laws (A's, i_j algebra maps, p_j coalgebra maps,
    phi = m_A o (i1 (x) i2) invertible) imply the factors' counit
    normalisation and phi's morphism laws from the cross product X onto A:
    X is A carried along phi, and a failure of those six entries is the
    package's fault (ConsistencyError).  Off the flip, where not every map
    commutes with the braiding, phi must (phi-braiding), else the splitting
    is not one of the braided category (InvalidSystemError).
    """
    t = res.bat
    X = cross_structure(t.b1, t.b2, t.phi12, t.phi21)
    phi = rebind(res.iso, (X.space,), (A.space,), "phi")
    reports = (_counit_report(t), *morphism_reports(phi, X, A, "phi"))
    cert = CheckReport(e for rep in reports for e in rep.entries)
    cert.require("the transport certificate fails {}", ConsistencyError)
    if t.braiding != FLIP:
        psi_a = t.braiding.braiding(A.space, A.space)
        lhs = (phi @ phi) * _product_braiding(t, X)
        rhs = psi_a * (phi @ phi)
        cert = CheckReport(cert.entries + (compare("phi-braiding", lhs, rhs),))
        cert.require("phi does not commute with the braiding: {} fails",
                     InvalidSystemError)
    return _read_datum(t)


def verify_trivalent_equivalences(A: Structure, sys: ProjectionSystem,
                                  braiding=FLIP) -> CheckReport:
    """Cross-check the three faces of trivalence on one splitting.

    Verdicts reported: the induced datum has a trivial interaction map;
    one of i1, i2, p1, p2 is both an algebra and a coalgebra morphism; one
    of the idempotents i_j o p_j is an algebra or a coalgebra morphism.
    All three must agree, and the agreement is the final entry.  The datum
    is read off the cross product of decompose's tuple, certified by
    transport (_transported_datum).
    """
    res = decompose(A, sys, braiding)
    v1 = "0" in classify(_transported_datum(A, res))["pattern"]
    v3 = any(c["is_algebra_morphism"] and c["is_coalgebra_morphism"]
             for c in res.verdicts)
    idempotents = [classify_morphism(i * p, A, A)
                   for i, p in ((sys.i1, sys.p1), (sys.i2, sys.p2))]
    v4 = any(c["is_algebra_morphism"] or c["is_coalgebra_morphism"]
             for c in idempotents)
    return CheckReport([
        CheckEntry("datum-trivalent", v1),
        CheckEntry("split-map-both-morphism", v3),
        CheckEntry("idempotent-morphism", v4),
        CheckEntry("verdicts-agree", v1 == v3 and v3 == v4),
    ])
