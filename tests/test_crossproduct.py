import dataclasses
from fractions import Fraction

import pytest

from crossbial import crossproduct
from crossbial.crossproduct import (
    BAT,
    IdempotentSystem,
    InvalidSystemError,
    NotABATError,
    NotASplittingError,
    ProjectionSystem,
    bat_to_hopf_datum,
    build_bialgebra,
    build_cross_product,
    decompose,
    split_idempotent,
    verify_trivalent_equivalences,
)
from crossbial.datum import (ConsistencyError, check_hopf_datum, trivalence,
                             trivial_datum)
from crossbial.linmaps import (LinMap, ShapeError, Space, VectFlip,
                               run_pipeline)
from crossbial.structures import (check_axioms, cross_structure, rebind,
                                  tensor_structure, yd_provider)
from crossbial.zoo import (OreParams, RadfordParams, group_algebra,
                           ore_finite, radford)
from tests.test_acceptance import braided_taft_pairing
from tests.test_datum import group_hopf, unit_hopf
from tests.test_linmaps import doubled, invert

ONE = Fraction(1)


def flip_tuple(b1, b2):
    """The admissible tuple whose connecting maps are plain flips."""
    bp = VectFlip()
    return BAT(b1, b2, bp.braiding(b1.space, b2.space),
               bp.braiding(b2.space, b1.space))


def radford_parts():
    out = radford(RadfordParams(2, 1, 2, 1))
    return out["H"], out["system"], out["datum"]


# ---------------------------------------------------------------------------
# building products from tuples
# ---------------------------------------------------------------------------

def test_flip_tuple_gives_the_plain_tensor_product():
    b1, b2 = group_hopf(2), group_hopf(3)
    prod = build_cross_product(flip_tuple(b1, b2))
    assert prod.dim == 6
    plain = tensor_structure(b1, b2)
    assert prod.m.entries == plain.m.entries
    assert prod.delta.entries == plain.delta.entries


def test_broken_connecting_map_is_rejected_with_the_first_axiom():
    b1, b2 = group_hopf(2), group_hopf(3)
    t = flip_tuple(b1, b2)
    neg = LinMap(t.phi21.dom, t.phi21.cod,
                 {k: -v for k, v in t.phi21.entries.items()})
    with pytest.raises(NotABATError) as exc:
        build_cross_product(BAT(b1, b2, t.phi12, neg))
    assert "left-unit" in str(exc.value)
    assert exc.value.report is not None
    assert exc.value.report.failed() == ["left-unit", "right-unit",
                                         "mult-comult", "counit-mult"]


def test_a_factor_whose_counit_does_not_undo_its_unit_is_refused():
    b1, b2 = group_hopf(2), group_hopf(3)
    t = flip_tuple(b1, b2)
    b1 = dataclasses.replace(b1, eta=doubled(b1.eta))
    with pytest.raises(NotABATError, match="^B1 is not counit-normalised$"):
        build_cross_product(BAT(b1, b2, t.phi12, t.phi21))


def test_braided_q_lines_with_their_braidings_are_not_a_bat():
    # Over the Yetter-Drinfeld braiding the mixed braiding of the two
    # q-lines does not square to the identity, so the product checked with
    # the braiding of the fused product space fails exactly at mult-comult.
    pairing, prov = braided_taft_pairing()
    T1, T2 = pairing.H, pairing.A
    t = BAT(T1, T2, prov.braiding(T1.space, T2.space),
            prov.braiding(T2.space, T1.space), prov)
    with pytest.raises(NotABATError) as exc:
        build_cross_product(t)
    rep = exc.value.report
    assert rep.failed() == ["mult-comult"]
    wit = rep.entry("mult-comult").witness
    assert (wit.out_index, wit.in_index) == ((1, 3), (1, 3))


def test_a_braided_datum_builds_a_bialgebra_under_its_braiding():
    # the q-line T and a point K on which kC3 acts and coacts trivially;
    # the product braids as T (x) K does, and is no bialgebra over the flip
    pairing, qline = braided_taft_pairing()
    T, host, K = pairing.H, group_algebra(3), unit_hopf("K")
    k = K.id_map()
    prov = yd_provider(host, [(T.space, *qline._reg[T.space]),
                              (K.space, k @ host.eps, k @ host.eta)])
    d = trivial_datum(T, K, prov)
    rep = check_hopf_datum(d)
    assert rep.ok and len(rep.entries) == 41
    prod = build_bialgebra(d)
    s12, P2 = (T.space, K.space), (prod.space, prod.space)
    psi = rebind(prov.braiding_list(s12, s12), P2, P2)
    assert check_axioms(prod, "bialgebra", psi=psi).ok
    assert check_axioms(prod, "bialgebra").failed() == ["mult-comult"]


def test_kernel_mult_comult_matches_the_eager_composite():
    # (m (x) m)(id (x) Psi (x) id)(delta (x) delta) through the strand
    # kernel against the identity-padded tensors it replaced, entry by
    # entry and scalar type by scalar type
    H = radford(RadfordParams(3, 1, 3, 1))["H"]
    pairing, prov = braided_taft_pairing()
    T1, T2 = pairing.H, pairing.A
    t = BAT(T1, T2, prov.braiding(T1.space, T2.space),
            prov.braiding(T2.space, T1.space), prov)
    prod = cross_structure(T1, T2, t.phi12, t.phi21)
    # the product braids with itself as T1 (x) T2 does with T1 (x) T2
    s12, P2 = (T1.space, T2.space), (prod.space, prod.space)
    cases = [(H, VectFlip().braiding(H.space, H.space)),
             (T1, prov.braiding(T1.space, T1.space)),
             (T2, prov.braiding(T2.space, T2.space)),
             (prod, rebind(prov.braiding_list(s12, s12), P2, P2))]
    for s, psi in cases:
        i = s.id_map()
        eager = (s.m @ s.m) * (i @ psi @ i) * (s.delta @ s.delta)
        kernel = run_pipeline([[s.delta, s.delta], [i, psi, i], [s.m, s.m]])
        assert eager.entries
        assert sorted((k, type(v), v) for k, v in kernel.entries.items()) \
            == sorted((k, type(v), v) for k, v in eager.entries.items())


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_radford_splitting_recovers_the_datum():
    H, system, datum = radford_parts()
    res = decompose(H, system)
    assert bat_to_hopf_datum(res.bat) == datum
    assert res.iso == H.m * (system.i1 @ system.i2)


def test_ore_splitting_recovers_the_datum():
    out = ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))
    res = decompose(out["H"], out["system"])
    assert bat_to_hopf_datum(res.bat) == out["datum"]


def test_idempotent_route_matches_the_projection_route():
    # Feeding i_j o p_j instead of the split maps must land on the same
    # decomposition up to the naming of the split images.
    H, system, _ = radford_parts()
    sys2 = IdempotentSystem(system.i1 * system.p1, system.i2 * system.p2)
    res = decompose(H, sys2)
    assert (res.bat.b1.dim, res.bat.b2.dim) == (2, 2)
    assert trivalence(bat_to_hopf_datum(res.bat))["pattern"] == "1010"
    prod = build_cross_product(res.bat)
    assert prod.dim == 4


# Idempotents S diag(d) S^-1 on Radford(2,1,2,1), S from a seeded search
# over {-1, 0, 1}^(4x4): one pair per refusal of decompose, each case named
# by the law of Pi1 that the refusal reads, and one valid pair.  Pi1 breaks
# that law and holds each one before it (product stability, unit,
# coproduct stability, counit); in the coproduct-stability and counit cases
# Pi2 is the valid pair's, split by an algebra morphism, so that the
# refusal reaches p1's coalgebra laws.
_S = {
    "a": ((-1, -1, 1, 0), (0, 0, -1, 0), (1, 0, -1, -1), (0, 0, 1, 1)),
    "b": ((1, -1, 0, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, -1, 1)),
    "c": ((-1, -1, -1, 0), (-1, 1, 1, 0), (0, 1, -1, 1), (-1, 1, 1, -1)),
    "d": ((0, 1, -1, 1), (-1, -1, -1, -1), (-1, 0, -1, -1), (1, 1, 0, 1)),
    "e": ((-1, 1, 0, 1), (-1, 1, 1, 0), (0, 1, -1, 0), (0, -1, -1, 1)),
    "f": ((0, -1, -1, 1), (1, 0, 1, 1), (1, 0, 1, 0), (-1, 1, -1, 1)),
    "g": ((0, 1, -1, -1), (1, -1, -1, 1), (1, -1, 0, 1), (-1, 1, -1, 1)),
    "k": ((1, 1, 0, 0), (1, -1, 0, 1), (-1, 1, 0, 0), (0, 0, 1, 1)),
}
_ALGEBRA = "i1 is not an algebra morphism: "
_COALGEBRA = "p1 is not a coalgebra morphism: "
_IDEMPOTENT_CASES = {
    "valid": (("a", (1, 1, 0, 0)), ("b", (1, 1, 0, 0)), None, None),
    "not-idempotent": (("a", (1, 2, 0, 0)), ("b", (1, 1, 0, 0)),
                       InvalidSystemError,
                       "Rad(2,1,2,1)[1] is not idempotent"),
    "product-stability": (("c", (1, 1, 0, 0)), ("d", (1, 1, 0, 0)),
                          InvalidSystemError,
                          _ALGEBRA + "i1-multiplicative fails"),
    "unit": (("e", (1, 1, 0, 0)), ("f", (1, 1, 0, 0)), InvalidSystemError,
             _ALGEBRA + "i1-unital fails"),
    "coproduct-stability": (("g", (1, 1, 0, 0)), ("b", (1, 1, 0, 0)),
                            InvalidSystemError,
                            _COALGEBRA + "p1-comultiplicative fails"),
    "counit": (("k", (1, 1, 0, 0)), ("b", (1, 1, 0, 0)), InvalidSystemError,
               _COALGEBRA + "p1-counital fails"),
    "splitting": (("a", (1, 1, 0, 0)), ("a", (1, 1, 0, 0)),
                  NotASplittingError,
                  "m_A o (i1 (x) i2) and (p1 (x) p2) o delta_A are not "
                  "mutually inverse: iso-left-inverse fails"),
}


def _conjugated(V, name, diag):
    S = LinMap.from_rows((V,), (V,), _S[name])
    D = LinMap((V,), (V,), {(i, i): ONE * x for i, x in enumerate(diag) if x})
    return S * D * invert(S)


@pytest.mark.parametrize("case", sorted(_IDEMPOTENT_CASES))
def test_idempotent_systems_on_radford(case):
    H, _, _ = radford_parts()
    first, second, refusal, text = _IDEMPOTENT_CASES[case]
    sys = IdempotentSystem(_conjugated(H.space, *first),
                           _conjugated(H.space, *second))
    if refusal is None:
        res = decompose(H, sys)
        assert (res.bat.b1.dim, res.bat.b2.dim) == (2, 2)
        build_cross_product(res.bat)
    else:
        with pytest.raises(refusal) as exc:
            decompose(H, sys)
        assert str(exc.value) == text
        first_failed = exc.value.report.entry(exc.value.report.failed()[0])
        assert first_failed.axiom in text
        assert first_failed.witness is not None


def test_rank_one_idempotents_do_not_split_the_product():
    A = tensor_structure(group_hopf(2), group_hopf(3))
    Pi = A.eta * A.eps
    with pytest.raises(NotASplittingError):
        decompose(A, IdempotentSystem(Pi, Pi))


def test_scaled_projection_is_rejected():
    H, system, _ = radford_parts()
    doubled = LinMap(system.p1.dom, system.p1.cod,
                     {k: 2 * v for k, v in system.p1.entries.items()})
    bad = ProjectionSystem(system.i1, system.i2, doubled, system.p2)
    with pytest.raises(InvalidSystemError) as exc:
        decompose(H, bad)
    assert "p1 o i1" in str(exc.value)


def test_a_scaled_second_projection_is_rejected():
    H, system, _ = radford_parts()
    bad = ProjectionSystem(system.i1, system.i2, system.p1,
                           doubled(system.p2))
    with pytest.raises(InvalidSystemError,
                       match="^p2 o i2 is not the identity$"):
        decompose(H, bad)


def test_an_injection_from_k_is_refused():
    H, system, _ = radford_parts()
    bad = ProjectionSystem(H.eta, system.i2, system.p1, system.p2)
    with pytest.raises(ShapeError, match="^an injection must start from a "
                       "space, not k$"):
        decompose(H, bad)


def test_split_idempotent_is_an_exact_rank_factorisation():
    V = Space("V", 3)
    Pi = LinMap((V,), (V,), {(0, 0): ONE, (1, 1): ONE})
    inj, proj, B = split_idempotent(Pi, "img")
    assert B.dim == 2
    assert proj * inj == LinMap.identity((B,))
    assert inj * proj == Pi
    with pytest.raises(InvalidSystemError):
        split_idempotent(LinMap((V,), (V,), {(0, 1): ONE}), "bad")


@pytest.mark.parametrize("bad, failed", [
    ({0: {2: ONE}, 1: {}}, "inj o proj"),
    ({0: {}, 1: {}, 2: {}}, "proj o inj")])
def test_a_split_that_fails_is_the_packages_fault(monkeypatch, bad, failed):
    # the factorisation of an idempotent splits it whatever the idempotent,
    # so a planted wrong elimination is a ConsistencyError, not bad input
    V = Space("V", 3)
    Pi = LinMap((V,), (V,), {(0, 0): ONE, (1, 1): ONE})
    monkeypatch.setattr(crossproduct, "reduce_rows", lambda rows: bad)
    with pytest.raises(ConsistencyError, match=f"^img does not split "
                       f"exactly: {failed} fails$") as exc:
        split_idempotent(Pi, "img")
    assert exc.value.report.failed()[0] == failed
    assert exc.value.report.entry(failed).witness is not None


def test_split_idempotent_of_a_non_diagonal_idempotent_is_pinned():
    # T diag(1, 1, 0) T^-1 for T = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]; the
    # factors are those the dense elimination gave before the sparse kernel
    V = Space("V", 3)
    F = Fraction
    Pi = LinMap.from_rows((V,), (V,), [[1, 0, 0], [F(1, 3), F(1, 3), F(-1, 3)],
                                       [F(1, 3), F(-2, 3), F(2, 3)]])
    inj, proj, B = split_idempotent(Pi, "img")
    assert B == Space("img", 2)
    assert inj == LinMap.from_rows((B,), (V,), [[1, 0], [F(1, 3), F(1, 3)],
                                                [F(1, 3), F(-2, 3)]])
    assert proj == LinMap.from_rows((V,), (B,), [[1, 0, 0], [0, 1, -1]])


# ---------------------------------------------------------------------------
# the trivalence cross-check
# ---------------------------------------------------------------------------

def test_trivalent_equivalences_agree_on_radford():
    H, system, _ = radford_parts()
    rep = verify_trivalent_equivalences(H, system)
    assert [e.axiom for e in rep.entries] == [
        "datum-trivalent", "split-map-both-morphism",
        "idempotent-morphism", "verdicts-agree"]
    assert rep.ok, rep.failed()


def test_trivalent_equivalences_agree_on_a_tensor_splitting():
    b1, b2 = group_hopf(2), group_hopf(3)
    A = build_cross_product(flip_tuple(b1, b2))
    id1, id2 = b1.id_map(), b2.id_map()
    i1 = LinMap((b1.space,), (A.space,), (id1 @ b2.eta).entries)
    i2 = LinMap((b2.space,), (A.space,), (b1.eta @ id2).entries)
    p1 = LinMap((A.space,), (b1.space,), (id1 @ b2.eps).entries)
    p2 = LinMap((A.space,), (b2.space,), (b1.eps @ id2).entries)
    rep = verify_trivalent_equivalences(A, ProjectionSystem(i1, i2, p1, p2))
    assert rep.ok, rep.failed()
