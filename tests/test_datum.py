import dataclasses
import random
from fractions import Fraction

import pytest

from crossbial.datum import (
    _corner_complement,
    _family,
    build_bialgebra,
    build_phi_superoperator,
    check_hopf_datum,
    classify,
    datum_from_json,
    datum_to_json,
    induced_structures,
    phi_apply,
    recursion_order,
    sop_compose,
    trivalence,
    trivial_datum,
)
from crossbial.linmaps import LinMap, ShapeError, Space, UNIT
from crossbial.structures import (
    PreconditionError,
    Structure,
    check_axioms,
    tensor_structure,
    yd_provider,
    yd_provider_left,
)
from crossbial.zoo import (OreParams, RadfordParams, ore_finite, radford,
                           sweedler_crossed_modules)

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# inline builders
# ---------------------------------------------------------------------------

def unit_hopf(name="k"):
    """The ground field as a one-dimensional Hopf bundle."""
    K = Space(name, 1)
    one = {(0, 0): ONE}
    return Structure(K, LinMap((K, K), (K,), one), LinMap(UNIT, (K,), one),
                     LinMap((K,), (K, K), one), LinMap((K,), UNIT, one),
                     LinMap((K,), (K,), one))


def group_hopf(n):
    """Group algebra of the cyclic group on n elements."""
    B = Space(f"kC{n}", n)
    m = LinMap((B, B), (B,), {((a + b) % n, a * n + b): ONE
                              for a in range(n) for b in range(n)})
    eta = LinMap(UNIT, (B,), {(0, 0): ONE})
    delta = LinMap((B,), (B, B), {(a * n + a, a): ONE for a in range(n)})
    eps = LinMap((B,), UNIT, {(0, a): ONE for a in range(n)})
    S = LinMap((B,), (B,), {((-a) % n, a): ONE for a in range(n)})
    return Structure(B, m, eta, delta, eps, S)


def radford_datum():
    return radford(RadfordParams(2, 1, 2, 1))["datum"]


def ore_datum():
    return ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))["datum"]


def random_endo(quad, rng, density=0.25):
    """Sparse endomorphism of the 4-fold product with small exact entries."""
    dims = 1
    for s in quad:
        dims *= s.dim
    entries = {}
    for r in range(dims):
        for c in range(dims):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 3))
    return LinMap(quad, quad, entries)


def vec(f):
    """f vectorised row-major, as the one column of a column dict."""
    return {0: {r * f.ncols + c: v for (r, c), v in f.entries.items()}}


# ---------------------------------------------------------------------------
# datum axiom checking
# ---------------------------------------------------------------------------

def test_trivial_datum_passes_every_axiom():
    d = trivial_datum(group_hopf(2), group_hopf(3))
    rep = check_hopf_datum(d)
    assert rep.ok, rep.failed()
    assert len(rep.entries) == 41
    names = [e.axiom for e in rep.entries]
    assert names[0] == "b1-unit-counit"
    assert names[-1] == "comodule-algebra-2"
    assert "module-comodule" in names


def test_catalogue_datums_pass():
    for d in (radford_datum(), ore_datum()):
        rep = check_hopf_datum(d)
        assert rep.ok, rep.failed()


def test_flipping_group_action_breaks_only_the_compatibility():
    # Sending g |> x from -x to +x turns the action into the trivial one,
    # which still satisfies every module law on its own; what breaks is the
    # compatibility between multiplication and the left coaction.
    d = radford_datum()
    ent = dict(d.act_l.entries)
    assert ent[(1, 3)] == -ONE
    ent[(1, 3)] = ONE
    bad = dataclasses.replace(d, act_l=LinMap(d.act_l.dom, d.act_l.cod, ent))
    rep = check_hopf_datum(bad)
    assert rep.failed() == ["alg-coalg-1"]
    w = rep.entry("alg-coalg-1").witness
    assert (w.lhs, w.rhs) == (Fraction(0), Fraction(2))


def test_breaking_the_unit_law_is_reported_with_a_witness():
    d = radford_datum()
    ent = dict(d.act_l.entries)
    ent[(1, 1)] = -ONE          # 1 |> x becomes -x
    bad = dataclasses.replace(d, act_l=LinMap(d.act_l.dom, d.act_l.cod, ent))
    rep = check_hopf_datum(bad)
    assert set(rep.failed()) == {"act-l-unit", "act-l-associativity",
                                 "alg-coalg-1"}
    w = rep.entry("act-l-unit").witness
    assert w.out_index == (1,) and w.in_index == (1,)
    assert (w.lhs, w.rhs) == (-ONE, ONE)


def test_induced_structures_refuse_a_broken_datum():
    d = radford_datum()
    ent = dict(d.act_l.entries)
    ent[(1, 1)] = -ONE
    bad = dataclasses.replace(d, act_l=LinMap(d.act_l.dom, d.act_l.cod, ent))
    with pytest.raises(PreconditionError) as exc:
        induced_structures(bad)
    assert exc.value.report is not None
    assert "act-l-unit" in exc.value.report.failed()


# ---------------------------------------------------------------------------
# the induced product
# ---------------------------------------------------------------------------

def test_build_bialgebra_on_the_radford_datum():
    st = build_bialgebra(radford_datum())
    assert st.dim == 4
    rep = check_axioms(st, "bialgebra")
    assert rep.ok, rep.failed()


def test_product_of_trivial_datum_is_the_plain_tensor_product():
    b1, b2 = group_hopf(2), group_hopf(3)
    st = build_bialgebra(trivial_datum(b1, b2))
    plain = tensor_structure(b1, b2)
    assert st.m.entries == plain.m.entries
    assert st.delta.entries == plain.delta.entries


# ---------------------------------------------------------------------------
# the recursion operator
# ---------------------------------------------------------------------------

def test_product_maps_are_fixed_points():
    # The induced multiplication-then-comultiplication, and the doubled
    # multiplication against the doubled comultiplication, are both fixed
    # by the recursion operator on every catalogue datum.
    for d in (radford_datum(), ore_datum()):
        ind = induced_structures(d)
        f1 = ind.delta_B * ind.m_B
        assert phi_apply(d, f1) == f1
        s1, s2 = d.b1.space, d.b2.space
        id12 = d.b1.id_map() @ d.b2.id_map()
        psi4 = d.braiding.braiding_list((s1, s2), (s1, s2))
        f2 = ((ind.m_B @ ind.m_B) * (id12 @ psi4 @ id12)
              * (ind.delta_B @ ind.delta_B))
        assert phi_apply(d, f2) == f2


def test_superoperator_agrees_with_the_layered_pipeline():
    # ore_datum's act_r and coact_r are nontrivial, radford_datum's are not
    for d in (radford_datum(), ore_datum()):
        sop = build_phi_superoperator(d)
        rng = random.Random(7)
        for _ in range(5):
            f = random_endo(d.quad, rng)
            assert sop_compose(sop.phi, vec(f)) == vec(phi_apply(d, f))


def test_corner_conjugation_identity():
    # Conjugating by the corner projector commutes with one application of
    # the recursion operator: pi o Phi(f) o pi == pi o f o pi.
    d = ore_datum()
    pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
          @ d.b2.unit_counit())
    rng = random.Random(11)
    for _ in range(6):
        f = random_endo(d.quad, rng)
        assert pi * phi_apply(d, f) * pi == pi * f * pi
        assert (sop_compose(_corner_complement(d), vec(f))
                == vec(f - pi * f * pi))


def test_recursion_orders_of_small_datums():
    k = unit_hopf()
    assert recursion_order(trivial_datum(k, k), 4) == {"order": 0}
    assert recursion_order(trivial_datum(group_hopf(2), group_hopf(2)),
                           4) == {"order": 1}
    assert recursion_order(radford_datum(), 4) == {"order": 1}
    assert recursion_order(ore_datum(), 4) == {"order": 1}


def test_recursion_operator_stabilises_at_the_order():
    for d in (radford_datum(), ore_datum()):
        sop = build_phi_superoperator(d)
        assert sop_compose(sop.phi, sop.phi) == sop.phi


def test_order_search_reports_the_cap():
    d = trivial_datum(group_hopf(2), group_hopf(2))
    assert recursion_order(d, 0) == {"not_recursive_up_to": 0}


# ---------------------------------------------------------------------------
# trivalence and classification
# ---------------------------------------------------------------------------

def test_radford_datum_is_trivalent():
    tri = trivalence(radford_datum())
    assert tri["pattern"].string == "1010"
    assert tri["trivalent"] is True
    assert sorted(tri["both_morphisms"]) == ["inj2", "proj2"]
    assert tri["consistent"] is True


def test_ore_datum_is_trivalent_on_the_other_side():
    tri = trivalence(ore_datum())
    assert tri["pattern"].string == "0101"
    assert sorted(tri["both_morphisms"]) == ["inj1", "proj1"]
    assert tri["consistent"] is True


def test_classification_families():
    assert classify(trivial_datum(group_hopf(2), group_hopf(3)))["family"] \
        == "tensor-product"
    assert classify(radford_datum())["family"] == "biproduct"
    assert classify(ore_datum())["family"] == "biproduct"
    assert _family("0011") == "double-cross"
    assert _family("1100") == "double-cross"
    assert _family("1001") == "bicross"
    assert _family("0110") == "bicross"
    assert _family("1111") == "non-trivalent"
    assert _family("0100") == "biproduct"


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_datum_json_roundtrip():
    # one datum per braiding backend; the Yetter-Drinfeld providers have no
    # __eq__, so their type, host and registered maps are compared
    inp = sweedler_crossed_modules()
    right = yd_provider(inp.H, [(inp.B.space, inp.b_act, inp.b_coact)])
    left = yd_provider_left(inp.H, [(inp.C.space, inp.c_act, inp.c_coact)])
    cases = [(radford_datum(), "flip"),
             (trivial_datum(group_hopf(2), group_hopf(3)), "flip"),
             (trivial_datum(inp.B, inp.C, right), "yetter-drinfeld"),
             (trivial_datum(inp.B, inp.C, left), "left-yetter-drinfeld")]
    for d, kind in cases:
        obj = datum_to_json(d)
        back = datum_from_json(obj)
        if kind == "flip":
            assert obj["braiding"] == {"kind": "flip"}
            assert back == d
            continue
        assert obj["braiding"]["kind"] == kind
        assert type(back.braiding) is type(d.braiding)
        assert dataclasses.replace(back, braiding=d.braiding) == d
        assert back.braiding.host == d.braiding.host
        assert back.braiding._reg == d.braiding._reg


def test_datum_json_refuses_an_unknown_braiding():
    class Unknown:
        """a provider with no JSON encoding"""

    d = dataclasses.replace(radford_datum(), braiding=Unknown())
    with pytest.raises(ShapeError, match="no JSON encoding"):
        datum_to_json(d)


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.update(braiding="flip"), "braiding 'flip' is not"),
    (lambda obj: obj["spaces"][0].update(dim="two"), "dim 'two', not an"),
    (lambda obj: obj["spaces"][0].update(dim=2.5), "dim 2.5, not an"),
    (lambda obj: obj["spaces"][0].update(dim="2"), "dim '2', not an"),
    (lambda obj: obj["spaces"][0].update(dim=True), "dim True, not an"),
])
def test_datum_json_malformed_fields_are_shape_errors(edit, message):
    obj = datum_to_json(radford_datum())
    edit(obj)
    with pytest.raises(ShapeError, match=message):
        datum_from_json(obj)


@pytest.mark.parametrize("dim", [0, -1])
def test_datum_json_refuses_a_non_positive_dim(dim):
    obj = datum_to_json(radford_datum())
    obj["spaces"][0]["dim"] = dim
    with pytest.raises(ShapeError, match=f"dim {dim}, not an integer >= 1"):
        datum_from_json(obj)
