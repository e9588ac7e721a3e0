import dataclasses
import json
import operator
import random
import time
from fractions import Fraction

import pytest

from crossbial import datum, linmaps
from crossbial.crossproduct import build_bialgebra
from crossbial.datum import (
    HopfDatum,
    _family,
    _phi_layers,
    build_phi_superoperator,
    check_hopf_datum,
    classify,
    induced_structures,
    phi_apply,
    recursion_order,
    sop_compose,
    trivalence,
    trivial_datum,
)
from crossbial.cli import (Workspace, WorkspaceError, _datum_from_workspace,
                          load_workspace, main, save_workspace,
                          workspace_from_json, workspace_to_json)
from crossbial.linmaps import (LeftYetterDrinfeld, LinMap, ShapeError, Space,
                               UNIT, VectFlip, YetterDrinfeld, dim_of,
                               pipeline_as_linmap, run_pipeline)
from crossbial.scalars import root_of_unity, scalar_to_json
from crossbial.structures import (
    PreconditionError,
    Structure,
    check_axioms,
    convolution_inverse,
    cross_structure,
    tensor_structure,
    yd_provider,
    yd_provider_left,
)
from crossbial.twisting import DualPairing, matched_pair_from_pairing
from crossbial.zoo import (OreParams, RadfordParams, dual_group_algebra,
                           group_algebra, ore_finite, radford,
                           sweedler_crossed_modules)
from tests.test_scalars import scalar_kind

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


def transpose(f):
    return LinMap(f.cod, f.dom, {(c, r): v for (r, c), v in f.entries.items()})


def pipeline_columns(layers):
    """(c, image of basis vector c) for each basis vector of the first
    row's domain, pushed through the diagram one at a time; an image is a
    map out of k.  The one-column oracle of the blocked pushes."""
    dom = tuple(s for f in layers[0] for s in f.dom)
    for c in range(dim_of(dom)):
        yield c, run_pipeline([[LinMap(UNIT, dom, {(c, 0): ONE})]] + layers)


def phi_diagram(d, f):
    """Phi's whole 12-row diagram with f on the centre strands of row 5,
    as phi_apply pushed it before it evaluated f at the cut; kept as the
    oracle of phi_apply."""
    layers = _phi_layers(d)
    row = layers[5]
    assert row[3:7] == [d.b1.id_map(), d.b2.id_map(), d.b1.id_map(),
                        d.b2.id_map()]
    layers[5] = row[:3] + [f] + row[7:]
    return layers


def reprs(cols):
    """A column dict with each entry replaced by the repr of its value in
    the one type the scalar contract gives it: an integral rational, made
    as an int or left by Fraction arithmetic, reads as the int."""
    return {c: {r: repr(int(v) if scalar_kind(v) is int else v)
                for r, v in col.items()}
            for c, col in cols.items()}


def minus(f, g):
    out = dict(f.entries)
    for k, v in g.entries.items():
        out[k] = out.get(k, 0) - v
    return LinMap(f.dom, f.cod, out)


def corner_complement(d):
    """Id - P as a column dict, P the corner conjugation f -> pi o f o pi,
    built in full as an oracle of the order search.

    P's entry at row u*dV + v, column i*dV + j is pi[u, i] * pi[j, v], so
    P is the Kronecker product pi (x) pi^T on the vectorised space."""
    pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
          @ d.b2.unit_counit())
    return minus(LinMap.identity(d.quad * 2), pi @ transpose(pi)).by_col()


def oracle_remainders(phi, d, n_max):
    """Id - P, Phi o (Id - P), ..., Phi^n_max o (Id - P), as the order
    search first computed them, up to the first empty one."""
    rems = [corner_complement(d)]
    while rems[-1] and len(rems) <= n_max:
        rems.append(sop_compose(phi, rems[-1]))
    return rems


def oracle_order(rems, n_max, dV):
    """The order verdict of the remainders at the cap n_max, with the
    first nonzero entry, by (column, row), of the last remainder."""
    for n, rem in enumerate(rems[:n_max + 1]):
        if not rem:
            return {"order": n}
    c, r = min((c, r) for c, col in rems[n_max].items() for r in col)
    return {"not_recursive_up_to": n_max,
            "witness": {"u": r // dV, "v": r % dV, "i": c // dV,
                        "j": c % dV,
                        "value": scalar_to_json(rems[n_max][c][r])}}


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


@pytest.mark.parametrize("slot, key, failed, law, in_index, out_index", [
    ("act_r", (1, 2),
     ["act-r-unit", "act-r-associativity", "act-r-counit", "alg-coalg-2",
      "module-algebra-2", "module-coalgebra-1", "comodule-algebra-2"],
     "act-r-associativity", (1, 0, 0), (1,)),
    ("coact_l", (3, 1),
     ["coact-l-counit", "coact-l-coassociativity", "alg-coalg-1"],
     "coact-l-coassociativity", (1,), (1, 1, 1)),
    ("coact_r", (2, 1),
     ["coact-r-counit", "coact-r-coassociativity", "counit-coact-r",
      "alg-coalg-2", "comodule-coalgebra-1", "comodule-coalgebra-2",
      "module-coalgebra-2"],
     "coact-r-coassociativity", (1,), (1, 0, 0))])
def test_breaking_a_slot_names_its_laws_with_witnesses(slot, key, failed,
                                                       law, in_index,
                                                       out_index):
    # negating one entry of a (co)action of radford_datum: the slot's
    # (co)unit law fails first, at the basis vector the entry moves
    d = radford_datum()
    f = getattr(d, slot)
    ent = dict(f.entries)
    ent[key] = -ent[key]
    rep = check_hopf_datum(
        dataclasses.replace(d, **{slot: LinMap(f.dom, f.cod, ent)}))
    assert rep.failed() == failed
    w = rep.entry(failed[0]).witness
    assert (w.out_index, w.in_index, w.lhs, w.rhs) == ((1,), (1,), -ONE, ONE)
    w = rep.entry(law).witness
    assert (w.out_index, w.in_index, w.lhs, w.rhs) == (out_index, in_index,
                                                       -ONE, ONE)


def doubled_unit_datum():
    """radford_datum with b1's unit doubled: b1 fails its own unit laws."""
    d = radford_datum()
    eta = d.b1.eta
    eta2 = LinMap(eta.dom, eta.cod, {k: 2 * v for k, v in eta.entries.items()})
    return dataclasses.replace(d, b1=dataclasses.replace(d.b1, eta=eta2))


FACTOR_LAWS = [f"{tag}-{law}" for tag in ("b1", "b2") for law in (
    "unit-counit", "associativity", "left-unit", "right-unit",
    "coassociativity", "left-counit", "right-counit")]
DOUBLED_UNIT_FAILS = ["b1-unit-counit", "b1-left-unit", "b1-right-unit"]


def test_a_factor_failing_its_own_laws_skips_the_dependent_checks(
        monkeypatch):
    # the full report of the datum has 41 entries; with a broken factor
    # only the 14 factor laws are checked, and no (co)action law is
    def never(*args, **kwargs):
        raise AssertionError("a (co)action law was checked")
    monkeypatch.setattr(datum, "_action_report", never)
    rep = check_hopf_datum(doubled_unit_datum())
    assert [e.axiom for e in rep.entries] == FACTOR_LAWS
    assert rep.failed() == DOUBLED_UNIT_FAILS
    w = rep.entry("b1-unit-counit").witness
    assert (w.out_index, w.in_index, w.lhs, w.rhs) == ((), (), 2, ONE)
    monkeypatch.undo()
    assert len(check_hopf_datum(radford_datum()).entries) == 41


def test_datum_check_on_a_broken_factor_exits_1_with_the_factor_laws(
        tmp_path, capsys):
    d = doubled_unit_datum()
    ws = Workspace().add_structure("b1", d.b1).add_structure("b2", d.b2)
    for k in ("act_l", "coact_l", "act_r", "coact_r"):
        ws.add_map(k, getattr(d, k))
    path = str(tmp_path / "bad.json")
    save_workspace(ws, path)
    code = main(["datum", "check", "--in", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)["checks"]["datum"]
    assert code == 1
    assert [e["axiom"] for e in report] == FACTOR_LAWS
    assert [e["axiom"] for e in report if not e["ok"]] == DOUBLED_UNIT_FAILS


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


def kc3_matched_pair_datum():
    """The action-only datum of k^C3 and kC3 that the evaluation pairing
    induces, as matched_pair_from_pairing checks it."""
    H, A = group_algebra(3), dual_group_algebra(3)
    form = LinMap((H.space, A.space), UNIT,
                  {(0, a * 3 + a): ONE for a in range(3)})
    mp = matched_pair_from_pairing(DualPairing(H, A, form))
    return HopfDatum(A, H, act_l=mp["rhd"], act_r=mp["lhd"])


def ore_c2xc2_datum():
    """The anticommuting C2 x C2 Ore tower's datum (x1 x2 = -x2 x1)."""
    return ore_finite(OreParams((2, 2), 2, ((1, 0), (0, 1)),
                                ((1, 1), (1, 1))))["datum"]


def same_map(f, g):
    """Equal strands, and entries equal in value, insertion order and
    scalar repr."""
    return ((f.dom, f.cod) == (g.dom, g.cod)
            and repr(list(f.entries.items())) == repr(list(g.entries.items())))


@pytest.mark.parametrize("build, given", [
    (radford_datum, ("act_l", "coact_l")), (ore_datum, ("act_r", "coact_r")),
    (kc3_matched_pair_datum, ("act_l", "act_r")), (radford_datum, ())],
    ids=["left-pair", "right-pair", "actions", "none"])
def test_an_omitted_pair_is_its_trivial_form(build, given):
    d = build()
    forms = datum._trivial_forms(d.b1, d.b2)
    maps = {k: getattr(d, k) for k in given}
    short = HopfDatum(d.b1, d.b2, braiding=d.braiding, **maps)
    full = HopfDatum(d.b1, d.b2, **{**forms, **maps}, braiding=d.braiding)
    assert short == full and repr(short) == repr(full)
    for slot in datum._SLOTS:
        assert same_map(getattr(short, slot), getattr(full, slot))
        if slot not in given:
            assert same_map(getattr(short, slot), forms[slot])


@pytest.mark.parametrize("build", [
    lambda: radford(RadfordParams(2, 1, 2, 1))["datum"],
    lambda: radford(RadfordParams(3, 1, 3, 1))["datum"],
    ore_c2xc2_datum, kc3_matched_pair_datum],
    ids=["radford-2121", "radford-3131", "ore-c2xc2", "kc3-matched-pair"])
def test_a_datum_product_is_the_cross_structure_of_its_mixed_maps(build):
    d = build()
    for name in (None, "P"):
        got = d.product(name)
        want = cross_structure(d.b1, d.b2, *datum._mixed_maps(d), name)
        assert got.space == want.space and got.S is want.S is None
        for f in ("m", "eta", "delta", "eps"):
            assert same_map(getattr(got, f), getattr(want, f)), f


@pytest.mark.parametrize("H, pattern", [
    (lambda: radford(RadfordParams(2, 1, 2, 1))["H"], "0011"),
    (lambda: group_algebra(4), "0000")], ids=["radford-2121", "kC4"])
def test_the_product_antipode_of_a_drinfeld_double(H, pattern):
    # A = dual(H) and H^op with the actions the evaluation pairing
    # induces: a double cross product, outside the biproduct family, whose
    # factors' antipodes are S_A and the inverse of S_H
    from tests.test_builders import evaluation_pairing_of_the_op_cop_dual
    from tests.test_linmaps import invert
    H = H()
    p = evaluation_pairing_of_the_op_cop_dual(H)
    mp = matched_pair_from_pairing(p)
    d = HopfDatum(p.A, mp["h_op"], act_l=mp["rhd"], act_r=mp["lhd"])
    assert classify(d)["pattern"] == pattern
    X = d.product(antipodes=(p.A.S, invert(H.S)))
    assert X.dim == 16
    rep = check_axioms(X, "hopf")
    assert rep.ok, rep.failed()
    assert X.S == convolution_inverse(X.id_map(), X, X)


def test_product_antipodes_on_the_wrong_strands_are_refused():
    d = radford_datum()
    S2 = group_algebra(2).S
    with pytest.raises(ShapeError, match="^S1 must map Taft2 -> Taft2") as exc:
        d.product(antipodes=(S2, S2))
    assert exc.value.slot == "S1"
    # without antipodes the product has no S, though B1 = k^C3 carries one
    d = kc3_matched_pair_datum()
    assert d.b1.S is not None and d.product().S is None


@pytest.mark.parametrize("slot, wrong", [("act_l", "coact_l"),
                                         ("coact_r", "act_r")])
def test_a_map_on_the_wrong_strands_next_to_an_omitted_pair_is_named(
        slot, wrong):
    d = radford_datum()
    bad = datum._trivial_forms(d.b1, d.b2)[wrong]
    with pytest.raises(ShapeError, match=f"^{slot} must map") as exc:
        HopfDatum(d.b1, d.b2, **{slot: bad})
    assert exc.value.slot == slot


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
        assert (sop_compose(corner_complement(d), vec(f))
                == vec(minus(f, pi * f * pi)))


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


def plain_sop_compose(a, b):
    """The column product with every product taken and every column
    pruned, kept as the oracle of sop_compose's shortcuts."""
    out = {}
    for c, bcol in b.items():
        acc = {}
        for r, w in bcol.items():
            for u, v in a.get(r, {}).items():
                cur = acc.get(u)
                acc[u] = v * w if cur is None else cur + v * w
        col = {u: x for u, x in acc.items() if x}
        if col:
            out[c] = col
    return out


def typed_columns(cols):
    """A column dict as its columns in order, each its (row, type, repr)
    entries in insertion order."""
    return [(c, [(u, type(x), repr(x)) for u, x in col.items()])
            for c, col in cols.items()]


def random_columns(rng, n, values, density=0.4):
    cols = {}
    for c in rng.sample(range(n), n // 2 + 1):
        col = {u: rng.choice(values) for u in rng.sample(range(n), n)
               if rng.random() < density}
        if col:
            cols[c] = col
    return cols


def test_sop_compose_is_the_plain_product_in_values_types_and_order():
    z = root_of_unity(4, 1)
    a = {0: {0: 1, 1: Fraction(1, 2), 2: z}, 1: {0: -1, 3: 2},
         2: {1: Fraction(-1, 2), 3: -2, 2: -z}, 3: {4: 3, 0: Fraction(1)}}
    b = {
        0: {0: 1},                         # one int-1 column, copied
        1: {0: 1, 1: 1},                   # int-1 sums, row 0 cancels
        2: {0: 1, 2: 1},                   # rows 1 and 2 cancel
        3: {1: 2, 0: 1, 3: Fraction(1)},   # int 1 after a product; F(1)
        4: {3: Fraction(1), 1: 1},         # Fraction(1) is multiplied
        5: {0: z, 2: z},                   # Cyclo multipliers, the same
        6: {5: 1, 0: -1},                  # a row a has no column for
        7: {0: 1, 2: 1, 3: -1, 1: 1},
    }
    got, want = sop_compose(a, b), plain_sop_compose(a, b)
    assert typed_columns(got) == typed_columns(want)
    assert got[1] == {1: Fraction(1, 2), 2: z, 3: 2}
    assert got[2] == {0: 1, 3: -2} and got[5] == {0: z, 3: -2 * z}
    assert type(got[4][4]) is Fraction and type(got[0][0]) is int
    # a column whose entries all cancel is dropped
    assert sop_compose(a, {9: {1: 1, 3: -1, 0: 1}}) == plain_sop_compose(
        a, {9: {1: 1, 3: -1, 0: 1}})
    assert sop_compose({0: {0: 1}, 1: {0: -1}}, {9: {0: 1, 1: 1}}) == {}
    rng = random.Random(59)
    values = [1, 1, 1, -1, 2, Fraction(1), Fraction(-1, 3), z, -z, z + 1]
    for _ in range(60):
        a = random_columns(rng, 6, values)
        b = random_columns(rng, 6, values)
        assert typed_columns(sop_compose(a, b)) == \
            typed_columns(plain_sop_compose(a, b))


def test_sop_compose_is_the_plain_product_on_phi():
    for d in (radford_datum(), ore_datum()):
        phi = build_phi_superoperator(d).phi
        comp = datum._corner_columns(d)
        for a, b in ((phi, comp), (phi, phi)):
            assert typed_columns(sop_compose(a, b)) == \
                typed_columns(plain_sop_compose(a, b))


def test_order_search_reports_the_cap():
    # Id - P maps e_0 e_0^T to e_0 e_0^T - pi e_0 e_0^T pi, whose first
    # nonzero entry is -1 at (0, 1): basis vector 1 of the quad is
    # 1 (x) 1 (x) 1 (x) g, which pi's row 0 also reads
    d = trivial_datum(group_hopf(2), group_hopf(2))
    assert recursion_order(d, 0) == {
        "not_recursive_up_to": 0,
        "witness": {"u": 0, "v": 1, "i": 0, "j": 0, "value": "-1/1"}}


@pytest.mark.parametrize("n_max", [-1, True, 2.0, "4", None])
def test_order_search_refuses_a_bad_cap_before_any_work(n_max, monkeypatch):
    def never(d):
        raise AssertionError("the superoperator was built")

    monkeypatch.setattr(datum, "build_phi_superoperator", never)
    with pytest.raises(ValueError):
        recursion_order(radford_datum(), n_max)


def test_order_of_the_doubled_kc4_is_found_quickly():
    # the superoperator has 65536 columns; pulling both halves back from
    # the quad took minutes, pushing the top only from the inner sides
    # the bottom reaches takes a fraction of a second
    d = trivial_datum(group_algebra(4), group_algebra(4))
    t0 = time.perf_counter()
    assert recursion_order(d, 4) == {"order": 1}
    assert time.perf_counter() - t0 < 5


# seeds whose remainders stay sparse enough to multiply in well under a
# second; every seed up to 15 reaches the cap of 4
PERTURBED_SEEDS = (2, 5, 6, 7)


def perturbed_radford_datum(seed):
    """Radford(2,1,2,1) with two random extra entries in each interaction
    map: no longer a datum, and its remainders never vanish."""
    d = radford_datum()
    rng = random.Random(seed)
    maps = {}
    for name in ("act_l", "coact_l", "act_r", "coact_r"):
        f = getattr(d, name)
        ent = dict(f.entries)
        free = [(r, c) for r in range(f.nrows) for c in range(f.ncols)
                if (r, c) not in ent]
        for key in rng.sample(free, 2):
            ent[key] = Fraction(rng.choice([-1, 1]))
        maps[name] = LinMap(f.dom, f.cod, ent)
    return dataclasses.replace(d, **maps)


def order_search_cases():
    from tests.test_acceptance import zoo_datums

    k2, k2_dual = group_algebra(2), dual_group_algebra(2)
    trivial = [(unit_hopf(), unit_hopf()), (k2, k2),
               (k2_dual, group_algebra(3)), (k2_dual, k2_dual)]
    return zoo_datums() + [trivial_datum(*pair) for pair in trivial]


def test_order_search_matches_the_id_minus_p_oracle(monkeypatch):
    inputs, phis = [], []

    def spy(a, b):
        phis.append(a)
        inputs.append(b)
        return sop_compose(a, b)

    monkeypatch.setattr(datum, "sop_compose", spy)
    perturbed = [perturbed_radford_datum(s) for s in PERTURBED_SEEDS]
    capped = []
    for d in order_search_cases() + perturbed:
        sop = build_phi_superoperator(d)
        want = oracle_remainders(sop.phi, d, 4)
        for n_max in (0, 1, 2, 4):
            inputs.clear()
            assert recursion_order(d, n_max) == oracle_order(
                want, n_max, dim_of(d.quad))
        # the build is tested on its own; each search multiplies by the
        # Phi that build kept with the datum
        assert all(a is sop.phi for a in phis)
        phis.clear()
        # an order verdict reads only whether a remainder is empty; the
        # search's later products take Phi^n o (Id - P) for n = 1, 2, 3
        got, same = inputs[1:], want[1:len(inputs)]
        assert got == same
        assert [reprs(r) for r in got] == [reprs(r) for r in same]
        capped.append("not_recursive_up_to" in oracle_order(
            want, 4, dim_of(d.quad)) and len(got) == 3 and all(got))
    # only the perturbed datums run to the cap, with nonzero remainders
    assert capped == [False] * (len(capped) - len(perturbed)) + [True] * len(
        perturbed)


def test_phi_is_built_once_per_datum_object(monkeypatch):
    builds = []
    build = datum._build_phi_superoperator

    def spy(d):
        builds.append(d)
        return build(d)

    monkeypatch.setattr(datum, "_build_phi_superoperator", spy)
    for d in (radford_datum(), ore_datum()):
        # a build, searches at three caps and a second build share one Phi
        builds.clear()
        sop = build_phi_superoperator(d)
        for n_max in (1, 2, 4):
            assert recursion_order(d, n_max) == {"order": 1}
        assert build_phi_superoperator(d) is sop
        assert len(builds) == 1 and builds[0] is d
        # the acceptance scenario's order: the search first, then the build
        fresh = dataclasses.replace(d)
        assert recursion_order(fresh, 4) == {"order": 1}
        assert build_phi_superoperator(fresh) is build_phi_superoperator(
            fresh)
        assert len(builds) == 2 and builds[1] is fresh
        # a copy starts with an empty memo and builds its own Phi
        assert build_phi_superoperator(fresh).phi == sop.phi
        assert build_phi_superoperator(fresh) is not sop


def test_a_search_to_the_cap_leaves_the_kept_phi_unchanged():
    # the first remainder shares Phi's columns off P's support, so a
    # search that mutated a remainder in place would change the kept Phi
    d = perturbed_radford_datum(0)
    phi = build_phi_superoperator(d).phi
    before = {c: dict(col) for c, col in phi.items()}
    res = recursion_order(d, 2)
    assert res["not_recursive_up_to"] == 2
    assert build_phi_superoperator(d).phi is phi
    assert phi == before
    assert reprs(phi) == reprs(before)


def test_order_search_builds_no_identity_on_the_doubled_quad(monkeypatch):
    d = radford_datum()
    dV = dim_of(d.quad)
    orig, dims = LinMap.identity, []

    def spy(spaces):
        f = orig(spaces)
        dims.append(f.ncols)
        return f

    monkeypatch.setattr(LinMap, "identity", staticmethod(spy))
    assert recursion_order(d, 4) == {"order": 1}
    assert dims and max(dims) < dV * dV


def test_a_zero_cap_is_answered_before_the_superoperator_is_built(
        monkeypatch):
    def never(d):
        raise AssertionError("the superoperator was built")

    monkeypatch.setattr(datum, "build_phi_superoperator", never)
    d = radford_datum()
    assert recursion_order(d, 0) == oracle_order([corner_complement(d)], 0,
                                                 dim_of(d.quad))
    k = unit_hopf()
    assert recursion_order(trivial_datum(k, k), 4) == {"order": 0}


def two_pullback_phi(d):
    """Phi as the first split build made it, kept as an oracle: the bottom
    half pushed forward and the whole top half pulled back from the quad,
    column by column, then joined over every spectator side."""
    dV = dim_of(d.quad)
    layers = _phi_layers(d)
    bottom, top = layers[:6], layers[6:]
    top_t = [[transpose(f) for f in layer] for layer in reversed(top)]
    R = dim_of(tuple(s for f in top[0] for s in f.dom)[8:])
    from_bot, from_top = {}, {}
    for half, joined in ((bottom, from_bot), (top_t, from_top)):
        for v, col in pipeline_columns(half):
            for (key, _), val in col.entries.items():
                a, rest = divmod(key, dV * R)
                i, c = divmod(rest, R)
                joined.setdefault((a, c), []).append((v, i, val))
    phi = {}
    for side, tops in from_top.items():
        for u, i, a in tops:
            for v, j, b in from_bot.get(side, ()):
                col = phi.setdefault(i * dV + j, {})
                col[u * dV + v] = col.get(u * dV + v, Fraction(0)) + a * b
    phi = {c: {r: x for r, x in col.items() if x} for c, col in phi.items()}
    return {c: col for c, col in phi.items() if col}


def on_space(f, old, new):
    """f with each of its strands on the space old moved to new."""
    def moved(spaces):
        return tuple(new if s == old else s for s in spaces)
    return LinMap(moved(f.dom), moved(f.cod), f.entries)


def sweedler_copies_datum():
    """The trivial datum of Sweedler's SwB and a copy of it on SwB2, under
    the Yetter-Drinfeld braiding over kC2 that registers both."""
    inp = sweedler_crossed_modules()
    B = inp.B
    sb, sc = B.space, Space("SwB2", B.dim)
    copy = Structure(sc, *(f and on_space(f, sb, sc)
                           for f in (B.m, B.eta, B.delta, B.eps, B.S)))
    braiding = yd_provider(inp.H, [
        (sb, inp.b_act, inp.b_coact),
        (sc, on_space(inp.b_act, sb, sc), on_space(inp.b_coact, sb, sc))])
    return trivial_datum(B, copy, braiding)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: radford(RadfordParams(2, 1, 4, 1))["datum"],
                 id="radford-2141"),
    pytest.param(ore_datum, id="ore-c2")])
def test_phi_splits_at_the_stated_cut(build):
    # the facts build_phi_superoperator relies on at datum._CUT, on a
    # datum with d1 != d2 and one with nontrivial right (co)actions
    d = build()
    s1, s2 = d.b1.space, d.b2.space
    layers = _phi_layers(d)
    assert len(layers) == 12
    bottom, top = layers[:datum._CUT], layers[datum._CUT:]
    assert all(row[0] == d.b1.id_map() and row[-1] == d.b2.id_map()
               for row in top)
    cut = tuple(s for f in top[0] for s in f.dom)
    assert cut == (s1, s2, s1, s1, s2, s1, s2, s2, s1, s2)
    # f on strands 3-6 of the cut is f at the centre: the rows between
    # commute with it
    f = random_endo(d.quad, random.Random(3))
    at_cut = [LinMap.identity(cut[:3]), f, LinMap.identity(cut[7:])]
    assert (pipeline_as_linmap(bottom + [at_cut] + top)
            == pipeline_as_linmap(phi_diagram(d, f)))


def phi_apply_cases():
    """The zoo datums, a braided datum (Sweedler's SwB next to a copy of
    it) and trivial_datum(k, k), where dV = 1."""
    from tests.test_acceptance import zoo_datums

    return zoo_datums() + [sweedler_copies_datum(),
                           trivial_datum(unit_hopf(), unit_hopf())]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_phi_apply_at_the_cut_is_the_whole_diagram(warm):
    # phi_apply applies f on the bottom half's image at the cut; the whole
    # 12-row diagram with f at the centre is its oracle, entry for entry
    # and in scalar repr (an integral rational reads as the int, see
    # reprs: over Q(zeta_3) the two orders of summation leave some as int
    # and some as Fraction), before the datum's bottom half was computed
    # (dataclasses.replace starts with an empty memo) and after
    # build_phi_superoperator computed it
    for case, d in enumerate(phi_apply_cases()):
        d = dataclasses.replace(d)
        if warm:
            build_phi_superoperator(d)
        rng = random.Random(100 + case)
        endos = [random_endo(d.quad, rng, density) for density in (0.05, 0.3)]
        for f in endos + [LinMap.identity(d.quad)]:
            got = phi_apply(d, f)
            want = pipeline_as_linmap(phi_diagram(d, f))
            assert (got.dom, got.cod) == (d.quad, d.quad)
            assert got == want
            assert reprs({0: got.entries}) == reprs({0: want.entries})


def test_the_bottom_half_is_pushed_once_per_datum(monkeypatch):
    pushes, builds = [], []
    push, build = datum.pipeline_as_linmap, datum._build_phi_superoperator

    def push_spy(layers):
        pushes.append(layers)
        return push(layers)

    def build_spy(d):
        builds.append(d)
        return build(d)

    monkeypatch.setattr(datum, "pipeline_as_linmap", push_spy)
    monkeypatch.setattr(datum, "_build_phi_superoperator", build_spy)
    top = 1 + 12 - datum._CUT
    for d, warm_up in ((radford_datum(), build_phi_superoperator),
                       (ore_datum(), lambda d: recursion_order(d, 4))):
        rng = random.Random(5)
        endos = [random_endo(d.quad, rng) for _ in range(3)]
        # cold: one bottom half per datum, then each phi_apply pushes the
        # rows from the cut on, above f's image at the cut; it neither
        # builds Phi nor keeps one
        pushes.clear()
        builds.clear()
        cold = [phi_apply(d, f) for f in endos]
        assert [len(layers) for layers in pushes] == [datum._CUT] + [top] * 3
        assert pushes[0] == _phi_layers(d)[:datum._CUT]
        assert builds == [] and not any(
            isinstance(v, datum.PhiSuperoperator) for v in vars(d).values())
        # warm: once Phi is kept, by a build or an order search, each
        # phi_apply is one mat-vec with it and pushes nothing
        warm_up(d)
        assert builds == [d]
        pushes.clear()
        assert [phi_apply(d, f) for f in endos] == cold
        assert pushes == [] and builds == [d]


def test_superoperator_matches_the_two_pullback_oracle():
    from tests.test_acceptance import zoo_datums

    # the zoo has Radford(2,1,4,1) and ore_datum(), whose right (co)actions
    # are nontrivial.  Besides it: datums whose bottom half reaches every
    # spectator side, a quarter of them and (Radford) a tenth of them, and
    # one with d1 != d2, on which the outer strands of the top half, a B1
    # and a B2, cannot be mistaken for one another.  Then trivial_datum(k,
    # k), where dV = 1 makes every braiding factor an identity, and a
    # braided datum, Sweedler's SwB next to a copy of it
    k2, k2_dual = group_algebra(2), dual_group_algebra(2)
    cases = zoo_datums() + [trivial_datum(k2_dual, k2_dual),
                            trivial_datum(k2, k2_dual), radford_datum(),
                            trivial_datum(dual_group_algebra(4), k2),
                            trivial_datum(unit_hopf(), unit_hopf()),
                            sweedler_copies_datum()]
    for d in cases:
        phi = build_phi_superoperator(d).phi
        want = two_pullback_phi(d)
        assert phi == want
        assert reprs(phi) == reprs(want)


def row_list_phi(d):
    """Phi as the split build made it while it pushed the top half from
    each inner side as one row list, run_pipeline([[block]] + inner); kept
    as the oracle of the `top * block` push."""
    s1, s2 = d.b1.space, d.b2.space
    n, dz = s1.dim * s2.dim, s2.dim
    dV = n * n
    layers = _phi_layers(d)
    inner = [row[1:-1] for row in layers[datum._CUT:]]
    bots = {}
    bottom = pipeline_as_linmap(layers[:datum._CUT])
    for (key, v), x in bottom.entries.items():
        a, rest = divmod(key, dV * n * dz)
        i, c = divmod(rest, n * dz)
        a0, p = divmod(a, n)
        q, z = divmod(c, dz)
        bots.setdefault((p, q), []).append((v, i, a0, z, x))
    phi = {}
    for (p, q), terms in bots.items():
        block = LinMap(d.quad, (s2, s1) + d.quad + (s2, s1), {
            ((p * dV + i) * n + q, i): ONE for i in range(dV)})
        image = run_pipeline([[block]] + inner)
        datum._join(phi, dV, n, dz,
                    [(w, i, y) for (w, i), y in image.entries.items()], terms)
    return {c: rows for c, rows in phi.items() if rows}


@pytest.mark.parametrize("build", [radford_datum, ore_datum],
                         ids=["radford-2121", "ore-c2"])
def test_the_top_half_is_lent_to_each_push_and_never_evaluated(
        build, monkeypatch):
    # T, the top half past its outer identities, is the `*` expression of
    # the rows from the cut on.  Phi is the row-list push's, entry for
    # entry, and T stays pending, one tensor per row: no push starts from
    # T's strands, as one that evaluated T at its full width would
    d = build()
    want = row_list_phi(d)
    tops, firsts = [], []
    fold, push = datum.reduce, linmaps.run_pipeline

    def kept(fn, items):
        out = fold(fn, items)
        if fn is operator.mul:
            tops.append(out)
        return out

    def pushed(layers):
        firsts.append(tuple(s for f in layers[0] for s in f.dom))
        return push(layers)

    monkeypatch.setattr(datum, "reduce", kept)
    monkeypatch.setattr(linmaps, "run_pipeline", pushed)
    phi = build_phi_superoperator(d).phi
    assert phi == want
    assert reprs(phi) == reprs(want)
    inner = [row[1:-1] for row in _phi_layers(d)[datum._CUT:]]
    assert tuple(s for f in inner[0] for s in f.dom) not in firsts
    (top,) = tops
    rows = linmaps._pending_rows(top)
    assert rows is not None and [len(row) for row in rows] == [1] * 4
    assert all(linmaps._pending_rows(f) is not None for f, in rows)
    assert [f.cod for f, in rows] == [tuple(s for g in row for s in g.cod)
                                      for row in inner]


# ---------------------------------------------------------------------------
# trivalence and classification
# ---------------------------------------------------------------------------

def test_radford_datum_is_trivalent():
    tri = trivalence(radford_datum())
    assert tri["pattern"] == "1010"
    assert tri["trivalent"] is True
    assert sorted(tri["both_morphisms"]) == ["inj2", "proj2"]
    assert tri["consistent"] is True


def test_ore_datum_is_trivalent_on_the_other_side():
    tri = trivalence(ore_datum())
    assert tri["pattern"] == "0101"
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


def test_a_nontrivial_act_r_on_radford_makes_the_family_general():
    d = radford_datum()
    s1, s2 = d.b1.space, d.b2.space
    d = dataclasses.replace(d, act_r=LinMap((s2, s1), (s2,), {(0, 0): 1}))
    assert classify(d) == {"pattern": "1011", "family": "general"}


# ---------------------------------------------------------------------------
# serialisation: a datum travels as a workspace, its braiding as the
# workspace's braiding section
# ---------------------------------------------------------------------------

YD_KINDS = {YetterDrinfeld: "yetter-drinfeld",
            LeftYetterDrinfeld: "left-yetter-drinfeld"}


def datum_workspace(d, host=None):
    """d's factors and maps as the workspace the datum commands read; under
    a Yetter-Drinfeld braiding, also its host structure, each registered
    module's maps as <space>_act and <space>_coact, and the braiding
    section that names them."""
    ws = Workspace().add_structure("b1", d.b1).add_structure("b2", d.b2)
    for k in ("act_l", "coact_l", "act_r", "coact_r"):
        ws.add_map(k, getattr(d, k))
    if type(d.braiding) in YD_KINDS:
        ws.add_structure("host", host)
        modules = []
        for sp in sorted(d.braiding._reg, key=lambda s: s.name):
            act, coact = d.braiding._reg[sp]
            ws.add_map(f"{sp.name}_act", act)
            ws.add_map(f"{sp.name}_coact", coact)
            modules.append({"space": sp.name, "act": f"{sp.name}_act",
                            "coact": f"{sp.name}_coact"})
        ws.braiding = {"kind": YD_KINDS[type(d.braiding)], "host": "host",
                       "modules": modules}
    return ws


def test_datum_json_roundtrip(tmp_path):
    # one datum per braiding backend, saved as a workspace and loaded the
    # way the datum commands load it; the Yetter-Drinfeld providers have no
    # __eq__, so their type, host and registered maps are compared
    inp = sweedler_crossed_modules()
    right = yd_provider(inp.H, [(inp.B.space, inp.b_act, inp.b_coact)])
    left = yd_provider_left(inp.H, [(inp.C.space, inp.c_act, inp.c_coact)])
    cases = [radford_datum(), trivial_datum(group_hopf(2), group_hopf(3)),
             trivial_datum(inp.B, inp.C, right),
             trivial_datum(inp.B, inp.C, left)]
    for i, d in enumerate(cases):
        path = str(tmp_path / f"datum{i}.json")
        save_workspace(datum_workspace(d, inp.H), path)
        back = _datum_from_workspace(load_workspace(path))
        assert type(back.braiding) is type(d.braiding)
        if type(d.braiding) is VectFlip:
            assert back == d
            continue
        assert dataclasses.replace(back, braiding=d.braiding) == d
        assert back.braiding.host == d.braiding.host
        assert back.braiding._reg == d.braiding._reg


def test_datum_json_refuses_an_unknown_braiding():
    inp = sweedler_crossed_modules()
    right = yd_provider(inp.H, [(inp.B.space, inp.b_act, inp.b_coact)])
    obj = workspace_to_json(datum_workspace(
        trivial_datum(inp.B, inp.C, right), inp.H))
    obj["braiding"]["kind"] = "symmetric"
    with pytest.raises(WorkspaceError, match="^/braiding/kind: expected one"):
        workspace_from_json(obj)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda obj: obj.update(braiding="flip"), "^/schema: ",
                 id="braiding-under-schema-1"),
    pytest.param(lambda obj: obj["spaces"][0].update(dim="two"),
                 "^/spaces/0: 'two' is not an integer", id="dim-two"),
    pytest.param(lambda obj: obj["spaces"][0].update(dim=2.5),
                 "^/spaces/0: 2.5 is not an integer", id="dim-float"),
    pytest.param(lambda obj: obj["spaces"][0].update(dim="2"),
                 "^/spaces/0: '2' is not an integer", id="dim-string"),
    pytest.param(lambda obj: obj["spaces"][0].update(dim=True),
                 "^/spaces/0: True is not an integer", id="dim-bool"),
    pytest.param(lambda obj: obj["spaces"].append({"name": 7, "dim": 2}),
                 r"^/spaces/\d+: 7 is not a string", id="name-int"),
    pytest.param(lambda obj: obj["spaces"].append({"name": None, "dim": 2}),
                 r"^/spaces/\d+: None is not a string", id="name-null"),
])
def test_datum_json_malformed_fields_are_pointed_at(edit, message):
    obj = workspace_to_json(datum_workspace(radford_datum()))
    edit(obj)
    with pytest.raises(WorkspaceError, match=message):
        workspace_from_json(obj)


@pytest.mark.parametrize("dim", [0, -1])
def test_datum_json_refuses_a_non_positive_dim(dim):
    obj = workspace_to_json(datum_workspace(radford_datum()))
    obj["spaces"][0]["dim"] = dim
    with pytest.raises(WorkspaceError,
                       match=f"^/spaces/0: {dim} is not a positive integer"):
        workspace_from_json(obj)
