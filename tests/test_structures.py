import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossbial import linmaps, structures
from crossbial.crossproduct import (BAT, IdempotentSystem, build_bialgebra,
                                    decompose)
from crossbial.datum import build_phi_superoperator, phi_apply
from crossbial.linmaps import (
    ConfigurationError,
    LinMap,
    ShapeError,
    Space,
    UNIT,
    LeftYetterDrinfeld,
    VectFlip,
    YetterDrinfeld,
    reduce_rows,
    run_pipeline,
)
from crossbial.scalars import ZERO, root_of_unity
from crossbial.structures import (
    CheckEntry,
    NotConvolutionInvertibleError,
    PreconditionError,
    Structure,
    Witness,
    _action_report,
    _generators,
    _inverse_report,
    check_axioms,
    classify_morphism,
    compare,
    convolution_inverse,
    convolution_product,
    dual,
    fuse,
    rebind,
    tensor_structure,
    yd_provider,
    yd_provider_left,
)
from crossbial.twisting import DualPairing, TwoCocycle, unit_bialgebra
from crossbial.zoo import (OreParams, RadfordParams, dual_group_algebra,
                           group_algebra, ore_finite, radford,
                           sweedler_crossed_modules, taft_factor)
from tests.test_acceptance import canonical_pairing
from tests.test_linmaps import invert
from tests.test_twisting import bicharacter_cocycle, law_generators

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# inline builders (kept local so these tests do not lean on the zoo module)
# ---------------------------------------------------------------------------

def group_hopf(n, name=None):
    """Group algebra of the cyclic group on n elements, as a Hopf bundle."""
    B = Space(name or f"kC{n}", n)
    m = LinMap((B, B), (B,), {((a + b) % n, a * n + b): ONE
                              for a in range(n) for b in range(n)})
    eta = LinMap(UNIT, (B,), {(0, 0): ONE})
    delta = LinMap((B,), (B, B), {(a * n + a, a): ONE for a in range(n)})
    eps = LinMap((B,), UNIT, {(0, a): ONE for a in range(n)})
    S = LinMap((B,), (B,), {((-a) % n, a): ONE for a in range(n)})
    return Structure(B, m, eta, delta, eps, S)


def unit_structure():
    K = Space("unit", 1)
    one = {(0, 0): ONE}
    return Structure(K, LinMap((K, K), (K,), one), LinMap(UNIT, (K,), one),
                     LinMap((K,), (K, K), one), LinMap((K,), UNIT, one),
                     LinMap((K,), (K,), one))


def nonabelian6_hopf():
    """Group algebra of the symmetric group S_3 (elements a^r b^s)."""
    elems = [(r, s) for r in range(3) for s in range(2)]
    idx = {e: i for i, e in enumerate(elems)}

    def mul(e1, e2):
        (r1, s1), (r2, s2) = e1, e2
        return ((r1 + (r2 if s1 == 0 else -r2)) % 3, (s1 + s2) % 2)

    B = Space("kS3", 6)
    m = LinMap((B, B), (B,), {(idx[mul(e1, e2)], idx[e1] * 6 + idx[e2]): ONE
                              for e1 in elems for e2 in elems})
    eta = LinMap(UNIT, (B,), {(0, 0): ONE})
    delta = LinMap((B,), (B, B), {(i * 6 + i, i): ONE for i in range(6)})
    eps = LinMap((B,), UNIT, {(0, i): ONE for i in range(6)})
    inv = {e: next(f for f in elems if mul(e, f) == (0, 0)) for e in elems}
    S = LinMap((B,), (B,), {(idx[inv[e]], idx[e]): ONE for e in elems})
    return Structure(B, m, eta, delta, eps, S)


def sweedler_yd(coact_entries=None):
    """Two-dimensional crossed module over kC2: x <| g = -x, x -> x (x) g."""
    H = group_hopf(2)
    M = Space("M", 2)
    act = LinMap((M, H.space), (M,),
                 {(0, 0): ONE, (0, 1): ONE, (1, 2): ONE, (1, 3): -ONE})
    coact = LinMap((M,), (M, H.space),
                   coact_entries or {(0, 0): ONE, (3, 1): ONE})
    return H, M, act, coact


# ---------------------------------------------------------------------------
# check_axioms
# ---------------------------------------------------------------------------

def test_group_algebra_is_hopf():
    for n in (2, 3, 5):
        rep = check_axioms(group_hopf(n), "hopf")
        assert rep.ok, rep.failed()


def test_dual_group_algebra_is_hopf():
    rep = check_axioms(dual(group_hopf(4)), "hopf")
    assert rep.ok, rep.failed()


def test_trivial_structure_passes():
    assert check_axioms(unit_structure(), "hopf").ok


def test_corrupted_comultiplication():
    s = group_hopf(2)
    bad = dataclasses.replace(s, delta=LinMap(
        (s.space,), (s.space, s.space),
        {(0, 0): ONE, (2, 1): ONE}))  # g -> g(x)1
    rep = check_axioms(bad, "coalgebra")
    assert rep.entry("coassociativity").ok
    assert rep.entry("right-counit").ok
    e = rep.entry("left-counit")
    assert not e.ok
    assert e.witness.out_index == (0,)
    assert e.witness.in_index == (1,)
    assert e.witness.lhs == 1 and e.witness.rhs == 0
    assert not rep.ok and rep.failed() == ["left-counit"]


def test_hopf_kind_needs_antipode():
    s = group_hopf(2)
    stripped = Structure(s.space, s.m, s.eta, s.delta, s.eps)
    with pytest.raises(ConfigurationError):
        check_axioms(stripped, "hopf")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        check_axioms(group_hopf(2), "ring")


@pytest.mark.parametrize("kind, error", [("hopf", ConfigurationError),
                                         ("ring", ValueError)])
def test_a_refused_check_evaluates_no_diagram(monkeypatch, kind, error):
    # a Radford tower of dim 64 without its antipode: the refusal comes
    # before any law is evaluated, not after all of them
    H = radford(RadfordParams(8, 1, 8, 1))["H"]
    stripped = Structure(H.space, H.m, H.eta, H.delta, H.eps)
    calls = []
    for mod, name in ((linmaps, "run_pipeline"), (structures, "compare"),
                      (structures, "_generators")):
        def spy(*args, name=name, orig=getattr(mod, name)):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(mod, name, spy)
    with pytest.raises(error):
        check_axioms(stripped, kind)
    assert calls == []


def test_structure_shape_validation():
    s = group_hopf(2)
    with pytest.raises(ShapeError):
        Structure(s.space, s.m, s.eta, s.delta, s.eps,
                  LinMap(UNIT, (s.space,), {(0, 0): ONE}))


def with_phi(d):
    """A copy of the datum d that has built and keeps its Phi."""
    d = dataclasses.replace(d)
    build_phi_superoperator(d)
    return d


def _wrong_slots():
    """One bundle, provider or checker per row, with one slot's map on the
    wrong strands: (id, call, slot, the strands it needs, the strands it
    got)."""
    g2, g3 = group_hopf(2), group_hopf(3)
    rad, sw = radford(RadfordParams(2, 1, 2, 1)), sweedler_crossed_modules()
    H, d, sysm = rad["H"], rad["datum"], rad["system"]
    R, Q = H.space.name, "Taft2 (x) kC2 (x) Taft2 (x) kC2"
    flip23 = VectFlip().braiding(g2.space, g3.space)
    return [
        ("Structure", lambda: Structure(g2.space, g2.m, g2.eta, g2.delta,
                                        g2.eps, g2.eps),
         "S", "kC2 -> kC2", "kC2 -> k"),
        ("HopfDatum", lambda: dataclasses.replace(d, act_l=d.coact_l),
         "act_l", "kC2 (x) Taft2 -> Taft2", "Taft2 -> kC2 (x) Taft2"),
        ("BAT", lambda: BAT(g2, g3, flip23, flip23),
         "phi21", "kC3 (x) kC2 -> kC2 (x) kC3",
         "kC2 (x) kC3 -> kC3 (x) kC2"),
        ("TwoCocycle", lambda: TwoCocycle(g2, g2.eps),
         "chi", "kC2 (x) kC2 -> k", "kC2 -> k"),
        ("DualPairing", lambda: DualPairing(g3, dual(group_hopf(3)), g3.eps),
         "form", "kC3 (x) kC3* -> k", "kC3 -> k"),
        ("DoubleBiproductInput", lambda: dataclasses.replace(
            sw, b_act=sw.c_act),
         "b_act", "SwB (x) kC2 -> SwB", "kC2 (x) SwC -> SwC"),
        ("DoubleBiproductInput-rho", lambda: sw.with_rho(sw.B.eps),
         "rho", "SwB (x) SwC -> k", "SwB -> k"),
        ("YetterDrinfeld", lambda: YetterDrinfeld(sw.H.space).register(
            sw.B.space, sw.b_act, sw.c_coact),
         "coact_r", "SwB -> SwB (x) kC2", "SwC -> kC2 (x) SwC"),
        ("LeftYetterDrinfeld", lambda: LeftYetterDrinfeld(
            sw.H.space).register(sw.C.space, sw.b_act, sw.c_coact),
         "act_l", "kC2 (x) SwC -> SwC", "SwB (x) kC2 -> SwB"),
        ("decompose-Pi", lambda: decompose(H, IdempotentSystem(
            H.id_map(), H.eta)),
         "Pi2", f"{R} -> {R}", f"k -> {R}"),
        ("decompose-p", lambda: decompose(H, dataclasses.replace(
            sysm, p1=sysm.p2)),
         "p1", f"{R} -> Taft2", f"{R} -> kC2"),
        ("classify_morphism", lambda: classify_morphism(g2.id_map(), g2, g3),
         "morphism", "kC2 -> kC3", "kC2 -> kC2"),
        ("phi_apply", lambda: phi_apply(d, d.b1.id_map()),
         "f", f"{Q} -> {Q}", "Taft2 -> Taft2"),
        # on a copy that keeps Phi, f is checked before Phi is read
        ("phi_apply-warm", lambda: phi_apply(with_phi(d), d.b1.id_map()),
         "f", f"{Q} -> {Q}", "Taft2 -> Taft2"),
    ]


WRONG_SLOTS = _wrong_slots()


@pytest.mark.parametrize("call, slot, needs, got",
                         [row[1:] for row in WRONG_SLOTS],
                         ids=[row[0] for row in WRONG_SLOTS])
def test_a_map_on_the_wrong_strands_is_named_with_its_strands(
        call, slot, needs, got):
    with pytest.raises(ShapeError) as exc:
        call()
    assert str(exc.value) == f"{slot} must map {needs}, not {got}"


def test_a_report_has_no_entry_for_an_absent_axiom():
    rep = check_axioms(group_hopf(2), "bialgebra")
    assert rep.entry("unit-counit").ok
    with pytest.raises(KeyError, match="^'left-antipode'$"):
        rep.entry("left-antipode")


def test_report_json_roundtrip_shape():
    rep = check_axioms(group_hopf(2), "bialgebra")
    doc = rep.to_json()
    assert [d["axiom"] for d in doc][0] == "unit-counit"
    assert all(d["ok"] for d in doc)


# ---------------------------------------------------------------------------
# morphism invariance under change of basis
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.tuples(rationals, rationals, rationals, rationals))
def test_axiom_verdicts_survive_conjugation(t):
    a, b, c, d = t
    if a * d - b * c == 0:
        return
    s = group_hopf(2)
    B = s.space
    T = LinMap((B,), (B,), {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d})
    Ti = invert(T)
    conj = Structure(
        B,
        T * s.m * (Ti @ Ti),
        T * s.eta,
        (T @ T) * s.delta * Ti,
        s.eps * Ti,
        T * s.S * Ti,
    )
    assert check_axioms(conj, "hopf").ok


# ---------------------------------------------------------------------------
# actions and coactions
# ---------------------------------------------------------------------------

def test_trivial_left_action():
    H = group_hopf(2)
    M = Space("M", 3)
    act = H.eps @ LinMap.identity((M,))
    rep = _action_report(M, H, act, "module-l", "action-")
    assert rep.ok


def test_root_of_unity_action_passes():
    H = group_hopf(3)
    q = root_of_unity(3, 1)
    M = Space("xpow", 3)
    act = LinMap((H.space, M), (M,),
                 {(m, l * 3 + m): q ** (-(m * l) % 3)
                  for l in range(3) for m in range(3)})
    rep = _action_report(M, H, act, "module-l", "action-")
    assert rep.ok


def test_wrong_order_root_fails_associativity():
    # q = -1 does not satisfy q^3 = 1, so the action of g^2 then g differs
    # from the action of g^3 = 1.
    H = group_hopf(3)
    M = Space("xpow", 2)
    act = LinMap((H.space, M), (M,),
                 {(m, l * 2 + m): Fraction((-1) ** (m * l))
                  for l in range(3) for m in range(2)})
    rep = _action_report(M, H, act, "module-l", "action-")
    assert rep.entry("action-unit").ok
    assert not rep.entry("action-associativity").ok


def test_right_coaction_sweedler():
    H, M, _act, coact = sweedler_yd()
    rep = _action_report(M, H, coact, "comodule-r", "coaction-")
    assert rep.ok


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

def registers(H, M, act, coact):
    """Whether yd_provider verifies (M, act, coact) over H and registers it."""
    return yd_provider(H, [(M, act, coact)])._reg == {M: (act, coact)}


def test_sweedler_crossed_module_passes():
    assert registers(*sweedler_yd())


def test_trivial_crossed_module_passes():
    H = group_hopf(3)
    M = Space("M", 2)
    im = LinMap.identity((M,))
    assert registers(H, M, im @ H.eps, im @ H.eta)


def test_abelian_host_accepts_any_grading():
    # Over an abelian group algebra the compatibility degenerates to
    # deg(m <| g) = g^{-1} deg(m) g, which always holds; regrading the
    # Sweedler module onto the unit keeps it a crossed module.
    assert registers(*sweedler_yd({(0, 0): ONE, (2, 1): ONE}))  # x -> x(x)1


def test_nonabelian_incompatible_grading_fails():
    H = nonabelian6_hopf()
    M = Space("adj", 6)
    act = LinMap.identity((M,)) @ H.eps          # trivial action
    coact = LinMap((M,), (M, H.space), {(i * 6 + i, i): ONE
                                        for i in range(6)})  # h -> h(x)h
    with pytest.raises(PreconditionError) as exc:
        yd_provider(H, [(M, act, coact)])
    assert str(exc.value) == "adj: crossed-compatibility"
    rep = exc.value.report
    assert rep.failed() == ["crossed-compatibility"]
    assert rep.entry("crossed-compatibility").witness is not None


def test_left_crossed_module_mirror():
    # mirror of the trivial case on the left side
    H = group_hopf(2)
    C = Space("C", 2)
    ic = LinMap.identity((C,))
    act, coact = H.eps @ ic, H.eta @ ic
    prov = yd_provider_left(H, [(C, act, coact)])
    assert type(prov) is LeftYetterDrinfeld
    assert prov._reg == {C: (act, coact)}


def test_crossed_module_precondition():
    H, M, act, _coact = sweedler_yd()
    broken = LinMap((M,), (M, H.space), {(0, 0): ONE, (1, 1): ONE})
    with pytest.raises(PreconditionError) as exc:
        yd_provider(H, [(M, act, broken)])
    assert str(exc.value).startswith("M: (co)module laws fail first: ")
    assert exc.value.report.failed()[0] in str(exc.value)


@pytest.mark.parametrize("side, out_index", [("right", (1, 0, 0)),
                                             ("left", (0, 0, 1))])
def test_a_failing_coaction_law_is_pinned_on_each_side(side, out_index):
    # the sign line over kC4 (x <| g = -x) with the coaction x -> x (x) (g +
    # g^2 - 1), and its mirror on the left: the counit law still holds, the
    # coassociativity fails at x (x) 1 (x) 1 (1 (x) 1 (x) x)
    H = group_hopf(4)
    M = Space("L", 2)
    sign = {(i, c): (-ONE) ** (i * c) for i in range(2) for c in range(4)}
    grade = {(0, 0): ONE, (1, 1): ONE, (1, 2): ONE, (1, 0): -ONE}
    if side == "right":
        make = yd_provider
        act = LinMap((M, H.space), (M,),
                     {(i, i * 4 + c): v for (i, c), v in sign.items()})
        coact = LinMap((M,), (M, H.space),
                       {(i * 4 + c, i): v for (i, c), v in grade.items()})
    else:
        make = yd_provider_left
        act = LinMap((H.space, M), (M,),
                     {(i, c * 2 + i): v for (i, c), v in sign.items()})
        coact = LinMap((M,), (H.space, M),
                       {(c * 2 + i, i): v for (i, c), v in grade.items()})
    with pytest.raises(PreconditionError) as exc:
        make(H, [(M, act, coact)])
    assert str(exc.value) == ("L: (co)module laws fail first: "
                              "coaction-coassociativity")
    rep = exc.value.report
    assert rep.failed() == ["coaction-coassociativity"]
    w = rep.entry("coaction-coassociativity").witness
    assert (w.out_index, w.in_index, w.lhs, w.rhs) == (out_index, (1,),
                                                       -ONE, ONE)


def test_crossed_module_refuses_a_host_with_a_broken_unit():
    s = group_hopf(2)
    bad = Structure(s.space, s.m, LinMap(UNIT, (s.space,), {(1, 0): ONE}),
                    s.delta, s.eps, s.S)  # unit sent to g
    M = Space("M", 1)
    im = LinMap.identity((M,))
    with pytest.raises(PreconditionError) as exc:
        yd_provider(bad, [(M, im @ bad.eps, im @ bad.eta)])
    assert str(exc.value) == "host fails left-unit"
    assert "left-unit" in exc.value.report.failed()


def test_yd_provider_refuses_a_host_that_is_not_hopf():
    H = group_hopf(3)
    # S(g) = g is no antipode on kC3
    bad = dataclasses.replace(H, S=H.id_map())
    with pytest.raises(PreconditionError) as exc:
        yd_provider(bad, [])
    assert str(exc.value) == "host fails left-antipode"
    assert exc.value.report is not None


def test_yd_provider_validates():
    H, M, act, coact = sweedler_yd()
    prov = yd_provider(H, [(M, act, coact)])
    psi = prov.braiding(M, M)
    assert psi.entry(3, 3) == -1
    with pytest.raises(PreconditionError):
        yd_provider(H, [(M, act, LinMap((M,), (M, H.space),
                                        {(0, 0): ONE, (1, 1): ONE}))])


# ---------------------------------------------------------------------------
# morphism classification
# ---------------------------------------------------------------------------

def test_identity_is_both():
    s = group_hopf(2)
    res = classify_morphism(s.id_map(), s, s)
    assert res == {"is_algebra_morphism": True, "is_coalgebra_morphism": True}


def test_scaled_generator_is_neither():
    s = group_hopf(2)
    f = LinMap((s.space,), (s.space,), {(0, 0): ONE, (1, 1): Fraction(2)})
    res = classify_morphism(f, s, s)
    assert not res["is_algebra_morphism"]
    assert not res["is_coalgebra_morphism"]


def test_counit_embedding_classified():
    # collapsing g to 1 comes from a group homomorphism: both laws hold
    s = group_hopf(2)
    f = LinMap((s.space,), (s.space,), {(0, 0): ONE, (0, 1): ONE})
    res = classify_morphism(f, s, s)
    assert res["is_algebra_morphism"] and res["is_coalgebra_morphism"]


# ---------------------------------------------------------------------------
# convolution algebra
# ---------------------------------------------------------------------------

def stacked_convolution_inverse(f, coalg, alg):
    """The reference solver: f * g = eta o eps and g * f = eta o eps as one
    stacked system, each coefficient a scalar product outside the kernel."""
    check_axioms(coalg, "coalgebra").require("convolution boundary fails {}")
    check_axioms(alg, "algebra").require("convolution boundary fails {}")
    C, A = coalg.space, alg.space
    dc, da = C.dim, A.dim
    ida = LinMap.identity((A,))
    target = alg.eta * coalg.eps
    # L[u,(c,a)] and R[u,(a,c)] carry f through the multiplication once.
    L = run_pipeline([[f, ida], [alg.m]])
    R = run_pipeline([[ida, f], [alg.m]])
    rhs = da * dc
    rows = []
    for v in range(dc):
        lrows = {u: {} for u in range(da)}
        rrows = {u: {} for u in range(da)}
        for pair, w in coalg.delta.column(v).items():
            c1, c2 = divmod(pair, dc)
            # f * g: f eats c1 and the unknown g[a, c2] eats c2; g * f:
            # the unknown g[a, c1] eats c1 and f eats c2
            for a in range(da):
                for eqs, col, var in ((lrows, L.column(c1 * da + a),
                                       a * dc + c2),
                                      (rrows, R.column(a * dc + c2),
                                       a * dc + c1)):
                    for u, x in col.items():
                        cur = eqs[u].get(var, ZERO) + x * w
                        if cur:
                            eqs[u][var] = cur
                        else:
                            eqs[u].pop(var, None)
        for u in range(da):
            lrows[u][rhs] = rrows[u][rhs] = target.entry(u, v)
            rows += (lrows[u], rrows[u])
    g = LinMap((C,), (A,), {divmod(var, dc): row.get(rhs, ZERO)
                            for var, row in reduce_rows(rows).items()
                            if var != rhs})
    _inverse_report(f, g, coalg, alg).require(
        "no two-sided convolution inverse exists: {} fails",
        NotConvolutionInvertibleError)
    return g


def test_convolution_inverse_of_identity_is_antipode():
    s = group_hopf(3)
    g = convolution_inverse(s.id_map(), s, s)
    assert g == s.S


def test_convolution_unit_is_self_inverse():
    s = group_hopf(3)
    ue = s.unit_counit()
    assert convolution_inverse(ue, s, s) == ue


def test_convolution_inverse_unique():
    s = group_hopf(4)
    assert convolution_inverse(s.id_map(), s, s) == \
        convolution_inverse(s.id_map(), s, s)


def test_zero_map_not_invertible():
    # the one-sided solve and the stacked reference fail alike: each system
    # is inconsistent, and the certificate refuses it with both identities
    s = group_hopf(2)
    zero = LinMap((s.space,), (s.space,))
    for solve in (convolution_inverse, stacked_convolution_inverse):
        with pytest.raises(NotConvolutionInvertibleError) as exc:
            solve(zero, s, s)
        assert type(exc.value) is NotConvolutionInvertibleError
        assert str(exc.value) == ("no two-sided convolution inverse exists: "
                                  "convolution-right-inverse fails")
        assert exc.value.report.failed() == ["convolution-right-inverse",
                                             "convolution-left-inverse"]
        for e in exc.value.report.entries:
            assert e.witness == Witness((0,), (0,), ZERO, ONE)


def test_convolution_precondition():
    # the public solve checks its coalgebra and its algebra itself, and a
    # refusal names the first failed law of the one that fails
    s = group_hopf(2)
    no_coalgebra = dataclasses.replace(s, delta=LinMap(
        (s.space,), (s.space, s.space), {(0, 0): ONE, (2, 1): ONE}))
    # twice kC2's product is associative, but 1 is no unit for it
    no_algebra = dataclasses.replace(s, m=LinMap(
        s.m.dom, s.m.cod, {k: 2 * x for k, x in s.m.entries.items()}))
    for coalg, alg, law in ((no_coalgebra, s, "left-counit"),
                            (s, no_algebra, "left-unit")):
        with pytest.raises(PreconditionError) as exc:
            convolution_inverse(s.id_map(), coalg, alg)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == f"convolution boundary fails {law}"
        assert exc.value.report.failed()[0] == law


def test_canonical_pairing_inverse_via_antipode():
    n = 3
    H, A = group_hopf(n), dual(group_hopf(n))
    C = tensor_structure(H, A)
    K = unit_structure()
    pairing = LinMap((C.space,), (K.space,),
                     {(0, a * n + b): ONE for a in range(n) for b in range(n)
                      if a == b})
    inv = convolution_inverse(pairing, C, K)
    expected = LinMap((C.space,), (K.space,),
                      {(0, a * n + b): ONE
                       for a in range(n) for b in range(n)
                       if (-a) % n == b})
    assert inv == expected
    # and the defining identities really hold
    target = K.eta * C.eps
    assert convolution_product(pairing, inv, C, K) == target
    assert convolution_product(inv, pairing, C, K) == target
    assert _inverse_report(pairing, inv, C, K).ok


def test_the_inverse_certificate_has_a_witness_per_identity():
    s = group_hopf(3)
    rep = _inverse_report(s.id_map(), s.S, s, s)
    assert rep.ok
    assert [e.axiom for e in rep.entries] == ["convolution-right-inverse",
                                              "convolution-left-inverse"]
    # id * id on kC3 squares each g, while eta o eps sends it to 1
    bad = _inverse_report(s.id_map(), s.id_map(), s, s)
    assert bad.failed() == ["convolution-right-inverse",
                            "convolution-left-inverse"]
    for e in bad.entries:
        assert e.witness == Witness((0,), (1,), ZERO, ONE)


def test_a_solve_that_fails_its_postcondition_carries_the_certificate(
        monkeypatch):
    # an elimination that leaves every unknown free makes g = 0, which the
    # postcondition refuses through the certificate's report
    s = group_hopf(2)
    monkeypatch.setattr(structures, "reduce_rows", lambda rows: {})
    with pytest.raises(NotConvolutionInvertibleError) as exc:
        convolution_inverse(s.id_map(), s, s)
    assert str(exc.value) == ("no two-sided convolution inverse exists: "
                              "convolution-right-inverse fails")
    assert exc.value.report.failed() == ["convolution-right-inverse",
                                         "convolution-left-inverse"]


def _antipode(H):
    return H.id_map(), H, H


def _form(form, co):
    """A scalar form's inverse as _scalar_inverse solves it: over the
    tensor structure, into the one-dimensional unit bialgebra."""
    k = unit_bialgebra()
    return rebind(form, (co.space,), (k.space,)), co, k


def _bicharacter():
    gg, c = bicharacter_cocycle(3)
    return _form(c.chi, tensor_structure(gg, gg))


def _pairing(p):
    return _form(p.form, tensor_structure(p.H, p.A))


ORACLE_CASES = {
    "antipode-radford-2121": lambda: _antipode(
        radford(RadfordParams(2, 1, 2, 1))["H"]),
    "antipode-radford-3131": lambda: _antipode(
        radford(RadfordParams(3, 1, 3, 1))["H"]),
    "antipode-kC4": lambda: _antipode(group_algebra(4)),
    "antipode-k^C3": lambda: _antipode(dual_group_algebra(3)),
    "antipode-ore-C2xC2": lambda: _antipode(ore_finite(OreParams(
        (2, 2), 2, ((1, 0), (0, 1)), ((1, 0), (0, 1))))["H"]),
    "cocycle-bicharacter-kC3.kC3": _bicharacter,
    "pairing-kC3.k^C3": lambda: _pairing(canonical_pairing(3)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_the_one_sided_solve_agrees_with_the_stacked_system(case):
    f, coalg, alg = ORACLE_CASES[case]()
    g = convolution_inverse(f, coalg, alg)
    want = stacked_convolution_inverse(f, coalg, alg)
    assert g == want
    assert (sorted((k, repr(v)) for k, v in g.entries.items())
            == sorted((k, repr(v)) for k, v in want.entries.items()))


# ---------------------------------------------------------------------------
# tensor products of structures
# ---------------------------------------------------------------------------

def test_tensor_structure_is_hopf():
    t = tensor_structure(group_hopf(2), group_hopf(3))
    assert t.dim == 6
    assert check_axioms(t, "hopf").ok


def test_tensor_structure_mixed_factors():
    t = tensor_structure(group_hopf(2), dual(group_hopf(2)))
    assert check_axioms(t, "hopf").ok


# structures with an antipode over Q and Q(zeta_3), and one without
DUALS = {
    "radford2121": lambda: radford(RadfordParams(2, 1, 2, 1))["H"],
    "radford3131": lambda: radford(RadfordParams(3, 1, 3, 1))["H"],
    "ore-C2": lambda: ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))["H"],
    "kC4": lambda: group_algebra(4),
    "taft2": lambda: taft_factor(2, -1),
}


@pytest.mark.parametrize("case", sorted(DUALS))
def test_the_dual_of_the_dual_is_the_structure(case):
    # each map is transposed twice and the flip composed in twice; S
    # stays None on the Taft factor
    h = DUALS[case]()
    dd = dual(dual(h))
    assert dd.space == Space(h.space.name + "**", h.dim)
    assert fuse(h.space, dd.m, dd.eta, dd.delta, dd.eps, dd.S) == h


@pytest.mark.parametrize("case", ["ore-C2", "radford2121", "radford3131"])
def test_the_dual_of_a_tower_is_hopf(case):
    rep = check_axioms(dual(DUALS[case]()), "hopf")
    assert rep.ok, rep.failed()


@pytest.mark.parametrize("build", ["tensor_coalgebra", "bare"])
def test_a_structure_without_m_is_a_coalgebra_and_nothing_more(build):
    # every structure has its multiplication: a bare one without m is
    # refused at construction (dataclasses.replace constructs anew), and
    # the tensor coalgebra is tensor_structure, whose m stays pending
    # through a coalgebra check, which reads eta, delta and eps only
    a, b = group_hopf(2), group_hopf(3)
    if build == "tensor_coalgebra":
        s = tensor_structure(a, b)
        rep = check_axioms(s, "coalgebra")
        assert rep.ok, rep.failed()
        assert linmaps._pending_rows(s.m) is not None
        with pytest.raises(ShapeError, match=r"has no multiplication$"):
            dataclasses.replace(s, m=None)
    else:
        with pytest.raises(ShapeError, match=r"^kC2 has no multiplication$"):
            Structure(a.space, None, a.eta, a.delta, a.eps, a.S)
        with pytest.raises(ShapeError, match=r"^kC2 has no multiplication$"):
            dataclasses.replace(a, m=None)


def test_fuse_refuses_a_space_of_the_wrong_dimension():
    # fuse only regroups strands, so any maps of the right sizes will do
    a, b = group_hopf(2), group_hopf(3)
    m, eta = a.m @ b.m, a.eta @ b.eta
    delta, eps = a.delta @ b.delta, a.eps @ b.eps
    assert fuse(Space("P", 6), m, eta, delta, eps).dim == 6
    with pytest.raises(ShapeError):
        fuse(Space("P", 7), m, eta, delta, eps)
    with pytest.raises(ShapeError):
        fuse(Space("P", 6), m, eta, delta, eps, S=a.S)


def test_compare_rejects_shape_mismatch():
    s2, s3 = group_hopf(2), group_hopf(3)
    with pytest.raises(ShapeError):
        compare("x", s2.id_map(), s3.id_map())


# ---------------------------------------------------------------------------
# laws checked on generators
# ---------------------------------------------------------------------------

def full_path_report(s, kind, bp=VectFlip(), psi=None):
    """check_axioms with the generator search switched off, so that every
    law is evaluated as its full diagram: the oracle of the reduced path.
    It checks a copy of s, which keeps none of the verdicts s has kept."""
    search = structures._generators
    structures._generators = lambda m, space: None
    try:
        return check_axioms(dataclasses.replace(s), kind, bp, psi)
    finally:
        structures._generators = search


def generators_of(s):
    g = _generators(s.m, s.space)
    return None if g is None else sorted(r for r, _ in g.entries)


def fused_radford_product():
    """The fused cross product of Radford(2,1,4,1)'s datum, checked with
    the explicit Psi = flip that build_cross_product passes."""
    P = build_bialgebra(radford(RadfordParams(2, 1, 4, 1))["datum"])
    return P, VectFlip().braiding(P.space, P.space)


REDUCED_CASES = {
    "radford-2-1-4-1": lambda: (radford(RadfordParams(2, 1, 4, 1))["H"],
                                None),
    "radford-3-1-3-1": lambda: (radford(RadfordParams(3, 1, 3, 1))["H"],
                                None),
    "ore-C2xC2": lambda: (ore_finite(OreParams(
        (2, 2), 2, ((1, 0), (0, 1)), ((1, 1), (1, 1))))["H"], None),
    "group-kC6": lambda: (group_hopf(6), None),
    "dual-group-k^C6": lambda: (dual(group_hopf(6)), None),
    "taft-6": lambda: (taft_factor(6, root_of_unity(6, 1)), None),
    "fused-cross-product": fused_radford_product,
}


def mutate(f, row, col, by):
    entries = dict(f.entries)
    entries[(row, col)] = entries.get((row, col), ZERO) + by
    return LinMap(f.dom, f.cod, entries)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(REDUCED_CASES)),
       st.sampled_from(["none", "m", "delta", "eta"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                        Fraction(-2)]))
def test_laws_on_generators_report_what_the_full_diagrams_report(
        case, slot, row, col, by):
    s, psi = REDUCED_CASES[case]()
    if slot != "none":
        f = getattr(s, slot)
        s = dataclasses.replace(s, **{slot: mutate(
            f, row % f.nrows, col % f.ncols, by)})
    for kind in ("algebra", "bialgebra"):
        rep = check_axioms(s, kind, psi=psi)
        assert rep.entries == full_path_report(s, kind, psi=psi).entries


def test_the_search_finds_the_unit_g_and_x_of_a_radford_tower():
    assert generators_of(radford(RadfordParams(4, 1, 4, 1))["H"]) == [0, 1, 4]
    assert generators_of(group_hopf(6)) == [0, 1]
    assert generators_of(fused_radford_product()[0]) == [0, 1, 4]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_a_dual_group_algebra_takes_the_full_path(n):
    # k^C_n is spanned by orthogonal idempotents, so S is its whole basis
    H = dual(group_hopf(n))
    assert generators_of(H) is None
    assert check_axioms(H, "hopf").ok


def test_small_algebras_take_the_full_path():
    # the reduced path pays only from dim 6 on, and when 2|S| < dim
    for H in (group_hopf(4), group_hopf(5),
              radford(RadfordParams(2, 1, 2, 1))["H"],
              tensor_structure(group_hopf(2), group_hopf(2)),
              tensor_structure(group_hopf(2), group_hopf(3))):
        assert generators_of(H) is None
    assert generators_of(group_hopf(6)) == [0, 1]


def law_seeds(monkeypatch):
    """Record, per law, whether it was checked on generators first."""
    seeded = {}
    orig = structures._law

    def spy(axiom, lhs, rhs, shortcut):
        seeded[axiom] = shortcut is not None
        return orig(axiom, lhs, rhs, shortcut)
    monkeypatch.setattr(structures, "_law", spy)
    return seeded


def test_a_yetter_drinfeld_braiding_keeps_the_full_mult_comult(monkeypatch):
    # the q-line k[x]/(x^6) over kC6 is a bialgebra in the braided category
    # only: mult-comult holds under its braiding and fails under the flip
    z = root_of_unity(6, 1)
    host, T = group_hopf(6), taft_factor(6, z)
    act = LinMap((T.space, host.space), (T.space,),
                 {(i, 6 * i + c): z ** (i * c)
                  for i in range(6) for c in range(6)})
    coact = LinMap((T.space,), (T.space, host.space),
                   {(7 * i, i): ONE for i in range(6)})
    prov = yd_provider(host, [(T.space, act, coact)])
    seeded = law_seeds(monkeypatch)
    rep = check_axioms(T, "bialgebra", prov)
    assert rep.ok
    assert seeded == {"associativity": True, "mult-comult": False}
    assert rep.entries == full_path_report(T, "bialgebra", prov).entries
    # under the flip only mult-comult, the law that reads Psi, is decided
    # again; T keeps the rest from the check under its braiding
    seeded.clear()
    flipped = check_axioms(T, "bialgebra")
    assert seeded == {"mult-comult": True}
    assert flipped.failed() == ["mult-comult"]
    assert flipped.entries == full_path_report(T, "bialgebra").entries


def test_passing_shortcuts_never_read_the_full_sides(monkeypatch):
    # kC6 passes the seeded mult-comult shortcut and Light's test, so
    # both laws pass with their full sides never evaluated; they stay
    # pending diagrams, and only the shortcuts are read
    laws = {}
    orig = structures._law

    def spy(axiom, lhs, rhs, shortcut):
        laws[axiom] = (lhs, rhs, shortcut)
        return orig(axiom, lhs, rhs, shortcut)
    monkeypatch.setattr(structures, "_law", spy)
    s = group_hopf(6)
    assert check_axioms(s, "bialgebra").ok
    assert sorted(laws) == ["associativity", "mult-comult"]
    for lhs, rhs, shortcut in laws.values():
        assert [linmaps._pending_rows(f) is None for f in shortcut] == [
            True, True]
        assert [linmaps._pending_rows(f) is None for f in (lhs, rhs)] == [
            False, False]
        assert lhs == rhs


def test_a_failed_associativity_keeps_the_full_mult_comult(monkeypatch):
    s = group_hopf(6)
    bad = dataclasses.replace(s, m=mutate(s.m, 0, 7, ONE))
    seeded = law_seeds(monkeypatch)
    check_axioms(bad, "bialgebra")
    assert seeded == {"associativity": True, "mult-comult": False}


def test_a_witness_off_the_generators_is_the_full_diagrams_witness():
    # kC6 with g g = g^2 + 1: S is still {1, g}, yet the first differing
    # entry of associativity sits at the middle strand e_2, off S; and
    # delta(g) = g (x) g + 1 (x) g first fails mult-comult at e_2 (x) e_5
    s = group_hopf(6)
    bad_m = dataclasses.replace(s, m=mutate(s.m, 0, 7, ONE))
    assert generators_of(bad_m) == [0, 1]
    assert check_axioms(bad_m, "bialgebra").entry("associativity") == \
        CheckEntry("associativity", False,
                   Witness((0,), (1, 2, 5), ZERO, ONE))
    bad_delta = dataclasses.replace(s, delta=mutate(s.delta, 1, 1, ONE))
    assert check_axioms(bad_delta, "bialgebra").entry("mult-comult") == \
        CheckEntry("mult-comult", False, Witness((0, 1), (2, 5), ONE, ZERO))


def rebased(s, T, T_inv):
    """s in the basis given by the columns of T (T_inv its inverse)."""
    return Structure(s.space, run_pipeline([[T, T], [s.m], [T_inv]]),
                     T_inv * s.eta, run_pipeline([[T], [s.delta],
                                                  [T_inv, T_inv]]),
                     s.eps * T)


def test_the_unit_is_left_out_of_lights_test_once_the_unit_laws_hold(
        monkeypatch):
    # (x 1) y = x (1 y) follows from the unit laws, so both shortcuts seed
    # with S without the unit's basis vector e_0
    seeds = law_generators(monkeypatch, structures)
    for s, want in ((group_hopf(6), [1]),
                    (radford(RadfordParams(4, 1, 4, 1))["H"], [1, 4]),
                    (fused_radford_product()[0], [1, 4])):
        # build_bialgebra has checked the fused product, which keeps its
        # verdicts; a copy keeps none, so both laws are decided here
        s = dataclasses.replace(s)
        rep = check_axioms(s, "bialgebra")
        assert rep.ok
        assert seeds == {"associativity": want, "mult-comult": want}
        assert rep.entries == full_path_report(s, "bialgebra").entries


def test_a_unit_that_is_no_basis_vector_of_s_stays(monkeypatch):
    # kC6 with the unit as its last basis vector (S = {g}, and e_5 is not
    # in S), and kC6 on the basis 1/2, g, ..., g^5, whose unit 2 e_0 is no
    # basis vector: both keep S as the search found it
    V = Space("kC6", 6)
    shift = LinMap((V,), (V,), {((j + 1) % 6, j): ONE for j in range(6)})
    back = LinMap((V,), (V,), {(j, (j + 1) % 6): ONE for j in range(6)})
    half = LinMap((V,), (V,), {(j, j): Fraction(1, 2) if j == 0 else ONE
                               for j in range(6)})
    twice = LinMap((V,), (V,), {(j, j): 2 if j == 0 else ONE
                                for j in range(6)})
    seeds = law_generators(monkeypatch, structures)
    for T, T_inv, unit, want in ((shift, back, {(5, 0): ONE}, [0]),
                                 (half, twice, {(0, 0): 2}, [0, 1])):
        s = rebased(group_hopf(6), T, T_inv)
        assert s.eta.entries == unit
        rep = check_axioms(s, "bialgebra")
        assert rep.ok
        assert seeds == {"associativity": want, "mult-comult": want}
        assert rep.entries == full_path_report(s, "bialgebra").entries


def test_a_failed_unit_law_keeps_the_unit_in_lights_test(monkeypatch):
    # kC6 with eta(1) = g and g.g^5 = g^5: both unit laws fail, so S keeps
    # e_1 = eta(1); without it S would be {1}, which passes Light's test
    # although m is not associative
    s = group_hopf(6)
    bad = dataclasses.replace(s, eta=LinMap(UNIT, (s.space,), {(1, 0): ONE}),
                              m=mutate(mutate(s.m, 0, 11, -1), 5, 11, 1))
    seeds = law_generators(monkeypatch, structures)
    rep = check_axioms(bad, "bialgebra")
    assert seeds["associativity"] == [0, 1]
    assert rep.failed()[:3] == ["associativity", "left-unit", "right-unit"]
    assert rep.entries == full_path_report(bad, "bialgebra").entries
    # delta(1) = 1 (x) 1 + g (x) g fails unit-comult alone: associativity
    # leaves the unit out, mult-comult keeps it
    bad = dataclasses.replace(s, delta=mutate(s.delta, 7, 0, ONE))
    rep = check_axioms(bad, "bialgebra")
    assert seeds == {"associativity": [1], "mult-comult": [0, 1]}
    assert "unit-comult" in rep.failed()
    assert rep.entries == full_path_report(bad, "bialgebra").entries
