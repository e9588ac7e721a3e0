import dataclasses
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from crossbial.datum import ConsistencyError, HopfDatum, check_hopf_datum
from crossbial.linmaps import (FLIP, LinMap, ShapeError, Space, UNIT,
                               VectFlip, flip, pipeline_as_linmap,
                               run_pipeline)
from crossbial import linmaps, twisting
from crossbial.scalars import (ZERO, InputError, VerifiedFailure, as_scalar,
                               root_of_unity)
from crossbial.structures import (
    CheckEntry,
    CheckReport,
    NotConvolutionInvertibleError,
    PreconditionError,
    Witness,
    _generators,
    check_axioms,
    convolution_inverse,
    fuse,
    rebind,
    tensor_structure,
)
from crossbial.twisting import (
    DualPairing,
    _scalar_inverse,
    TwoCocycle,
    cocycle_inverse,
    conv_dot,
    double_biproduct,
    matched_pair_from_pairing,
    pairing_inverse,
    twist,
    unit_bialgebra,
    validate_cocycle,
    validate_pairing,
)
from crossbial.zoo import (
    RadfordParams,
    braided_line_input,
    dual_group_algebra,
    group_algebra,
    radford,
    sweedler_crossed_modules,
)
from tests.test_acceptance import braided_taft_pairing, canonical_pairing
from tests.test_builders import evaluation_pairing_of_the_op_cop_dual
from tests.test_linmaps import doubled, invert

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# inline builders
# ---------------------------------------------------------------------------

def trivial_cocycle(b):
    """The counit-squared cocycle, which twists nothing."""
    s = b.space
    return TwoCocycle(b, LinMap((s, s), UNIT, (b.eps @ b.eps).entries))


def bicharacter_cocycle(N, e=1, shape="bc"):
    """chi(g^a h^b (x) g^c h^d) = zeta^(e b c), or zeta^(e a d) in the
    shape "ad", on kC_N (x) kC_N."""
    z = root_of_unity(N, 1)
    gg = tensor_structure(group_algebra(N), group_algebra(N))
    P = gg.space
    ent = {}
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    col = (a * N + b) * N * N + (c * N + d)
                    ent[(0, col)] = z ** (e * (b * c if shape == "bc"
                                               else a * d))
    return gg, TwoCocycle(gg, LinMap((P, P), UNIT, ent))


def perturbed_bicharacter():
    """The bicharacter of k(C3 x C3) with chi(gh (x) gh) = 2 in place of
    zeta: its unit laws hold and its cocycle law fails."""
    gg, c = bicharacter_cocycle(3)
    ent = dict(c.chi.entries)
    ent[(0, 4 * 9 + 4)] = as_scalar(2)
    return TwoCocycle(gg, LinMap(c.chi.dom, UNIT, ent))


def light_trap_cocycle():
    """A 0/1 form on k(C3 x C3) that Light's test on m's generators would
    pass.  Its Doi product chi.m is k[g, h, u]/(g^2, g u, u^2, h^3) with
    u = g^2, except that u.u = g: (x a) y = x (a y) holds for every a in
    {1, h, g}, which generate k(C3 x C3) under m but not under chi.m, and
    fails at h (x) u (x) u.  chi(g^a h^b (x) g^c h^d) = 1 when b + d <= 2
    and a = 0, c = 0 or a = c = 2, b = d = 0."""
    gg = tensor_structure(group_algebra(3), group_algebra(3))
    P = gg.space
    ent = {(0, (a * 3 + b) * 9 + c * 3 + d): ONE
           for a, b, c, d in product(range(3), repeat=4)
           if b + d <= 2
           and (a == 0 or c == 0 or (a, b, c, d) == (2, 0, 2, 0))}
    return TwoCocycle(gg, LinMap((P, P), UNIT, ent))


def coboundary_cocycle(H, seed):
    """chi(x, y) = gamma(x1) gamma(y1) gamma^-(x2 y2) for a gamma: H -> k
    with gamma(1) = 1 and small nonzero values elsewhere.  Nonzero on every
    group-like, gamma is convolution invertible on a pointed H."""
    rng = random.Random(seed)
    s = H.space
    values = [ONE] + [Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                      for _ in range(1, s.dim)]
    gamma = LinMap((s,), UNIT, {(0, i): v for i, v in enumerate(values)})
    gamma_inv = _scalar_inverse(gamma, H)
    flip = VectFlip().braiding(s, s)
    chi = run_pipeline([[H.delta, H.delta], [H.id_map(), flip, H.id_map()],
                        [gamma, gamma, H.m], [gamma_inv]])
    return TwoCocycle(H, chi)


def uninvertible_cocycle():
    """On kC2: chi(1, .) = chi(., 1) = 1 and chi(g, g) = 0.  The cocycle
    laws hold, but chi(g, g) = 0 leaves it no convolution inverse."""
    g2 = group_algebra(2)
    s = g2.space
    return TwoCocycle(g2, LinMap((s, s), UNIT,
                                 {(0, 0): ONE, (0, 1): ONE, (0, 2): ONE}))


def counit_pairing(M, N):
    """kC_M paired with kC_N by <h, a> = eps(h) eps(a): a pairing whose
    Gram matrix, all ones, has rank 1."""
    H, A = group_algebra(M), group_algebra(N)
    return DualPairing(H, A, H.eps @ A.eps)


def sweedler_op_cop_pairing(projected=False):
    """Sweedler's H4 = Radford(2,1,2,1) paired with the transpose of
    H4^{op,cop} by evaluation, or, projected, through the Hopf projection
    i2 o p2 of H4 onto kC2, <h, a> = <i2 p2 h, a>, of rank 2."""
    out = radford(RadfordParams(2, 1, 2, 1))
    p = evaluation_pairing_of_the_op_cop_dual(out["H"])
    if not projected:
        return p
    pi = out["system"].i2 * out["system"].p2
    return dataclasses.replace(p, form=p.form * (pi @ p.A.id_map()))


# ---------------------------------------------------------------------------
# cocycles and twisting
# ---------------------------------------------------------------------------

def test_trivial_cocycle_twists_nothing():
    g3 = group_algebra(3)
    c = trivial_cocycle(g3)
    rep = validate_cocycle(c)
    assert rep.ok, rep.failed()
    assert [e.axiom for e in rep.entries] == [
        "2cocycle1", "2cocycle2-left", "2cocycle2-right", "2cocycle2-agree"]
    tw = twist(g3, c)
    assert tw.m == g3.m and tw.S == g3.S
    assert cocycle_inverse(c) == c.chi


def test_conv_dot_unit_laws():
    g3 = group_algebra(3)
    for f in (g3.id_map(), g3.S):
        assert conv_dot(g3.eps, f, "left", g3.delta) == f
        assert conv_dot(g3.eps, f, "right", g3.delta) == f
    with pytest.raises(ShapeError):
        conv_dot(g3.id_map(), g3.id_map(), "left", g3.delta)
    with pytest.raises(ValueError, match="^unknown side 'middle'$"):
        conv_dot(g3.eps, g3.id_map(), "middle", g3.delta)


@given(st.integers(min_value=0, max_value=2))
@settings(max_examples=3, deadline=None)
def test_every_bicharacter_is_a_cocycle(e):
    _, c = bicharacter_cocycle(3, e)
    rep = validate_cocycle(c)
    assert rep.ok, rep.failed()


def test_bicharacter_twist_of_a_group_algebra_fixes_the_product():
    # chi(g, h) gh chi^{-1}(g, h) == gh on group-likes: the twisted product
    # of a group algebra is always the original one, and the whole interest
    # of the operation sits in non-group-like hosts.
    gg, c = bicharacter_cocycle(4)
    tw = twist(gg, c)
    assert tw.m == gg.m
    assert tw.delta == gg.delta and tw.eta == gg.eta
    back = twist(tw, TwoCocycle(gg, cocycle_inverse(c)))
    assert back.m == gg.m and back.S == gg.S


def test_stored_inverse_is_cross_checked():
    # a stored chi_inv is certified by both convolution identities over the
    # B (x) B that cocycle_inverse or twist built, and a wrong one is user
    # data: PreconditionError, whose report has the witnesses
    gg, c = bicharacter_cocycle(4)
    wrong = TwoCocycle(gg, c.chi, c.chi)
    for call in (lambda: cocycle_inverse(wrong), lambda: twist(gg, wrong)):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "chi_inv fails convolution-right-inverse"
        rep = exc.value.report
        assert rep.failed() == ["convolution-right-inverse",
                                "convolution-left-inverse"]
        for e in rep.entries:
            assert e.witness is not None and e.witness.rhs == 1
            assert e.witness.lhs != e.witness.rhs


def non_coassociative_h4():
    """Sweedler's H4 = Radford(2,1,2,1) with e_a (x) e_a added to
    Delta(e_a), for the first basis vector e_a with eps(e_a) = 0: of its
    coalgebra laws only coassociativity fails."""
    H = radford(RadfordParams(2, 1, 2, 1))["H"]
    d = H.dim
    a = next(i for i in range(d) if H.eps.entry(0, i) == 0)
    ent = dict(H.delta.entries)
    ent[(a * d + a, a)] = ent.get((a * d + a, a), ZERO) + ONE
    return dataclasses.replace(H, delta=LinMap(H.delta.dom, H.delta.cod,
                                               ent))


def test_a_cocycle_inverse_refuses_a_host_that_is_no_coalgebra():
    # cocycle_inverse receives the host and checks its coalgebra laws, on
    # which the uniqueness of a certified inverse rests: a stored
    # chi_inv = eps (x) eps passes both convolution identities on this
    # host, and is refused all the same, as is a solve
    B = non_coassociative_h4()
    assert check_axioms(B, "coalgebra").failed() == ["coassociativity"]
    eps2 = B.eps @ B.eps
    for c in (TwoCocycle(B, eps2, eps2), TwoCocycle(B, eps2)):
        with pytest.raises(PreconditionError) as exc:
            cocycle_inverse(c)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "host fails coassociativity"
        assert exc.value.report.failed() == ["coassociativity"]


def test_a_pairing_inverse_names_the_factor_that_is_no_coalgebra():
    # pairing_inverse checks H and A, each at its own dim, and names the
    # one that fails
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    bad = non_coassociative_h4()
    for tag, H, A in (("H", bad, H4), ("A", H4, bad)):
        with pytest.raises(PreconditionError) as exc:
            pairing_inverse(DualPairing(H, A, H.eps @ A.eps))
        assert str(exc.value) == f"{tag} fails coassociativity"
        assert exc.value.report.failed() == ["coassociativity"]


def test_breaking_the_unit_normalisation_fails_validation():
    gg, c = bicharacter_cocycle(4)
    ent = dict(c.chi.entries)
    ent[(0, 4)] = as_scalar(2)            # chi(1 (x) g) = 2
    bad = TwoCocycle(gg, LinMap(c.chi.dom, UNIT, ent))
    rep = validate_cocycle(bad)
    assert rep.failed() == ["2cocycle1", "2cocycle2-left", "2cocycle2-agree"]


def test_twist_requires_a_valid_cocycle():
    gg, c = bicharacter_cocycle(4)
    ent = dict(c.chi.entries)
    ent[(0, 4)] = as_scalar(2)
    with pytest.raises(PreconditionError):
        twist(gg, TwoCocycle(gg, LinMap(c.chi.dom, UNIT, ent)))


def test_a_valid_cocycle_without_an_inverse_cannot_twist():
    c = uninvertible_cocycle()
    rep = validate_cocycle(c)
    assert rep.ok, rep.failed()
    for call in (lambda: cocycle_inverse(c), lambda: twist(c.host, c)):
        with pytest.raises(NotConvolutionInvertibleError,
                           match="^no two-sided convolution inverse exists: "
                           "convolution-right-inverse fails$") as exc:
            call()
        assert exc.value.report.failed() == ["convolution-right-inverse",
                                             "convolution-left-inverse"]


def test_a_cocycle_on_another_host_is_refused():
    with pytest.raises(ShapeError, match="^cocycle host does not match the "
                       "twisted algebra$"):
        twist(group_algebra(2), trivial_cocycle(group_algebra(3)))


def test_a_host_whose_antipode_fails_is_refused_before_the_twist():
    # S(g) = g is no antipode on kC3, and S^chi is built from it
    H = group_algebra(3)
    H = dataclasses.replace(H, S=H.id_map())
    with pytest.raises(PreconditionError) as exc:
        twist(H, trivial_cocycle(H))
    assert type(exc.value) is PreconditionError
    assert str(exc.value) == "host fails left-antipode"
    assert exc.value.report.failed() == ["left-antipode", "right-antipode"]


@pytest.mark.parametrize("params", [(2, 1, 2, 1), (3, 1, 3, 1)])
def test_a_coboundary_twist_moves_the_antipode(params):
    # every other twist here is of a group algebra, where S^chi = S
    H = radford(RadfordParams(*params))["H"]
    c = coboundary_cocycle(H, sum(params))
    assert validate_cocycle(c).ok
    tw = twist(H, c)
    assert tw.m != H.m and tw.S != H.S
    back = twist(tw, TwoCocycle(tw, cocycle_inverse(c)))
    assert back.m == H.m and back.S == H.S
    # the antipode from the convolution inverse of u, solved over H
    u = run_pipeline([[H.delta], [H.id_map(), H.S], [c.chi]])
    u_inv = _scalar_inverse(u, H)
    S_chi = conv_dot(u_inv, conv_dot(u, H.S, "left", H.delta), "right",
                     H.delta)
    assert tw.S == S_chi
    assert repr(sorted(tw.S.entries.items())) == repr(
        sorted(S_chi.entries.items()))


# ---------------------------------------------------------------------------
# the cocycle law by Light's test
# ---------------------------------------------------------------------------

def _rho_hat(inp):
    return double_biproduct(inp)["rho_hat"]


# Every cocycle these tests build, the bicharacters in both shapes; each
# case gives the cocycle and its braiding.
COCYCLES = {
    **{f"bicharacter N={n} {shape}": (
        lambda n=n, shape=shape: bicharacter_cocycle(n, 1, shape)[1])
       for n in (2, 3, 4) for shape in ("bc", "ad")},
    "bicharacter N=3 e=2": lambda: bicharacter_cocycle(3, 2)[1],
    "trivial kC3": lambda: trivial_cocycle(group_algebra(3)),
    "uninvertible kC2": uninvertible_cocycle,
    "coboundary radford-2-1-2-1": lambda: coboundary_cocycle(
        radford(RadfordParams(2, 1, 2, 1))["H"], 6),
    "coboundary radford-3-1-3-1": lambda: coboundary_cocycle(
        radford(RadfordParams(3, 1, 3, 1))["H"], 8),
    "rho_hat sweedler": lambda: _rho_hat(sweedler_rho(1)),
    "rho_hat braided line N=4": lambda: _rho_hat(_braided_line_rho(4)),
    "perturbed bicharacter": perturbed_bicharacter,
    "light trap": light_trap_cocycle,
}


@lru_cache(maxsize=None)
def cocycle_case(name):
    return COCYCLES[name]()


def full_cocycle_report(c):
    """validate_cocycle with the generator search switched off, so that the
    cocycle law is evaluated as its full diagrams: the oracle of Light's
    test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twisting, "_generators", lambda m, space: None)
        return validate_cocycle(c)


def cocycle_shortcuts(monkeypatch):
    """Record, per cocycle law evaluated, whether Light's test ran first."""
    seen = []
    orig = twisting._law

    def spy(axiom, lhs, rhs, shortcut):
        seen.append((axiom, shortcut is not None))
        return orig(axiom, lhs, rhs, shortcut)
    monkeypatch.setattr(twisting, "_law", spy)
    return seen


def law_generators(monkeypatch, module=twisting):
    """Record, per law evaluated through module._law, the sorted basis
    indices its shortcut seeds with, or None when it has no shortcut."""
    seeds = {}
    orig = module._law

    def spy(axiom, lhs, rhs, shortcut):
        gens = None
        if shortcut is not None:
            # the seed is the first row of the pending shortcut
            seed = linmaps._pending_rows(shortcut[0])[0][0]
            g = next(f for f in linmaps._pending_rows(seed)[0]
                     if f.dom and f.dom[0].name.endswith(".gens"))
            gens = sorted(r for r, _ in g.entries)
        seeds[axiom] = gens
        return orig(axiom, lhs, rhs, shortcut)
    monkeypatch.setattr(module, "_law", spy)
    return seeds


@pytest.mark.parametrize("case", sorted(COCYCLES))
def test_the_cocycle_law_on_generators_reports_what_the_full_diagrams_report(
        case):
    c = cocycle_case(case)
    rep = validate_cocycle(c)
    assert rep.entries == full_cocycle_report(c).entries
    want = ["2cocycle1"] if case in ("perturbed bicharacter",
                                     "light trap") else []
    assert rep.failed() == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COCYCLES)), st.integers(0, 10 ** 6),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                        Fraction(-2)]))
def test_a_mutated_cocycle_gets_the_full_diagrams_report(case, col, by):
    c = cocycle_case(case)
    col %= c.chi.ncols
    ent = dict(c.chi.entries)
    ent[(0, col)] = ent.get((0, col), ZERO) + by
    bad = dataclasses.replace(c, chi=LinMap(c.chi.dom, UNIT, ent))
    assert validate_cocycle(bad).entries == full_cocycle_report(bad).entries


def test_a_perturbed_bicharacter_fails_on_the_reduced_path(monkeypatch):
    # dim 9 with S = {1, h, g}: Light's test fails, so the full diagrams
    # give the entry; its witness was taken before the test existed
    seen = cocycle_shortcuts(monkeypatch)
    rep = validate_cocycle(perturbed_bicharacter())
    assert seen == [("2cocycle1", True)]
    z = root_of_unity(3, 1)
    assert rep.failed() == ["2cocycle1"]
    assert rep.entry("2cocycle1") == CheckEntry(
        "2cocycle1", False, Witness((), (1, 3, 4), -1 - z, 2 * z))


def test_the_generators_are_chi_dot_m_s_not_m_s(monkeypatch):
    # on the light trap m's generators 1, h, g pass Light's test, but chi.m
    # needs u = g^2 too, on which the test fails
    c = light_trap_cocycle()
    gens = [sorted(r for r, _ in g.entries) for g in (
        _generators(c.host.m, c.host.space),
        _generators(twisting._chi_dot_m(
            c, tensor_structure(c.host, c.host))[1], c.host.space))]
    assert gens == [[0, 1, 3], [0, 1, 3, 6]]
    seen = cocycle_shortcuts(monkeypatch)
    assert validate_cocycle(c).entry("2cocycle1") == CheckEntry(
        "2cocycle1", False, Witness((), (1, 6, 6), ONE, ZERO))
    assert seen == [("2cocycle1", True)]


def test_the_cocycle_law_leaves_the_unit_out_once_chi_is_normalised(
        monkeypatch):
    # chi(1, y) = eps(y) = chi(y, 1) makes 1 the unit of chi.m, so Light's
    # test seeds with chi.m's generators but e_0; a chi that fails either
    # normalisation keeps it, and every report is the full diagrams'
    seeds = law_generators(monkeypatch)
    trap = light_trap_cocycle()
    cases = [(bicharacter_cocycle(3)[1], [1, 3]),
             (perturbed_bicharacter(), [1, 3]), (trap, [1, 3, 6])]
    for col in (1, 9):     # chi(1 (x) h) and chi(h (x) 1)
        ent = dict(trap.chi.entries)
        ent[(0, col)] = 2
        cases.append((dataclasses.replace(
            trap, chi=LinMap(trap.chi.dom, UNIT, ent)), [0, 1, 3, 6]))
    for c, want in cases:
        rep = validate_cocycle(c)
        assert seeds == {"2cocycle1": want}
        assert rep.entries == full_cocycle_report(c).entries
    assert rep.failed() == ["2cocycle1", "2cocycle2-right",
                            "2cocycle2-agree"]


def test_lights_test_runs_on_the_cocycle_law_from_dim_6_on(monkeypatch):
    seen = cocycle_shortcuts(monkeypatch)
    for n, reduced in ((2, False), (3, True), (4, True)):
        seen.clear()
        gg, c = bicharacter_cocycle(n)
        assert validate_cocycle(c).ok
        tw = twist(gg, c)
        assert tw.m == gg.m
        assert seen == [("2cocycle1", reduced)] * 2


# ---------------------------------------------------------------------------
# dual pairings
# ---------------------------------------------------------------------------

def test_group_dual_pairing_and_its_inverse():
    p = canonical_pairing(5)
    rep = validate_pairing(p)
    assert rep.ok, rep.failed()
    pinv = pairing_inverse(p)
    assert pinv == p.form * (p.H.S @ p.A.id_map())
    assert pinv == p.form * (p.H.id_map() @ invert(p.A.S))


def test_group_dual_pairing_gives_the_trivial_matched_pair():
    p = canonical_pairing(4)
    mp = matched_pair_from_pairing(p)
    assert mp["is_matched_pair"] is True
    assert mp["braiding_involutive"] is True
    assert mp["lhd"] == p.H.id_map() @ p.A.eps
    assert mp["rhd"] == p.H.eps @ p.A.id_map()
    assert mp["report"].ok, mp["report"].failed()


def test_pairing_validation_notices_a_bad_form():
    # <g^a, delta_b> = delta(a,0) delta(b,0) still pairs the units, but it
    # kills the counit of A and the multiplicativity in the first slot.
    H, A = group_algebra(3), dual_group_algebra(3)
    form = LinMap((H.space, A.space), UNIT, {(0, 0): ONE})
    rep = validate_pairing(DualPairing(H, A, form))
    assert rep.failed() == ["pairing-mult-h", "pairing-unit-a"]


PAIRINGS = {
    "sweedler": sweedler_op_cop_pairing,
    "sweedler-through-i2p2": lambda: sweedler_op_cop_pairing(projected=True),
    "counit-kC2-kC2": lambda: counit_pairing(2, 2),
    "counit-kC2-kC3": lambda: counit_pairing(2, 3),
    "counit-kC3-kC3": lambda: counit_pairing(3, 3),
}


@pytest.mark.parametrize("case", ["counit-kC2-kC2", "counit-kC2-kC3",
                                  "sweedler-through-i2p2"])
def test_a_degenerate_pairing_induces_a_matched_pair(case):
    # the construction needs only the form's convolution inverse: each form
    # here is degenerate, and its actions pass all 27 entries of the datum
    # (A, H^op) past its factors' own laws.  The counit pairing induces the
    # trivial matched pair
    p = PAIRINGS[case]()
    assert validate_pairing(p).ok
    mp = matched_pair_from_pairing(p)
    assert mp["is_matched_pair"] is True
    assert mp["report"].ok, mp["report"].failed()
    assert len(mp["report"].entries) == 27
    if case.startswith("counit"):
        assert mp["lhd"] == p.H.id_map() @ p.A.eps
        assert mp["rhd"] == p.H.eps @ p.A.id_map()


@pytest.mark.parametrize("case", sorted(PAIRINGS))
def test_the_matched_pair_reports_the_datum_laws_past_its_factors(case):
    # validate_pairing has checked A and H, and H^op's laws are H's, so
    # the matched pair's report is the full datum report without its 14
    # b1-*/b2-* entries, entry for entry, witnesses included
    p = PAIRINGS[case]()
    mp = matched_pair_from_pairing(p)
    full = check_hopf_datum(HopfDatum(p.A, mp["h_op"], act_l=mp["rhd"],
                                      act_r=mp["lhd"])).entries
    assert [e.axiom[:3] for e in full[:14]] == ["b1-"] * 7 + ["b2-"] * 7
    assert mp["report"].entries == full[14:]


def test_the_induced_actions_are_evaluated_before_the_datum_check(
        monkeypatch):
    # lhd and rhd are read before the datum's laws, so each law applies
    # them as one evaluated factor and does not re-push their rows; the
    # maps returned are those evaluated maps
    seen, laws = [], twisting._datum_laws

    def spy(d):
        seen.append([linmaps._pending_rows(f) for f in (d.act_r, d.act_l)])
        return laws(d)

    monkeypatch.setattr(twisting, "_datum_laws", spy)
    mp = matched_pair_from_pairing(canonical_pairing(3))
    assert seen == [[None, None]]
    assert [linmaps._pending_rows(mp[k]) for k in ("lhd", "rhd")] == [
        None, None]


@pytest.mark.parametrize("case", ["sweedler", "sweedler-through-i2p2",
                                  "counit-kC2-kC3", "counit-kC3-kC3"])
def test_the_double_cross_product_is_a_twist_of_the_tensor_product(case):
    # the paper's closing remark, two routes to one product on A (x) H^op:
    # the cross product of the matched pair the pairing induces, and the
    # Doi-Takeuchi twist of the tensor product by
    # chi = eps_A (x) sigma^- (x) eps_{H^op}.  Degenerate forms agree too
    p = PAIRINGS[case]()
    H, A = p.H, p.A
    mp = matched_pair_from_pairing(p)
    h_op = mp["h_op"]
    double = HopfDatum(A, h_op, act_l=mp["rhd"], act_r=mp["lhd"]).product()
    T = tensor_structure(A, h_op)
    chi = rebind(A.eps @ pairing_inverse(p) @ H.eps, (T.space, T.space),
                 UNIT)
    twisted = twist(T, TwoCocycle(T, chi))
    D = double.space
    assert rebind(twisted.m, (D, D), (D,)) == double.m


# ---------------------------------------------------------------------------
# the double biproduct
# ---------------------------------------------------------------------------

def sweedler_rho(alpha):
    inp = sweedler_crossed_modules()
    sb, sc = inp.B.space, inp.C.space
    return inp.with_rho(LinMap((sb, sc), UNIT,
                               {(0, 0): ONE, (0, 3): as_scalar(alpha)}))


def test_sweedler_double_biproduct():
    for alpha in (ONE, Fraction(1, 2)):
        out = double_biproduct(sweedler_rho(alpha))
        Z = out["Z"]
        assert Z.dim == 8
        assert out["report"].ok, out["report"].failed()
        assert check_axioms(Z, "bialgebra").ok
        assert out["c_rtimes_h"].dim == 4
        assert out["h_ltimes_b"].dim == 4
        # both skew generators covalue in the same group-like, so the two
        # alpha-terms of the twisted product cancel and Z is untouched
        assert out["Z_twisted"].m == Z.m
        assert out["Z_twisted"].delta == Z.delta


def test_double_biproduct_requires_a_pairing():
    # a missing argument is malformed input (exit 2), not a failed law
    with pytest.raises(ShapeError, match="^no pairing rho supplied$") as exc:
        double_biproduct(sweedler_crossed_modules())
    assert exc.value.slot == "rho"
    assert isinstance(exc.value, InputError)
    assert not isinstance(exc.value, VerifiedFailure)


def test_unbalanced_pairing_is_refused_by_name():
    inp = sweedler_crossed_modules()
    sb, sc = inp.B.space, inp.C.space
    bad = LinMap((sb, sc), UNIT, {(0, 0): ONE, (0, 1): ONE})
    with pytest.raises(PreconditionError) as exc:
        double_biproduct(inp.with_rho(bad))
    assert "pairing-balance" in str(exc.value)


def test_braided_line_double_biproduct_twists_nontrivially():
    # Over kC4 the two lines covalue in g and g^3, so the alpha-terms of
    # the twisted product survive; the column of x_B * x_C was computed by
    # hand: x x' + alpha (1 g 1) - alpha (1 g^3 1).
    inp = braided_line_input(4)
    sb, sc = inp.B.space, inp.C.space
    rho = LinMap((sb, sc), UNIT, {(0, 0): ONE, (0, 3): ONE})
    out = double_biproduct(inp.with_rho(rho))
    Z = out["Z"]
    assert Z.dim == 16
    assert out["report"].ok, out["report"].failed()
    assert out["report"].entry("twisted-direct-agreement").ok
    tm = out["Z_twisted"].m
    assert tm != Z.m
    col = {r: v for (r, c), v in tm.entries.items() if c == 24}
    assert col == {9: ONE, 2: ONE, 6: -ONE}


@pytest.mark.parametrize("case", ["sweedler alpha=0", "sweedler alpha=1",
                                  "sweedler alpha=-1", "braided line N=4"])
def test_double_biproduct_is_the_public_twist_of_z_by_rho_hat(case):
    # double_biproduct lifts rho^- to rho_hat^- and solves nothing over
    # Z (x) Z; the lift must be what a fresh solve there gives, and the
    # public twist of Z by rho_hat with no stored inverse, which solves,
    # must give Z_twisted
    out = double_biproduct(FREE_PRODUCT_INPUTS[case]())
    Z, rho_hat = out["Z"], out["rho_hat"]
    assert _scalar_inverse(rho_hat.chi, tensor_structure(Z, Z)) == \
        rho_hat.chi_inv
    got, want = twist(Z, TwoCocycle(Z, rho_hat.chi)), out["Z_twisted"]
    assert (got.m, got.delta, got.S) == (want.m, want.delta, want.S)


def test_a_wrong_lift_of_rho_inverse_is_refused_by_name(monkeypatch):
    # one entry of rho^- (the form on B (x) C only) is off by 1; without the
    # certificate of the stored rho_hat^- over Z (x) Z it would surface only
    # as a failing twisted structure.  The lift is built by the package, so
    # the refusal is a ConsistencyError carrying the certificate
    inp = sweedler_rho(1)
    bc = (inp.B.space, inp.C.space)
    solve = twisting._scalar_inverse

    def off_by_one(f, coalg, *stored):
        inv = solve(f, coalg, *stored)
        if f.dom != bc:
            return inv
        entries = dict(inv.entries)
        entries[(0, 0)] = entries.get((0, 0), ZERO) + ONE
        return LinMap(inv.dom, inv.cod, entries)

    monkeypatch.setattr(twisting, "_scalar_inverse", off_by_one)
    with pytest.raises(ConsistencyError) as exc:
        double_biproduct(inp)
    assert str(exc.value) == "chi_inv fails convolution-right-inverse"
    rep = exc.value.report
    assert rep.failed() == ["convolution-right-inverse",
                            "convolution-left-inverse"]
    assert all(e.witness is not None for e in rep.entries)


def _twist_the_trivial_cocycle_on_kc2():
    g2 = group_algebra(2)
    return twist(g2, trivial_cocycle(g2))


def _sweedler_double_biproduct():
    return double_biproduct(sweedler_rho(1))


def _doubled_z(products):
    ch, hb, Z = products
    return ch, hb, dataclasses.replace(Z, m=doubled(Z.m))


def _failed_first_law(rep):
    return CheckReport((CheckEntry(rep.entries[0].axiom, False),)
                       + rep.entries[1:])


@pytest.mark.parametrize("target, wrong, call, head", [
    # a doubled chi^- doubles m^chi, and 2m breaks the unit laws
    ("_scalar_inverse", doubled,
     _twist_the_trivial_cocycle_on_kc2, "twisted structure fails "),
    ("_products", _doubled_z, _sweedler_double_biproduct,
     "assembled product fails "),
    # a doubled C><H -> Z is neither multiplicative nor a section of its
    # projection
    ("canonical_maps", lambda maps: (doubled(maps[0]),) + maps[1:],
     _sweedler_double_biproduct, "canonical morphism fails: "),
    ("_cocycle_report", _failed_first_law, _sweedler_double_biproduct,
     "cocycle fails "),
], ids=["twist", "product", "canonical", "rho_hat"])
def test_a_failed_check_of_a_built_object_carries_its_report(
        monkeypatch, target, wrong, call, head):
    right = getattr(twisting, target)
    monkeypatch.setattr(twisting, target, lambda *args: wrong(right(*args)))
    with pytest.raises(ConsistencyError) as exc:
        call()
    rep = exc.value.report
    assert rep is not None and not rep.ok
    assert str(exc.value) == head + rep.failed()[0]
    if target == "canonical_maps":
        assert rep.failed()[0] == "mono-c-side"
        assert rep.entry("mono-c-side").witness is not None


def test_a_direct_twisted_product_that_disagrees_is_refused(monkeypatch):
    direct = twisting._twisted_mult_direct
    monkeypatch.setattr(twisting, "_twisted_mult_direct",
                        lambda *args: doubled(direct(*args)))
    with pytest.raises(ConsistencyError) as exc:
        _sweedler_double_biproduct()
    assert str(exc.value) == ("direct twisted multiplication fails "
                              "twisted-direct-agreement")
    (entry,) = exc.value.report.entries
    assert entry.witness is not None
    assert entry.witness.lhs == 2 * entry.witness.rhs != 0


def test_a_failing_induced_datum_is_refused(monkeypatch):
    # the actions a pairing with a convolution inverse induces form a
    # matched pair, so datum laws planted as failing on the evaluation
    # pairing of kC3 and its dual are the package's own results
    # disagreeing, and the refusal carries the datum's entries
    monkeypatch.setattr(twisting, "_datum_laws",
                        lambda d: [CheckEntry("planted", False),
                                   CheckEntry("kept", True)])
    with pytest.raises(ConsistencyError) as exc:
        matched_pair_from_pairing(canonical_pairing(3))
    assert str(exc.value) == (
        "the induced actions are no matched pair: planted fails")
    assert [e.axiom for e in exc.value.report.entries] == ["planted", "kept"]


def free_product(C, H, B, b_act, b_coact, c_act, c_coact, bp, name):
    """The bialgebra C (x) H (x) B with the free-product structure maps,
    written as two 6-strand diagrams: the oracle of the cross products
    that double_biproduct builds."""
    sc, sh, sb = C.space, H.space, B.space
    idc, idh, idb = C.id_map(), H.id_map(), B.id_map()
    psi = bp.braiding
    m6 = pipeline_as_linmap([
        [idc, H.delta, psi(sb, sc), H.delta, idb],
        [idc, idh, psi(sh, sc), psi(sb, sh), idh, idb],
        [idc, c_act, H.m, b_act, idb],
        [C.m, idh, B.m],
    ])
    d6 = pipeline_as_linmap([
        [C.delta, idh, B.delta],
        [idc, c_coact, H.delta, b_coact, idb],
        [idc, idh, psi(sc, sh), psi(sh, sb), idh, idb],
        [idc, H.m, psi(sc, sb), H.m, idb],
    ])
    return fuse(Space(name, sc.dim * sh.dim * sb.dim), m6,
                C.eta @ H.eta @ B.eta, d6, C.eps @ H.eps @ B.eps)


def free_products(inp, bp=FLIP):
    """Z, C><H and H><B as free products; each one-sided product takes the
    one-dimensional bialgebra as its third factor, acted on and coacted
    by H through its counit and unit."""
    H, B, C = inp.H, inp.B, inp.C
    sh, sb, sc = H.space, B.space, C.space
    k = unit_bialgebra()
    sk = k.space
    Z = free_product(C, H, B, inp.b_act, inp.b_coact, inp.c_act,
                     inp.c_coact, bp, f"({sc.name}><{sh.name}><{sb.name})")
    ch = free_product(C, H, k, rebind(H.eps, (sk, sh), (sk,)),
                      rebind(H.eta, (sk,), (sk, sh)), inp.c_act,
                      inp.c_coact, bp, f"({sc.name}><{sh.name})")
    hb = free_product(k, H, B, inp.b_act, inp.b_coact,
                      rebind(H.eps, (sh, sk), (sk,)),
                      rebind(H.eta, (sk,), (sh, sk)), bp,
                      f"({sh.name}><{sb.name})")
    return {"Z": Z, "c_rtimes_h": ch, "h_ltimes_b": hb}


def _braided_line_rho(N):
    inp = braided_line_input(N)
    return inp.with_rho(LinMap((inp.B.space, inp.C.space), UNIT,
                               {(0, 0): ONE, (0, 3): ONE}))


FREE_PRODUCT_INPUTS = {
    **{f"sweedler alpha={a}": (lambda a=a: sweedler_rho(a))
       for a in (0, 1, -1)},
    **{f"braided line N={n}": (lambda n=n: _braided_line_rho(n))
       for n in (2, 4, 6)},
}


@pytest.mark.parametrize("case", sorted(FREE_PRODUCT_INPUTS))
def test_products_are_the_free_products(case):
    # Z, C><H and H><B are cross products of Hopf data; each must be the
    # free product on C (x) H (x) B entry for entry, in the same order and
    # with the same scalar types
    inp = FREE_PRODUCT_INPUTS[case]()
    out = double_biproduct(inp)
    for key, want in free_products(inp).items():
        got = out[key]
        assert got.space == want.space, key
        assert got.S is None and want.S is None, key
        for name in ("m", "eta", "delta", "eps"):
            f, g = getattr(got, name), getattr(want, name)
            assert (f.dom, f.cod) == (g.dom, g.cod), (key, name)
            assert list(f.entries.items()) == list(g.entries.items()), (
                key, name)
            assert ([repr(v) for v in f.entries.values()]
                    == [repr(v) for v in g.entries.values()]), (key, name)


def _pairing_sides():
    p = canonical_pairing(3)
    return p.H, p.A


def _sweedler_sides():
    inp = sweedler_crossed_modules()
    return inp.B, inp.C


def _q_line_sides():
    p, _ = braided_taft_pairing()
    return p.H, p.A


TENSOR_FACTORS = {
    "kC2.kC3": lambda: (group_algebra(2), group_algebra(3)),
    "pairing-H.A": _pairing_sides,
    "sweedler-B.C": _sweedler_sides,
    "q-lines-flip": _q_line_sides,
}


@pytest.mark.parametrize("case", sorted(TENSOR_FACTORS))
def test_tensor_coalgebra_is_the_tensor_structure_without_m(case):
    # the convolution inverses solve over tensor_structure, reading its
    # eta, delta and eps only, so its m stays pending through a solve; read
    # afterwards, m is the product as a pipeline of rows, entry for entry
    # and scalar repr for scalar repr
    a, b = TENSOR_FACTORS[case]()
    t = tensor_structure(a, b)
    k = unit_bialgebra()
    counit = rebind(a.eps @ b.eps, (t.space,), (k.space,))
    assert convolution_inverse(counit, t, k) == counit
    assert linmaps._pending_rows(t.m) is not None
    A, B = a.space, b.space
    want = rebind(run_pipeline([[a.id_map(), flip(B, A), b.id_map()],
                                [a.m, b.m]]), (t.space,) * 2, (t.space,))
    assert (t.m.dom, t.m.cod) == (want.dom, want.cod)
    assert [(key, repr(v)) for key, v in t.m.entries.items()] == [
        (key, repr(v)) for key, v in want.entries.items()]
    assert repr(t.m) == repr(want)


def test_unit_bialgebra_is_a_hopf_one():
    k = unit_bialgebra()
    assert k.dim == 1
    rep = check_axioms(k, "hopf")
    assert rep.ok, rep.failed()
