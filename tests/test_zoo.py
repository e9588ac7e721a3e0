import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from crossbial import scalars, zoo
from crossbial.crossproduct import (ProjectionSystem, bat_to_hopf_datum,
                                    decompose)
from crossbial.datum import HopfDatum, check_hopf_datum
from crossbial.linmaps import (LinMap, Space, UNIT, flatten, flip,
                               run_pipeline, unflatten)
from crossbial.scalars import q_binomial, root_of_unity
from crossbial.structures import (Structure, check_axioms, classify_morphism,
                                  convolution_inverse)
from crossbial.zoo import (
    OreParams,
    ParameterError,
    RadfordParams,
    UnsupportedError,
    _character,
    braided_line_input,
    dual_group_algebra,
    group_algebra,
    ore_finite,
    radford,
    sweedler_crossed_modules,
    taft_factor,
)
from tests.test_linmaps import invert

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the small catalogue entries
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_group_algebra_closed_form(n):
    H = group_algebra(n)
    assert H.dim == n
    assert H.m.entries == {((a + b) % n, a * n + b): ONE
                           for a in range(n) for b in range(n)}
    assert H.delta.entries == {(a * n + a, a): ONE for a in range(n)}
    assert H.S.entries == {((-a) % n, a): ONE for a in range(n)}
    rep = check_axioms(H, "hopf")
    assert rep.ok, rep.failed()


def test_dual_group_algebra_closed_form():
    # functions on C_N: pointwise product, convolution coproduct, the
    # constant function as unit and evaluation at 0 as counit
    for n in range(1, 9):
        s = Space(f"kC{n}*", n)
        H = dual_group_algebra(n)
        assert H.space == s
        assert H.m == LinMap((s, s), (s,),
                             {(a, a * n + a): ONE for a in range(n)})
        assert H.eta == LinMap(UNIT, (s,), {(a, 0): ONE for a in range(n)})
        assert H.delta == LinMap((s,), (s, s),
                                 {(b * n + (a - b) % n, a): ONE
                                  for a in range(n) for b in range(n)})
        assert H.eps == LinMap((s,), UNIT, {(0, 0): ONE})
        assert H.S == LinMap((s,), (s,),
                             {((-a) % n, a): ONE for a in range(n)})
    rep = check_axioms(dual_group_algebra(4), "hopf")
    assert rep.ok, rep.failed()


def test_taft_factor_carries_the_q_binomial_coproduct():
    q = root_of_unity(3, 1)
    T = taft_factor(3, q)
    assert T.m.entries == {(a + b, a * 3 + b): ONE
                           for a in range(3) for b in range(3) if a + b < 3}
    for k in range(3):
        for l in range(k + 1):
            assert T.delta.entry(l * 3 + (k - l), k) == q_binomial(k, l, q)
    assert check_axioms(T, "algebra").ok
    assert check_axioms(T, "coalgebra").ok
    # product and coproduct are only compatible through a braided backend
    assert "mult-comult" in check_axioms(T, "bialgebra").failed()


def test_taft_factor_requires_exact_order():
    with pytest.raises(ParameterError, match="^r must be a positive integer$"):
        taft_factor(0, 1)
    with pytest.raises(ParameterError):
        taft_factor(2, ONE)
    with pytest.raises(ParameterError):
        taft_factor(3, -ONE)          # order 2, not 3
    with pytest.raises(ParameterError):
        taft_factor(4, root_of_unity(8, 1))


# ---------------------------------------------------------------------------
# Radford's family
# ---------------------------------------------------------------------------

def test_radford_builds_a_hopf_algebra():
    for pars, dim in (((2, 1, 2, 1), 4), ((2, 1, 4, 1), 8), ((3, 1, 3, 1), 9)):
        out = radford(RadfordParams(*pars))
        assert out["H"].dim == dim
        rep = check_axioms(out["H"], "hopf")
        assert rep.ok, rep.failed()
        assert check_hopf_datum(out["datum"]).ok


def test_radford_morphism_matrix():
    out = radford(RadfordParams(2, 1, 2, 1))
    H, sysm, d = out["H"], out["system"], out["datum"]
    verdicts = {}
    for tag, f, src, dst in (("i1", sysm.i1, d.b1, H), ("i2", sysm.i2, d.b2, H),
                             ("p1", sysm.p1, H, d.b1), ("p2", sysm.p2, H, d.b2)):
        c = classify_morphism(f, src, dst)
        verdicts[tag] = (c["is_algebra_morphism"], c["is_coalgebra_morphism"])
    assert verdicts == {"i1": (True, False), "i2": (True, True),
                        "p1": (False, True), "p2": (True, True)}


def test_radford_parameter_validation():
    with pytest.raises(ParameterError):
        RadfordParams(2, 1, 3, 1)     # n does not divide N
    with pytest.raises(ParameterError):
        RadfordParams(4, 2, 4, 1)     # q_exponent shares a factor with n
    with pytest.raises(ParameterError):
        RadfordParams(3, 1, 3, 3)     # nu out of range


# ---------------------------------------------------------------------------
# finite Ore towers
# ---------------------------------------------------------------------------

def test_ore_finite_builds_sweedlers_algebra():
    out = ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))
    H = out["H"]
    assert H.dim == 4
    rep = check_axioms(H, "hopf")
    assert rep.ok, rep.failed()
    assert check_hopf_datum(out["datum"]).ok


def test_ore_morphism_matrix_mirrors_radford():
    out = ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))
    H, sysm, d = out["H"], out["system"], out["datum"]
    verdicts = {}
    for tag, f, src, dst in (("i1", sysm.i1, d.b1, H), ("i2", sysm.i2, d.b2, H),
                             ("p1", sysm.p1, H, d.b1), ("p2", sysm.p2, H, d.b2)):
        c = classify_morphism(f, src, dst)
        verdicts[tag] = (c["is_algebra_morphism"], c["is_coalgebra_morphism"])
    assert verdicts == {"i1": (True, True), "i2": (True, False),
                        "p1": (True, True), "p2": (False, True)}


def test_ore_tower_over_a_larger_group():
    out = ore_finite(OreParams((4,), 1, ((1,),), ((2,),)))
    assert out["H"].dim == 8
    rep = check_axioms(out["H"], "hopf")
    assert rep.ok, rep.failed()


def _c2xc2_pairing(ch, g):
    return (ch[0] * g[0] + ch[1] * g[1]) % 2


# every (g, g*) for t = 2 over C2 x C2 that ore_finite accepts: 6 with
# commuting skew generators, 18 with anticommuting ones
ORE_C2XC2_FAMILIES = [
    ((g1, g2), (s1, s2))
    for g1, g2, s1, s2 in itertools.product(
        ((0, 0), (1, 0), (0, 1), (1, 1)), repeat=4)
    if _c2xc2_pairing(s1, g1) == _c2xc2_pairing(s2, g2) == 1
    and _c2xc2_pairing(s1, g2) == _c2xc2_pairing(s2, g1)]


def test_ore_c2xc2_family_count():
    # x1 x2 = -x2 x1 exactly when g*_1 pairs nontrivially with g_2
    assert len(ORE_C2XC2_FAMILIES) == 24
    anti = [(g, s) for g, s in ORE_C2XC2_FAMILIES
            if _c2xc2_pairing(s[0], g[1]) == 1]
    assert len(anti) == 18


@pytest.mark.parametrize("g, g_star", ORE_C2XC2_FAMILIES)
def test_ore_c2xc2_two_generator_towers_are_hopf(g, g_star):
    H = ore_finite(OreParams((2, 2), 2, g, g_star))["H"]
    assert H.dim == 16
    rep = check_axioms(H, "hopf")
    assert rep.ok, rep.failed()


def test_ore_finiteness_criterion():
    with pytest.raises(UnsupportedError) as exc:
        ore_finite(OreParams((3,), 1, ((1,),), ((1,),)))
    assert "-1" in str(exc.value)


def test_ore_character_compatibility():
    bad = OreParams((2, 4), 2, ((1, 0), (0, 1)), ((1, 1), (0, 2)))
    with pytest.raises(ParameterError) as exc:
        ore_finite(bad)
    assert "g*_l(g_r)" in str(exc.value)


def test_ore_and_radford_are_isomorphic():
    # Sweedler's four-dimensional algebra arises from both constructions;
    # search the monomial candidates for a map preserving both structures.
    RH = radford(RadfordParams(2, 1, 2, 1))["H"]
    OH = ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))["H"]
    found = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((ONE, -ONE), repeat=4):
            f = LinMap((OH.space,), (RH.space,),
                       {(perm[c], c): signs[c] for c in range(4)})
            c = classify_morphism(f, OH, RH)
            if c["is_algebra_morphism"] and c["is_coalgebra_morphism"]:
                found.append(f)
    assert len(found) == 2            # the pair differs by x -> -x
    for f in found:
        invert(f)                     # raises if singular


# Two C4 x C4 towers with t = 2 whose braiding is asymmetric,
# g*_l(g_r) != g*_r(g_l) for l != r: over them the coefficient of
# X^beta (x) X^(alpha - beta) in Delta(X^alpha) differs from its inverse
ORE_ASYMMETRIC = [
    ((4, 4), 2, ((0, 1), (1, 0)), ((1, 2), (2, 3))),
    ((4, 4), 2, ((0, 1), (1, 1)), ((1, 2), (1, 1))),
]


@pytest.mark.parametrize("pars", ORE_ASYMMETRIC)
def test_ore_towers_with_an_asymmetric_braiding_are_hopf(pars):
    p = OreParams(*pars)
    gram = [[_character(p.group, p.g_star[l], p.g[r]) for r in range(2)]
            for l in range(2)]
    assert gram[0][1] != gram[1][0]
    out = ore_finite(p)
    assert out["H"].dim == 64
    rep = check_axioms(out["H"], "hopf")
    assert rep.ok, rep.failed()
    assert check_hopf_datum(out["datum"]).ok


def ore_by_hand(params: OreParams) -> dict:
    """The finite Ore tower as ore_finite built it before it was the cross
    product of its datum: the product table on the normal form c X^alpha
    written out, the coproduct extended multiplicatively from
    Delta(x_j) = x_j (x) g_j + 1 (x) x_j, and the datum read off the
    splitting through decompose.  The oracle of ore_finite."""
    ONE = scalars.ONE  # the package's int 1, not this module's Fraction
    orders, t = params.group, params.t
    gram = [[_character(orders, params.g_star[l], params.g[r_])
             for r_ in range(t)] for l in range(t)]
    for j in range(t):
        if gram[j][j] != -ONE:
            raise UnsupportedError(
                "finite-dimensional only when g*_j(g_j) = -1 for every j "
                "(this is what truncates each generator to x_j^2 = 0); "
                f"generator {j} has g*_{j}(g_{j}) = {gram[j][j]}")
    for l in range(t):
        for r_ in range(t):
            if gram[l][r_] * gram[r_][l] != ONE:
                raise ParameterError(
                    f"characters must satisfy g*_l(g_r) g*_r(g_l) = 1; "
                    f"violated at (l, r) = ({l}, {r_})")

    nC = prod(orders)
    # a group element is an exponent tuple, its basis index that tuple
    # flattened over orders; elts lists the elements by index
    elts = [unflatten(c, orders) for c in range(nC)]
    gs = [tuple(a % o for a, o in zip(e, orders)) for e in params.g]

    def cadd(x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, orders))

    def cneg(x):
        return tuple((-a) % o for a, o in zip(x, orders))

    nX, dim = 1 << t, params.dim
    gname = "x".join(str(o) for o in orders)
    s = Space(f"Ore(C{gname};t={t})", dim)

    def bits(mask: int):
        return [j for j in range(t) if mask >> j & 1]

    def F(mask: int, c: int) -> int:
        return mask * nC + c

    ment = {}
    for mask_a in range(nX):
        for mask_b in range(nX):
            if mask_a & mask_b:
                continue
            sign = ONE
            for j in bits(mask_a):
                for k in bits(mask_b):
                    if j > k:
                        sign = sign * gram[j][k]
            for d in range(nC):
                coeff = sign
                for j in bits(mask_a):
                    coeff = coeff * _character(orders, params.g_star[j],
                                               elts[d])
                for c in range(nC):
                    cd = flatten(cadd(elts[c], elts[d]), orders)
                    ment[(F(mask_a | mask_b, cd),
                          F(mask_a, c) * dim + F(mask_b, d))] = coeff
    mH = LinMap((s, s), (s,), ment)

    # delta(c X^alpha) is delta(c) times each delta(x_j), j in alpha, in
    # the algebra H (x) H
    P, P2 = (s,), (s, s)
    i = LinMap.identity(P)
    mult2 = [[i, flip(s, s), i], [mH, mH]]
    dgen = [LinMap(UNIT, P2, {(F(1 << j, 0) * dim
                               + F(0, flatten(gs[j], orders)), 0): ONE,
                              (F(1 << j, 0), 0): ONE})
            for j in range(t)]
    dent = {}
    for mask in range(nX):
        for c in range(nC):
            acc = LinMap(UNIT, P2, {(F(0, c) * (dim + 1), 0): ONE})
            for j in bits(mask):
                acc = run_pipeline([[acc @ dgen[j]]] + mult2)
            for (row, _), v in acc.entries.items():
                dent[(row, F(mask, c))] = v
    deltaH = LinMap((s,), (s, s), dent)
    etaH = LinMap(UNIT, (s,), {(F(0, 0), 0): ONE})
    epsH = LinMap((s,), UNIT, {(0, F(0, c)): ONE for c in range(nC)})

    sent = {}
    for mask in range(nX):
        for c in range(nC):
            acc = LinMap(UNIT, P, {(F(0, flatten(cneg(elts[c]), orders)),
                                    0): ONE})
            for j in bits(mask):
                # S(x_j) = -x_j g_j^{-1} = g_j^{-1} x_j in normal form
                sxj = LinMap(UNIT, P, {(F(1 << j, flatten(cneg(gs[j]),
                                                          orders)), 0): ONE})
                acc = mH * (sxj @ acc)
            for (row, _), v in acc.entries.items():
                sent[(row, F(mask, c))] = v
    H = Structure(s, mH, etaH, deltaH, epsH, LinMap((s,), (s,), sent))

    sg = Space(f"kC{gname}", nC)
    sl = Space(f"Lam{t}", nX)
    i1 = LinMap((sg,), (s,), {(F(0, c), c): ONE for c in range(nC)})
    p1 = LinMap((s,), (sg,), {(c, F(0, c)): ONE for c in range(nC)})
    i2 = LinMap((sl,), (s,), {(F(mask, 0), mask): ONE
                              for mask in range(nX)})
    p2 = LinMap((s,), (sl,), {(mask, F(mask, c)): ONE
                              for mask in range(nX) for c in range(nC)})
    system = ProjectionSystem(i1, i2, p1, p2)

    datum = bat_to_hopf_datum(decompose(H, system).bat)
    return {"H": H, "system": system, "datum": datum}


def _scalars(f: LinMap):
    """f's strands and its entries with each scalar's type and repr."""
    return f.dom, f.cod, {k: (type(v), repr(v)) for k, v in f.entries.items()}


def _structure_scalars(st: Structure):
    return st.space, [None if f is None else _scalars(f)
                      for f in (st.m, st.eta, st.delta, st.eps, st.S)]


def _tower_scalars(out: dict):
    sysm, d = out["system"], out["datum"]
    return (_structure_scalars(out["H"]),
            [_scalars(f) for f in (sysm.i1, sysm.i2, sysm.p1, sysm.p2)],
            _structure_scalars(d.b1), _structure_scalars(d.b2),
            [_scalars(f) for f in (d.act_l, d.coact_l, d.act_r, d.coact_r)])


ORE_TOWERS = [((2, 2), 2) + fam for fam in ORE_C2XC2_FAMILIES] + [
    ((2,), 1, ((1,),), ((1,),)), ((4,), 1, ((1,),), ((2,),)),
    ((4,), 1, ((2,),), ((1,),)), ((6,), 1, ((3,),), ((1,),)),
    ((2, 2, 2), 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1)))] + ORE_ASYMMETRIC


@pytest.mark.parametrize("pars", ORE_TOWERS)
def test_ore_finite_matches_the_tower_written_by_hand(pars):
    p = OreParams(*pars)
    assert _tower_scalars(ore_finite(p)) == _tower_scalars(ore_by_hand(p))


def factor_antipodes(monkeypatch, build, params):
    """The datum a tower builder hands HopfDatum.product and the factors'
    antipodes it hands along with it."""
    seen, product = [], HopfDatum.product

    def spy(d, name=None, antipodes=None):
        seen.append((d, antipodes))
        return product(d, name, antipodes)

    monkeypatch.setattr(HopfDatum, "product", spy)
    build(params)
    [(d, antipodes)] = seen
    return d, antipodes


def assert_braided_antipodes(d, antipodes):
    # each closed form is the convolution inverse of its factor's identity,
    # the factor's braided antipode
    for b, S in zip((d.b1, d.b2), antipodes):
        assert S == convolution_inverse(b.id_map(), b, b), b.space.name


# the Taft factor x^r = 0 at r = 2, 3, 4 and 8, with p = q^nu of
# conductor 1 (p = -1), 3, 4 and 8
@pytest.mark.parametrize("pars", [(2, 1, 2, 1), (3, 1, 3, 1), (4, 1, 4, 1),
                                  (8, 1, 8, 1)])
def test_radford_hands_the_product_its_factors_braided_antipodes(
        monkeypatch, pars):
    d, antipodes = factor_antipodes(monkeypatch, radford, RadfordParams(*pars))
    assert d.b1.space.dim == pars[0]
    assert_braided_antipodes(d, antipodes)


# the exterior factor's coproduct carries the tower's braiding
@pytest.mark.parametrize("pars", ORE_TOWERS)
def test_ore_finite_hands_the_product_its_factors_braided_antipodes(
        monkeypatch, pars):
    assert_braided_antipodes(
        *factor_antipodes(monkeypatch, ore_finite, OreParams(*pars)))


# ---------------------------------------------------------------------------
# double-biproduct inputs
# ---------------------------------------------------------------------------

def test_braided_line_input_at_two_is_the_sweedler_configuration():
    a, b = braided_line_input(2), sweedler_crossed_modules()
    assert a.H == b.H
    for field in ("b_act", "b_coact", "c_act", "c_coact"):
        assert getattr(a, field).entries == getattr(b, field).entries
    assert a.rho is None and b.rho is None


def test_sweedler_input_builds_no_radford_or_ore_tower(monkeypatch):
    # the Sweedler input is the braided line pair at N = 2; it needs
    # neither tower, only its own spaces
    def no_tower(params):
        raise AssertionError(f"built a tower for {params}")

    monkeypatch.setattr(zoo, "radford", no_tower)
    monkeypatch.setattr(zoo, "ore_finite", no_tower)
    inp = sweedler_crossed_modules()
    assert [s.space.name for s in (inp.B, inp.C, inp.H)] == \
        ["SwB", "SwC", "kC2"]


def test_braided_line_input_rejects_odd_periods():
    with pytest.raises(ParameterError):
        braided_line_input(3)
    with pytest.raises(ParameterError):
        braided_line_input(0)


def test_zoo_splittings_roundtrip_through_decompose():
    # Sweedler's algebra both ways, the C4 tower, one commuting and one
    # anticommuting C2 x C2 family, and both asymmetric C4 x C4 families:
    # each tower is the cross product of its datum, so decompose must find
    # that datum again on the canonical splitting
    towers = [radford(RadfordParams(2, 1, 2, 1))] + [
        ore_finite(OreParams(*p)) for p in (
            ((2,), 1, ((1,),), ((1,),)), ((4,), 1, ((2,),), ((1,),)),
            ((2, 2), 2, ((1, 0), (0, 1)), ((1, 0), (0, 1))),
            ((2, 2), 2, ((1, 0), (0, 1)), ((1, 1), (1, 1))),
            *ORE_ASYMMETRIC)]
    for out in towers:
        res = decompose(out["H"], out["system"])
        assert bat_to_hopf_datum(res.bat) == out["datum"]
        A, sysm, b1, b2 = out["H"], out["system"], res.bat.b1, res.bat.b2
        assert res.verdicts == (classify_morphism(sysm.i1, b1, A),
                                classify_morphism(sysm.i2, b2, A),
                                classify_morphism(sysm.p1, A, b1),
                                classify_morphism(sysm.p2, A, b2))
