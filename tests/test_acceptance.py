"""End-to-end acceptance gate: one test per shipped guarantee.

Each test is self-contained and asserts exact (never approximate)
equality; timings that are part of the guarantee are asserted with wall
clocks.  Degenerate corners of the pattern catalogue are asserted with
their honestly observed patterns.
"""

import dataclasses
import io
import json
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from crossbial import datum
from crossbial.cli import main
from crossbial.crossproduct import (build_bialgebra, decompose,
                                    verify_trivalent_equivalences)
from crossbial.datum import (
    HopfDatum,
    _trivial_forms,
    build_phi_superoperator,
    check_hopf_datum,
    classify,
    induced_structures,
    phi_apply,
    recursion_order,
    sop_compose,
    trivial_datum,
)
from crossbial.linmaps import LinMap, Space, UNIT, flatten, rebind
from crossbial.scalars import root_of_unity
from crossbial.structures import (
    PreconditionError,
    Structure,
    check_axioms,
    classify_morphism,
    convolution_inverse,
    tensor_structure,
    yd_provider,
)
from crossbial.twisting import (
    DualPairing,
    TwoCocycle,
    cocycle_inverse,
    double_biproduct,
    matched_pair_from_pairing,
    pairing_inverse,
    twist,
    validate_cocycle,
    validate_pairing,
)
from crossbial.zoo import (
    OreParams,
    RadfordParams,
    dual_group_algebra,
    group_algebra,
    ore_finite,
    radford,
    sweedler_crossed_modules,
    taft_factor,
)
from tests.test_datum import group_hopf, random_endo, unit_hopf

ONE = Fraction(1)

RADFORD_SUITE = ((2, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1))


def spy_scalar_types(monkeypatch, types):
    """Until monkeypatch is undone, add to types the type of every entry of
    every map made, and of every superoperator column dict built or
    composed.  LinMap.__init__ refuses an inexact entry itself, so it is
    the unchecked constructor that is spied on."""
    trusted = LinMap._trusted.__func__

    def spy_trusted(cls, dom, cod, entries, ones=None):
        types.update(map(type, entries.values()))
        return trusted(cls, dom, cod, entries, ones)

    def columns(fn):
        def spy(*args):
            out = fn(*args)
            cols = getattr(out, "phi", out)
            for col in cols.values():
                types.update(map(type, col.values()))
            return out
        return spy

    monkeypatch.setattr(LinMap, "_trusted", classmethod(spy_trusted))
    for name in ("build_phi_superoperator", "sop_compose"):
        spied = columns(getattr(datum, name))
        monkeypatch.setattr(datum, name, spied)
        monkeypatch.setattr(sys.modules[__name__], name, spied)


@pytest.fixture(autouse=True)
def record_scalar_types(request, monkeypatch, scalar_types):
    # each scenario runs once, under the spies; tests/test_no_float.py
    # checks what they saw
    spy_scalar_types(monkeypatch, scalar_types.setdefault(
        request.function.__name__, set()))


def zoo_datums():
    out = [radford(RadfordParams(*pars))["datum"] for pars in RADFORD_SUITE]
    out.append(ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))["datum"])
    return out


def canonical_pairing(N):
    """kC_N paired with its function algebra by evaluation."""
    H, A = group_algebra(N), dual_group_algebra(N)
    form = LinMap((H.space, A.space), UNIT,
                  {(0, a * N + a): ONE for a in range(N)})
    return DualPairing(H, A, form)


def braided_taft_pairing():
    """Two copies of the q-line over kC3 under the Yetter-Drinfeld
    braiding, paired by <x^i, y^j> = delta_ij [i]_q!."""
    z = root_of_unity(3, 1)
    host = group_algebra(3)
    h = host.space

    def copy(name):
        T = taft_factor(3, z)
        s = Space(name, 3)
        st = Structure(s, LinMap((s, s), (s,), T.m.entries),
                       LinMap(UNIT, (s,), T.eta.entries),
                       LinMap((s,), (s, s), T.delta.entries),
                       LinMap((s,), UNIT, T.eps.entries))
        act = LinMap((s, h), (s,),
                     {(i, flatten((i, c), (3, 3))): z ** (i * c)
                      for i in range(3) for c in range(3)})
        coact = LinMap((s,), (s, h),
                       {(flatten((i, i), (3, 3)), i): ONE for i in range(3)})
        return st, act, coact

    T1, act1, coact1 = copy("TaftH")
    T2, act2, coact2 = copy("TaftA")
    prov = yd_provider(host, [(T1.space, act1, coact1),
                              (T2.space, act2, coact2)])
    form = LinMap((T1.space, T2.space), UNIT,
                  {(0, 0): ONE, (0, 4): ONE, (0, 8): ONE + z})
    return DualPairing(T1, T2, form), prov


def test_radford_suite():
    # Build each catalogue member, verify the Hopf axioms, split it back
    # into its factors, cross-check the trivalence verdicts, and pin the
    # morphism types of the four split maps; all within five seconds.
    t0 = time.perf_counter()
    for pars in RADFORD_SUITE:
        out = radford(RadfordParams(*pars))
        H, sysm, d = out["H"], out["system"], out["datum"]
        rep = check_axioms(H, "hopf")
        assert rep.ok, (pars, rep.failed())
        res = decompose(H, sysm)
        assert res.iso == H.m * (sysm.i1 @ sysm.i2)
        eq = verify_trivalent_equivalences(H, sysm)
        assert eq.ok, (pars, eq.failed())
        verdicts = {}
        for tag, f, src, dst in (
                ("i1", sysm.i1, d.b1, H), ("i2", sysm.i2, d.b2, H),
                ("p1", sysm.p1, H, d.b1), ("p2", sysm.p2, H, d.b2)):
            c = classify_morphism(f, src, dst)
            verdicts[tag] = (c["is_algebra_morphism"],
                             c["is_coalgebra_morphism"])
        assert verdicts == {"i1": (True, False), "i2": (True, True),
                            "p1": (False, True), "p2": (True, True)}, pars
    assert time.perf_counter() - t0 < 5


def test_recursion_fixed_points():
    # The two canonical product maps are fixed by the recursion operator
    # on every catalogue datum, and conjugation by the corner projector
    # commutes with one application on twenty random exact endomorphisms.
    for d in zoo_datums():
        ind = induced_structures(d)
        f1 = ind.delta_B * ind.m_B
        assert phi_apply(d, f1) == f1
        s1, s2 = d.b1.space, d.b2.space
        id12 = d.b1.id_map() @ d.b2.id_map()
        psi4 = d.braiding.braiding_list((s1, s2), (s1, s2))
        f2 = ((ind.m_B @ ind.m_B) * (id12 @ psi4 @ id12)
              * (ind.delta_B @ ind.delta_B))
        assert phi_apply(d, f2) == f2

    rng = random.Random(2026)
    small = (radford(RadfordParams(2, 1, 2, 1))["datum"],
             ore_finite(OreParams((2,), 1, ((1,),), ((1,),)))["datum"])
    for d in small:
        pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
              @ d.b2.unit_counit())
        for _ in range(10):
            f = random_endo(d.quad, rng)
            assert pi * phi_apply(d, f) * pi == pi * f * pi


def test_recursion_orders():
    # The doubled ground field is recursive of order zero; every
    # nontrivial catalogue datum has order in {1, 2}, and the operator
    # stabilises at the computed order: Phi^(n+1) = Phi^n exactly.
    k = unit_hopf()
    assert recursion_order(trivial_datum(k, k), 4) == {"order": 0}
    for d in zoo_datums():
        res = recursion_order(d, 4)
        n = res.get("order")
        assert n in (1, 2), res
        sop = build_phi_superoperator(d)
        power = sop.phi
        for _ in range(n - 1):
            power = sop_compose(power, sop.phi)
        assert sop_compose(power, sop.phi) == power


def test_interaction_pattern_catalogue():
    # One instance per reachable corner of the pattern table, each built
    # and verified exactly.  Two nominal corners degenerate: the group /
    # dual matched pair of an abelian group has trivial actions (its
    # double is a plain tensor product), and the group factorization
    # S3 = C3 . C2 has a one-sided action, so their honest patterns are
    # asserted instead of the nominal box labels.
    d0 = trivial_datum(group_hopf(2), group_hopf(3))
    assert check_hopf_datum(d0).ok
    assert classify(d0) == {"pattern": "0000", "family": "tensor-product"}
    st0 = build_bialgebra(d0)
    assert st0.m.entries == tensor_structure(
        group_hopf(2), group_hopf(3)).m.entries

    d1 = radford(RadfordParams(2, 1, 2, 1))["datum"]
    assert classify(d1) == {"pattern": "1010", "family": "biproduct"}
    assert check_axioms(build_bialgebra(d1), "bialgebra").ok

    # matched pair of kC3 with its dual, from the evaluation pairing
    mp = matched_pair_from_pairing(canonical_pairing(3))
    assert mp["is_matched_pair"] is True
    H3, A3 = group_algebra(3), dual_group_algebra(3)
    triv = _trivial_forms(A3, H3)
    d2 = HopfDatum(A3, H3, mp["rhd"], triv["coact_l"],
                   mp["lhd"], triv["coact_r"])
    assert check_hopf_datum(d2).ok
    assert classify(d2)["pattern"] == "0000"      # degenerate: abelian
    assert check_axioms(build_bialgebra(d2), "bialgebra").ok

    # bicross datum of the factorization S3 = C3 . C2, derived by
    # enumerating the six permutations and factoring each product
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))
    c, t = (1, 2, 0), (1, 0, 2)
    A = [(0, 1, 2), c, compose(c, c)]
    Hs = [(0, 1, 2), t]
    assert len({compose(a, h) for a in A for h in Hs}) == 6
    table = {}
    for ai, a in enumerate(A):
        prod = compose(t, a)
        hits = [(aj, hj) for aj, a2 in enumerate(A)
                for hj, h2 in enumerate(Hs) if compose(a2, h2) == prod]
        assert len(hits) == 1
        table[ai] = hits[0]
    assert table == {0: (0, 1), 1: (2, 1), 2: (1, 1)}  # conjugation inverts
    b1, b2 = group_algebra(2), dual_group_algebra(3)
    trv = _trivial_forms(b1, b2)
    ent = {}
    for a in range(3):
        for e in range(2):
            target = a if e == 0 else table[a][0]
            ent[(target, flatten((a, e), (3, 2)))] = ONE
    d3 = HopfDatum(b1, b2, trv["act_l"], trv["coact_l"],
                   LinMap((b2.space, b1.space), (b2.space,), ent),
                   trv["coact_r"])
    assert check_hopf_datum(d3).ok
    assert classify(d3)["pattern"] == "0001"      # degenerate: C3 normal
    st3 = build_bialgebra(d3)
    assert check_axioms(st3, "bialgebra").ok
    assert st3.dim == 6
    flipP = LinMap((st3.space, st3.space), (st3.space, st3.space),
                   {(u * 6 + v, v * 6 + u): ONE
                    for u in range(6) for v in range(6)})
    assert st3.m * flipP != st3.m                 # noncommutative
    assert flipP * st3.delta == st3.delta         # cocommutative

    # the remaining corner (both coactions plus one action) admits no
    # extension of the Radford datum in the whole candidate family of
    # counit-normalised right coactions with small coefficients
    vals = [Fraction(0), ONE, -ONE, Fraction(2), -Fraction(2),
            Fraction(1, 2), -Fraction(1, 2)]
    passing = []
    for beta in vals:
        for gamma in vals:
            if beta == 0 and gamma == 0:
                continue
            cent = {(flatten((0, 0), (2, 2)), 0): ONE,
                    (flatten((1, 0), (2, 2)), 1): ONE}
            if beta:
                cent[(flatten((1, 1), (2, 2)), 1)] = beta
            if gamma:
                cent[(flatten((0, 1), (2, 2)), 1)] = gamma
            cand = dataclasses.replace(
                d1, coact_r=LinMap((d1.b2.space,),
                                   (d1.b2.space, d1.b1.space), cent))
            if check_hopf_datum(cand).ok:
                passing.append((beta, gamma))
    assert passing == []


def test_cocycle_twisting_suite():
    # Trivial cocycle: identity twist.  Bicharacter on k(C4 x C4):
    # validates, twists (group-likes absorb it), and the inverse cocycle
    # undoes the twist map-for-map; all within five seconds.
    t0 = time.perf_counter()
    g3 = group_algebra(3)
    s = g3.space
    triv = TwoCocycle(g3, LinMap((s, s), UNIT, (g3.eps @ g3.eps).entries))
    assert validate_cocycle(triv).ok
    tw0 = twist(g3, triv)
    assert tw0.m == g3.m and tw0.S == g3.S

    N = 4
    z = root_of_unity(N, 1)
    gg = tensor_structure(group_algebra(N), group_algebra(N))
    P = gg.space
    ent = {}
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    col = (a * N + b) * N * N + (c * N + d)
                    ent[(0, col)] = z ** (b * c)
    chi = TwoCocycle(gg, LinMap((P, P), UNIT, ent))
    assert validate_cocycle(chi).ok
    tw = twist(gg, chi)
    assert check_axioms(tw, "hopf").ok
    back = twist(tw, TwoCocycle(gg, cocycle_inverse(chi)))
    assert back.m == gg.m
    assert back.delta == gg.delta
    assert back.S == gg.S
    assert time.perf_counter() - t0 < 5


def test_pairings_induce_matched_pairs():
    # Over the flip a pairing whose form has a convolution inverse induces a
    # matched pair, degenerate or not: the evaluation pairing of a group
    # algebra with its dual, that of a noncommutative Hopf algebra with the
    # transpose of its op-cop (Sweedler's H4 = Radford(2,1,2,1), Taft's
    # T3 = Radford(3,1,3,1) and Radford(2,1,4,1)), and the counit pairing
    # of kC2 with kC3, of rank 1.  Pairings live over the flip, where the
    # q-line is no bialgebra, so its self-pairing is refused before any
    # verdict.
    from tests.test_builders import evaluation_pairing_of_the_op_cop_dual

    op_cop = [evaluation_pairing_of_the_op_cop_dual(
        radford(RadfordParams(*pars))["H"])
        for pars in ((2, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1))]
    H, A = group_algebra(2), group_algebra(3)
    counit = DualPairing(H, A, H.eps @ A.eps)
    for p in [canonical_pairing(N) for N in (2, 3, 5)] + op_cop + [counit]:
        mp = matched_pair_from_pairing(p)
        assert mp["is_matched_pair"] is True
        assert mp["braiding_involutive"] is True
    p, _ = braided_taft_pairing()
    with pytest.raises(PreconditionError) as exc:
        validate_pairing(p)
    assert str(exc.value) == "H fails mult-comult"


def test_double_biproduct_suite():
    # The Sweedler-type input with rho(x (x) x) = alpha for alpha in
    # {0, 1, -1}: the double-braiding condition and the pairing laws
    # hold, the assembled product passes every bialgebra axiom, the
    # induced cocycle validates, and the twist route agrees with the
    # direct twisted-multiplication formula matrix-for-matrix; all
    # within ten seconds.
    t0 = time.perf_counter()
    inp = sweedler_crossed_modules()
    sb, sc = inp.B.space, inp.C.space
    for alpha in (Fraction(0), ONE, -ONE):
        rho = LinMap((sb, sc), UNIT, {(0, 0): ONE, (0, 3): alpha})
        out = double_biproduct(inp.with_rho(rho))
        rep = out["report"]
        assert rep.ok, (alpha, rep.failed())
        assert rep.entry("double-braiding-trivial").ok
        assert rep.entry("pairing-balance").ok
        assert rep.entry("2cocycle1").ok
        assert rep.entry("twisted-direct-agreement").ok
        Z = out["Z"]
        assert Z.dim == 8
        assert check_axioms(Z, "bialgebra").ok
        assert validate_cocycle(out["rho_hat"]).ok
    assert time.perf_counter() - t0 < 10


def test_convolution_inverse_of_the_standard_pairing():
    # The linear solve for the convolution inverse of the evaluation
    # pairing lands exactly on the antipode-composed form, and the
    # classical special case recovers the antipode itself.
    p = canonical_pairing(5)
    pinv = pairing_inverse(p)
    assert pinv == p.form * (p.H.S @ p.A.id_map())
    H = radford(RadfordParams(2, 1, 2, 1))["H"]
    assert convolution_inverse(H.id_map(), H, H) == H.S
    g6 = group_algebra(6)
    assert convolution_inverse(g6.id_map(), g6, g6) == g6.S


def cli_json(*argv):
    """Exit code and json report of one command, its stderr dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


def test_dim_64_commands():
    # Radford(8,1,8,1), of dim 64, through the CLI: build it, then check
    # its Hopf axioms, split it, cross-check the trivalence verdicts and
    # check its datum, each exit 0 with a passing report; all within
    # GATE_64 seconds.
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        rad, parts = (os.path.join(tmp, f) for f in ("rad.json", "parts.json"))
        for argv in (["zoo", "build", "radford", "--n", "8", "--q-exp", "1",
                      "--N", "8", "--nu", "1", "-o", rad],
                     ["check", "hopf", "--in", rad],
                     ["cross", "decompose", "--in", rad, "-o", parts],
                     ["cross", "trivalent", "--in", rad],
                     ["datum", "check", "--in", rad]):
            code, doc = cli_json(*argv)
            assert (code, doc["verdict"]) == (0, "pass"), argv
    assert time.perf_counter() - t0 < GATE_64


# seconds; the scenario took 1.9-2.4 s when the gate was set (2-vCPU VM),
# and about 10 s with associativity and mult-comult as full diagrams
GATE_64 = 5


def test_the_dim_64_drinfeld_double_two_ways():
    # D(H) for H = Radford(2,1,4,1), of dim 64, by the paper's closing
    # remark: the double cross product of the matched pair (A, H^op) that
    # the evaluation pairing of H with A = dual(H) induces, and the
    # Doi-Takeuchi twist of A (x) H^op by chi = eps_A (x) sigma^- (x)
    # eps_{H^op}, whose inverse is solved over T (x) T, of dim 4096.  The
    # two agree entry for entry, within GATE_DOUBLE seconds
    from tests.test_builders import evaluation_pairing_of_the_op_cop_dual

    t0 = time.perf_counter()
    p = evaluation_pairing_of_the_op_cop_dual(
        radford(RadfordParams(2, 1, 4, 1))["H"])
    H, A = p.H, p.A
    mp = matched_pair_from_pairing(p)
    double = HopfDatum(A, mp["h_op"], act_l=mp["rhd"],
                       act_r=mp["lhd"]).product()
    T = tensor_structure(A, mp["h_op"])
    chi = rebind(A.eps @ pairing_inverse(p) @ H.eps, (T.space, T.space),
                 UNIT)
    twisted = twist(T, TwoCocycle(T, chi))
    D = double.space
    assert D.dim == 64
    assert rebind(twisted.m, (D, D), (D,)) == double.m
    assert rebind(twisted.eta, UNIT, (D,)) == double.eta
    assert rebind(twisted.delta, (D,), (D, D)) == double.delta
    assert rebind(twisted.eps, (D,), UNIT) == double.eps
    assert time.perf_counter() - t0 < GATE_DOUBLE


# seconds; the scenario took 2.6 s when the gate was set (2-vCPU VM), and
# about a minute at 5 GB while each solve re-checked T (x) T as a coalgebra
GATE_DOUBLE = 10
