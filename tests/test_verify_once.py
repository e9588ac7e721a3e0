"""Each precondition is checked once, by the call that receives the data.

A spy stands in for check_axioms in every module that imports it and
records each call.  A call re-checks when an earlier call in the same chain
already passed on the same object with the same braiding and a kind at least
as strong (hopf covers bialgebra, which covers algebra and coalgebra).
"""

import dataclasses
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crossbial import (cli, crossproduct, datum, linmaps, structures,
                       twisting, zoo)
from crossbial.datum import ConsistencyError, check_hopf_datum
from crossbial.linmaps import FLIP, UNIT, LinMap, VectFlip, flip
from crossbial.scalars import root_of_unity
from crossbial.twisting import (DualPairing, TwoCocycle, cocycle_inverse,
                                double_biproduct, matched_pair_from_pairing,
                                pairing_inverse, twist, validate_cocycle)
from crossbial.zoo import (RadfordParams, dual_group_algebra, group_algebra,
                           radford)
from tests.test_acceptance import braided_taft_pairing, canonical_pairing
from tests.test_datum import unit_hopf
from tests.test_linmaps import doubled
from tests.test_twisting import (bicharacter_cocycle, coboundary_cocycle,
                                 sweedler_rho)

ONE = Fraction(1)

COVERS = {"hopf": {"hopf", "bialgebra", "algebra", "coalgebra"},
          "bialgebra": {"bialgebra", "algebra", "coalgebra"},
          "algebra": {"algebra"},
          "coalgebra": {"coalgebra"}}


def braiding_key(bp, psi):
    if psi is not None:
        return psi
    return "flip" if bp is None or type(bp) is VectFlip else bp


class AxiomSpy:
    """check_axioms with a record of the verdicts it has handed out."""

    def __init__(self, orig):
        self.orig = orig
        self.calls = 0
        self.checked = []   # (structure, kind) of every call, kept alive
        self.passed = []    # (structure, kind, braiding key), kept alive
        self.repeats = []

    def cover(self, s, kind, bp=FLIP, psi=None):
        self.passed.append((s, kind, braiding_key(bp, psi)))

    def __call__(self, s, kind, bp=FLIP, psi=None):
        self.calls += 1
        self.checked.append((s, kind))
        key = braiding_key(bp, psi)
        if any(st is s and kind in COVERS[k] and (b is key or b == key)
               for st, k, b in self.passed):
            self.repeats.append((s.space.name, kind))
        rep = self.orig(s, kind, bp, psi)
        if rep.ok:
            self.cover(s, kind, bp, psi)
        return rep


@pytest.fixture
def spy(monkeypatch):
    orig = structures.check_axioms
    s = AxiomSpy(orig)
    for mod in (structures, datum, twisting, crossproduct, cli, zoo):
        if getattr(mod, "check_axioms", None) is orig:
            monkeypatch.setattr(mod, "check_axioms", s)
    return s


def test_the_spy_flags_a_weaker_recheck_under_the_same_braiding(spy):
    H = group_algebra(2)
    structures.check_axioms(H, "hopf")
    structures.check_axioms(H, "coalgebra", VectFlip())
    structures.check_axioms(group_algebra(2), "hopf")
    assert spy.repeats == [(H.space.name, "coalgebra")]


def test_double_biproduct_checks_each_input_once(spy):
    assert double_biproduct(sweedler_rho(1))["report"].ok
    assert spy.calls > 0
    assert spy.repeats == []


def test_hopf_datum_check_does_not_recheck_its_factors(spy):
    # the report's b1-*/b2-* entries are check_axioms' reports on the
    # factors, one algebra and one coalgebra check each, and nothing past
    # them checks a factor again
    d = radford(RadfordParams(3, 1, 3, 1))["datum"]
    before = len(spy.checked)
    assert check_hopf_datum(d).ok
    checked = spy.checked[before:]
    assert [kind for _, kind in checked] == ["algebra", "coalgebra"] * 2
    assert all(s is b for (s, _), b in zip(checked,
                                           (d.b1, d.b1, d.b2, d.b2)))
    assert spy.repeats == []


def test_matched_pair_checks_each_factor_once(spy):
    N = 3
    H, A = group_algebra(N), dual_group_algebra(N)
    form = LinMap((H.space, A.space), UNIT,
                  {(0, a * N + a): ONE for a in range(N)})
    before = len(spy.checked)
    assert matched_pair_from_pairing(DualPairing(H, A, form))[
        "is_matched_pair"]
    # validate_pairing's two checks are the only ones: the datum (A, H^op)
    # is checked past its factors' laws alone
    checked = spy.checked[before:]
    assert [kind for _, kind in checked] == ["bialgebra"] * 2
    assert checked[0][0] is H and checked[1][0] is A
    assert spy.repeats == []


def _count_calls(monkeypatch, name, *mods):
    """Replace name in each of mods that imports it by a wrapper; the
    returned list grows by one entry per call."""
    orig, calls = getattr(mods[0], name), []

    def counted(*args):
        calls.append(args)
        return orig(*args)

    for mod in mods:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_trivalence_classifies_each_split_map_once(monkeypatch, tmp_path,
                                                   capsys):
    out = radford(RadfordParams(3, 1, 3, 1))
    morphisms = _count_calls(monkeypatch, "morphism_reports",
                             structures, datum, crossproduct)
    rep = crossproduct.verify_trivalent_equivalences(out["H"], out["system"])
    assert rep.ok, rep.failed()
    # decompose's four split maps, the transport certificate's phi, then
    # the two idempotents i_j o p_j (untagged, through classify_morphism)
    assert [args[3] if len(args) > 3 else None for args in morphisms] == [
        "i1", "i2", "p1", "p2", "phi", None, None]

    path = str(tmp_path / "rad.json")
    assert cli.main(["zoo", "build", "radford", "--n", "3", "--q-exp", "1",
                     "--N", "3", "--nu", "1", "-o", path]) == 0
    capsys.readouterr()
    patterns = _count_calls(monkeypatch, "_pattern_of", datum, crossproduct)
    assert cli.main(["datum", "classify", "--in", path,
                     "--format", "json"]) == 0
    assert len(patterns) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["pattern"], report["family"]) == ("1010", "biproduct")


def qline_and_point(a=0, b=0):
    """The q-line T over kC3 and a point K, with the Yetter-Drinfeld
    module data of both: K has degree g^a and kC3 acts on it by the
    character g^c -> zeta_3^(bc), trivially when a = b = 0.  Returns (T,
    host, K, modules), modules as yd_provider takes them."""
    pairing, qline = braided_taft_pairing()
    T, host, K = pairing.H, group_algebra(3), unit_hopf("K")
    z = root_of_unity(3, 1)
    act = LinMap((K.space, host.space), (K.space,),
                 {(0, c): z ** (b * c) for c in range(3)})
    coact = LinMap((K.space,), (K.space, host.space), {(a, 0): ONE})
    return T, host, K, [(T.space, *qline._reg[T.space]),
                        (K.space, act, coact)]


def braided_q_line_splitting(a=0, b=0):
    """T split as T (x) K under the Yetter-Drinfeld braiding of both, for
    the point K of qline_and_point(a, b); returns (T, system, provider)."""
    T, host, K, modules = qline_and_point(a, b)
    prov = structures.yd_provider(host, modules)
    i2 = LinMap((K.space,), (T.space,), T.eta.entries)
    p2 = LinMap((T.space,), (K.space,), T.eps.entries)
    return T, crossproduct.ProjectionSystem(T.id_map(), i2, T.id_map(),
                                            p2), prov


def trivalence_cases():
    out = radford(RadfordParams(3, 1, 3, 1))
    ore = zoo.ore_finite(zoo.OreParams((2, 2), 2, ((1, 0), (0, 1)),
                                       ((1, 1), (1, 1))))
    return [(out["H"], out["system"], FLIP), (ore["H"], ore["system"], FLIP),
            braided_q_line_splitting()]


def test_trivalence_checks_the_cross_product_by_transport_under_every_braiding(
        spy):
    # under every braiding, the flip and a Yetter-Drinfeld one, the one
    # check_axioms call is decompose's, on A; the cross product is A
    # carried along phi
    for A, system, bp in trivalence_cases():
        before = len(spy.passed)
        rep = crossproduct.verify_trivalent_equivalences(A, system, bp)
        assert rep.ok, rep.failed()
        checked = [(s, kind) for s, kind, _ in spy.passed[before:]]
        assert checked == [(A, "bialgebra")]
    assert spy.repeats == []


CERTIFICATE = ["B1", "B2", "phi-multiplicative", "phi-unital",
               "phi-comultiplicative", "phi-counital"]


@pytest.mark.parametrize("axiom", CERTIFICATE)
def test_a_failed_certificate_entry_falls_back_to_the_full_check(
        spy, monkeypatch, axiom):
    # decompose's laws imply every entry of the transport certificate, so
    # there is no full check to fall back to: an entry planted as failing
    # is the package's fault, and the error carries the certificate
    out = radford(RadfordParams(3, 1, 3, 1))
    seen = []

    def plant(rep):
        seen.append([e.axiom for e in rep.entries])
        return structures.CheckReport(
            structures.CheckEntry(e.axiom, False) if e.axiom == axiom else e
            for e in rep.entries)

    counit, morphism = (crossproduct._counit_report,
                        crossproduct.morphism_reports)
    monkeypatch.setattr(crossproduct, "_counit_report",
                        lambda t: plant(counit(t)))
    monkeypatch.setattr(crossproduct, "morphism_reports", lambda *a: (
        tuple(map(plant, morphism(*a))) if a[3:] == ("phi",)
        else morphism(*a)))
    full_checks = _count_calls(monkeypatch, "bat_to_hopf_datum",
                               crossproduct)
    before = spy.calls
    with pytest.raises(ConsistencyError, match=axiom) as err:
        crossproduct.verify_trivalent_equivalences(out["H"], out["system"])
    assert seen == [["B1", "B2"], CERTIFICATE[2:4], CERTIFICATE[4:]]
    assert [e.axiom for e in err.value.report.entries] == CERTIFICATE
    assert err.value.report.failed() == [axiom]
    assert full_checks == []
    assert spy.calls == before + 1


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3)
                                  for b in range(3)])
def test_a_splitting_outside_the_braided_category_fails_phi_braiding(a, b):
    # the point K of degree g^a and character zeta_3^(bc): only the
    # trivial one makes phi commute with the braiding.  The full check of
    # the cross product is the oracle, and the two verdicts agree
    A, system, prov = braided_q_line_splitting(a, b)
    res = crossproduct.decompose(A, system, prov)
    try:
        crossproduct.bat_to_hopf_datum(res.bat)
        full = True
    except crossproduct.NotABATError:
        full = False
    assert full == ((a, b) == (0, 0))
    if full:
        assert crossproduct.verify_trivalent_equivalences(A, system,
                                                          prov).ok
        return
    with pytest.raises(crossproduct.InvalidSystemError,
                       match="phi-braiding") as err:
        crossproduct.verify_trivalent_equivalences(A, system, prov)
    rep = err.value.report
    assert [e.axiom for e in rep.entries] == CERTIFICATE + ["phi-braiding"]
    assert rep.failed() == ["phi-braiding"]
    assert rep.entry("phi-braiding").witness is not None


def test_build_bialgebra_checks_the_datum_once_and_the_product_once(
        spy, monkeypatch):
    d = radford(RadfordParams(2, 1, 2, 1))["datum"]
    datums = _count_calls(monkeypatch, "check_hopf_datum",
                          datum, crossproduct)
    before = spy.calls
    st = crossproduct.build_bialgebra(d)
    assert len(datums) == 1
    # each factor's algebra and coalgebra laws, then the product's
    assert spy.calls == before + 5
    assert spy.passed[-1][:2] == (st, "bialgebra")
    assert spy.repeats == []


def test_a_datum_is_checked_once_per_object(monkeypatch):
    # the report is computed by the first call that asks for it and kept
    # with the datum; a copy, or an equal datum built again, starts afresh
    bodies = _count_calls(monkeypatch, "_check_hopf_datum", datum)
    d = radford(RadfordParams(2, 1, 2, 1))["datum"]
    datum.induced_structures(d)
    datum.induced_structures(d)
    rep = check_hopf_datum(d)
    assert rep.ok
    crossproduct.build_bialgebra(d)
    assert [args[0] for args in bodies] == [d]
    assert bodies[0][0] is d
    copy = dataclasses.replace(d)
    fresh = radford(RadfordParams(2, 1, 2, 1))["datum"]
    assert copy == d and fresh == d and repr(copy) == repr(d)
    assert check_hopf_datum(copy) is not rep
    assert check_hopf_datum(fresh).to_json() == rep.to_json()
    assert [args[0] for args in bodies[1:]] == [copy, fresh]
    assert bodies[1][0] is copy and bodies[2][0] is fresh


def test_a_failing_datum_is_refused_with_its_one_report(monkeypatch):
    # g |> x sent from -x to +x breaks alg-coalg-1 alone (tests/test_datum)
    d = radford(RadfordParams(2, 1, 2, 1))["datum"]
    ent = dict(d.act_l.entries)
    ent[(1, 3)] = ONE
    bad = dataclasses.replace(d, act_l=LinMap(d.act_l.dom, d.act_l.cod, ent))
    bodies = _count_calls(monkeypatch, "_check_hopf_datum", datum)
    refusals = []
    for run in (datum.induced_structures, datum.induced_structures,
                crossproduct.build_bialgebra):
        with pytest.raises(structures.PreconditionError) as exc:
            run(bad)
        refusals.append(exc.value)
    assert len(bodies) == 1
    first = refusals[0]
    assert str(first) == "datum fails alg-coalg-1"
    assert first.report.failed() == ["alg-coalg-1"]
    for later in refusals[1:]:
        assert type(later) is type(first) and str(later) == str(first)
        assert later.report is first.report


def test_twist_checks_each_input_once(spy, monkeypatch):
    # the twisted antipode's u^- is read off chi^-, not solved for again
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    cases = [bicharacter_cocycle(2), (H4, coboundary_cocycle(H4, 5))]
    solves = _count_calls(monkeypatch, "_convolution_inverse",
                          structures, twisting)
    for b, c in cases:
        solves.clear()
        assert twist(b, c).S is not None
        assert len(solves) == 1
    assert spy.calls > 0
    assert spy.repeats == []


def unchanged_twists():
    """(host, cocycle) pairs whose twist moves neither m nor S."""
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    return {"bicharacter-2": bicharacter_cocycle(2),
            "bicharacter-4": bicharacter_cocycle(4),
            "eps-eps-on-H4": (H4, TwoCocycle(H4, H4.eps @ H4.eps))}


@pytest.mark.parametrize("case", sorted(unchanged_twists()))
def test_an_unchanged_twist_is_certified_by_its_hosts_check(spy, case):
    # m^chi = m and S^chi = S: the twisted structure has the host's maps,
    # so the host's check at the same kind is its check
    b, c = unchanged_twists()[case]
    before = len(spy.checked)
    tw = twist(b, c)
    assert (tw.m, tw.S) == (b.m, b.S)
    checked = spy.checked[before:]
    assert checked[0] == (b, "hopf")
    assert not any(st is tw for st, _ in checked)


def test_an_unchanged_double_biproduct_twist_is_certified_by_zs_check(spy):
    out = double_biproduct(sweedler_rho(1))
    Z, z_twisted = out["Z"], out["Z_twisted"]
    assert z_twisted.m == Z.m and z_twisted.S is Z.S is None
    assert any(st is Z and kind == "bialgebra" for st, kind in spy.checked)
    assert not any(st is z_twisted for st, _ in spy.checked)


def test_a_twist_that_moves_m_and_s_is_checked_once(spy):
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    c = coboundary_cocycle(H4, 5)
    tw = twist(H4, c)
    assert tw.m != H4.m and tw.S != H4.S
    assert [kind for st, kind in spy.checked if st is tw] == ["hopf"]


def test_a_moved_antipode_alone_is_checked(monkeypatch):
    # S^chi is doubled while m^chi = m stays: the twisted structure is
    # checked, and 2S fails the antipode laws
    gg, c = bicharacter_cocycle(2)
    dot = twisting.conv_dot

    def doubled_s_chi(chi, f, side, delta):
        out = dot(chi, f, side, delta)
        # the final dot of S^chi is the one right dot over Delta_B
        return doubled(out) if side == "right" and delta is gg.delta else out

    monkeypatch.setattr(twisting, "conv_dot", doubled_s_chi)
    with pytest.raises(ConsistencyError) as exc:
        twist(gg, c)
    assert str(exc.value) == "twisted structure fails left-antipode"
    assert exc.value.report.failed() == ["left-antipode", "right-antipode"]


def test_a_stored_inverse_is_certified_not_solved(monkeypatch):
    # a correct chi_inv passes its certificate and is the object returned
    # by cocycle_inverse and read by the twist, which makes no solve and
    # gives what the solving twist gives
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    for b, c in [bicharacter_cocycle(2), (H4, coboundary_cocycle(H4, 5))]:
        want = twist(b, c)
        stored = TwoCocycle(b, c.chi, cocycle_inverse(c))
        solves = _count_calls(monkeypatch, "_convolution_inverse",
                              structures, twisting)
        dots = _count_calls(monkeypatch, "conv_dot", twisting)
        assert cocycle_inverse(stored) is stored.chi_inv
        got = twist(b, stored)
        assert solves == []
        assert [a[0] for a in dots if a[2] == "right"][0] is stored.chi_inv
        assert (got.m, got.S) == (want.m, want.S)
        monkeypatch.undo()


def test_twist_and_double_biproduct_each_run_the_twist_body_once(
        monkeypatch):
    # _twist is entered once per call, and chi.m, the cocycle report and
    # chi^- are computed inside it only, so double_biproduct runs twist's
    # body and not a copy of its steps; its one solve outside _twist is
    # rho^-, over B (x) C
    depth, seen = [0], []
    body = twisting._twist

    def twist_body(*args):
        seen.append("_twist")
        depth[0] += 1
        try:
            return body(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(twisting, "_twist", twist_body)
    steps = ["_chi_dot_m", "_cocycle_report", "_scalar_inverse"]
    for name in steps:
        def step(*args, name=name, orig=getattr(twisting, name)):
            seen.append(name if depth[0] else "outside " + name)
            return orig(*args)
        monkeypatch.setattr(twisting, name, step)
    gg, c = bicharacter_cocycle(2)
    twist(gg, c)
    assert seen == ["_twist"] + steps
    seen.clear()
    double_biproduct(sweedler_rho(1))
    assert seen == ["outside _scalar_inverse", "_twist"] + steps


def test_double_biproduct_solves_once_over_b_c(monkeypatch):
    # rho_hat^- is the lift of rho^-, certified over Z (x) Z by its two
    # convolution identities, not solved for again there
    inp = sweedler_rho(1)
    solves = _count_calls(monkeypatch, "_convolution_inverse",
                          structures, twisting)
    assert double_biproduct(inp)["report"].ok
    assert [args[1].space for args in solves] == [
        structures.tensor_structure(inp.B, inp.C).space]


def solving_calls():
    """Each public call whose inputs a convolution solve reads, on one
    input, with the number of solves it makes."""
    gg, c = bicharacter_cocycle(2)
    H4 = radford(RadfordParams(2, 1, 2, 1))["H"]
    c5 = coboundary_cocycle(H4, 5)
    p = canonical_pairing(3)
    return {"twist": (lambda: twist(gg, c), 1),
            "twist-hopf": (lambda: twist(H4, c5), 1),
            "validate_cocycle": (lambda: validate_cocycle(c), 0),
            "cocycle_inverse": (lambda: cocycle_inverse(c), 1),
            "pairing_inverse": (lambda: pairing_inverse(p), 1),
            "matched_pair_from_pairing": (
                lambda: matched_pair_from_pairing(p), 1),
            "double_biproduct": (lambda: double_biproduct(sweedler_rho(1)),
                                 1)}


@pytest.mark.parametrize("case", [
    "cocycle_inverse", "double_biproduct", "matched_pair_from_pairing",
    "pairing_inverse", "twist", "twist-hopf", "validate_cocycle"])
def test_no_solve_rechecks_what_its_caller_verified(spy, monkeypatch, case):
    # every solve runs over a tensor_structure of factors that the public
    # call has checked, at their own dim, into the one-dimensional k: the
    # body checks neither, and no caller checks the tensor or k instead
    run, count = solving_calls()[case]
    solves = _count_calls(monkeypatch, "_convolution_inverse",
                          structures, twisting)
    before = len(spy.checked)
    run()
    assert len(solves) == count
    assert spy.calls > 0
    solved = [st for args in solves for st in args[1:]]
    assert not any(st is x for st, _ in spy.checked[before:]
                   for x in solved)
    assert spy.repeats == []


def test_twist_builds_delta_b_b_once_and_chi_dot_m_once(monkeypatch):
    # B (x) B is one tensor structure per twist: the cocycle report and the
    # twist's body read its Delta and share chi.m, and chi^- is solved
    # over it
    gg, c = bicharacter_cocycle(4)
    comults = _count_calls(monkeypatch, "_cross_comult", structures)
    dots = _count_calls(monkeypatch, "conv_dot", twisting)
    twist(gg, c)
    assert len([a for a in comults if a[0] is gg and a[1] is gg]) == 1
    assert len([a for a in dots if a[0] is c.chi and a[1] is gg.m
                and a[2] == "left"]) == 1


class MultiplicationBuilt(Exception):
    pass


def test_convolution_inverses_build_no_tensor_multiplication(monkeypatch,
                                                            tmp_path):
    # Every input is built first; then a flip multiplication (a cross
    # product's m whose phi21 is the flip) that is built raises when it is
    # evaluated.  Each solve over a tensor_structure reads only its eta,
    # delta and eps, so it must still return what it returned before, and
    # a whole pass of the twist workload must pass.  The double biproduct's
    # Z and its one-sided products are cross products of Hopf data, which
    # the spy lets through.
    gg, c = bicharacter_cocycle(2)
    pairing = canonical_pairing(3)
    dinp = sweedler_rho(1)
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    jobs = workloads.setup_twist(random.Random(1), str(tmp_path), "full").jobs

    def run():
        inv = cocycle_inverse(c)
        tw = twist(gg, c)
        back = twist(tw, TwoCocycle(gg, inv))
        out = double_biproduct(dinp)
        return (inv, tw, back, pairing_inverse(pairing), out["Z"],
                out["rho_hat"], out["Z_twisted"], out["report"].to_json())

    want = run()
    flips = []
    cross_mult, evaluate = structures._cross_mult, linmaps._Pending.__getattr__

    def watched(b1, b2, phi21):
        m = cross_mult(b1, b2, phi21)
        if phi21 == flip(b2.space, b1.space):
            flips.append(m)
        return m

    def no_multiplication(self, name):
        if any(self is m for m in flips):
            raise MultiplicationBuilt
        return evaluate(self, name)

    monkeypatch.setattr(structures, "_cross_mult", watched)
    monkeypatch.setattr(linmaps._Pending, "__getattr__", no_multiplication)
    with pytest.raises(MultiplicationBuilt):
        structures.tensor_structure(gg, gg).m.entries
    flips.clear()
    assert run() == want
    state = {}
    for job in jobs:
        ok, why, _ = job.run(state)
        assert ok, (job.name, why)
    # the solves built flip multiplications, and evaluated none of them
    assert flips and all(linmaps._pending_rows(m) for m in flips)


def test_braided_matched_pair_run_checks_each_structure_once(
        monkeypatch, tmp_path, capsys):
    # pairings live over the flip: the loader checks the braiding's host,
    # and the braided workspace is then refused before any pairing work
    from tests.test_cli import braided_qline_workspace

    path = str(tmp_path / "qline.json")
    cli.save_workspace(braided_qline_workspace()[0], path)
    checks = _count_calls(monkeypatch, "check_axioms", structures, datum,
                          twisting, crossproduct, cli, zoo)
    assert cli.main(["pairing", "matched-pair", "--in", path]) == 2
    assert "/braiding: " in capsys.readouterr().err
    assert [(s.space.name, kind) for s, kind, *_ in checks] == [
        ("kC3", "hopf")]
