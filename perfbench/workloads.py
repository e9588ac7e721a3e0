"""Seeded inputs and job lists for the three benchmark workloads.

Each workload is a function ``setup(rng, workdir, size)`` that builds its
inputs from a ``random.Random`` seeded by the benchmark seed and returns a
``Workload``: the ordered job list of one pass, plus the maps whose scalars
feed the scalar micro-timings.  A job is one user-level call into crossbial
together with the exact checks on its result.  Every expectation is known
by construction before the run (a bicharacter twist of a commutative group
algebra leaves its product unchanged, a scaled unit breaks exactly the
laws that mention the unit, ...), never read back from a previous run.

Every traced crossbial function is called through its module attribute
(``twisting.twist``, not an imported name), so the tracer's rebinding of
those attributes is seen here too.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from crossbial import cli, datum, structures, twisting, zoo
from crossbial.linmaps import UNIT, LinMap
from crossbial.scalars import ONE, root_of_unity

Outcome = Tuple[bool, str, object]     # verdict, reason if wrong, evidence


@dataclass
class Job:
    """One closed-loop request: ``run(state)`` returns an ``Outcome``.

    ``state`` is a dict shared by the jobs of one pass, so a later job can
    use an earlier job's result (the twist back needs the forward twist).
    The evidence is digested after the pass; its digest must repeat
    exactly across passes and between traced and untraced passes.
    """

    name: str
    run: Callable[[dict], Outcome]


@dataclass
class Workload:
    jobs: List[Job]
    sample_maps: Callable[[], List[LinMap]]   # operands for scalars.mul_ns


def _expect(cond: bool, why: str) -> Tuple[bool, str]:
    return (True, "") if cond else (False, why)


# ---------------------------------------------------------------------------
# shared inputs
# ---------------------------------------------------------------------------

def bicharacter(N: int, k: int, shape: str = "bc"):
    """k(C_N x C_N) with chi(g^a h^b (x) g^c h^d) = zeta_N^(k b c), or
    zeta_N^(k a d) for shape "ad" (the same cocycle with g and h swapped,
    so both shapes cost the same)."""
    z = root_of_unity(N, 1)
    gg = structures.tensor_structure(zoo.group_algebra(N), zoo.group_algebra(N))
    P = gg.space
    ent = {}
    for a, b, c, d in itertools.product(range(N), repeat=4):
        e = b * c if shape == "bc" else a * d
        ent[(0, (a * N + b) * N * N + (c * N + d))] = z ** (k * e % N)
    return gg, twisting.TwoCocycle(gg, LinMap((P, P), UNIT, ent))


def canonical_pairing(N: int) -> twisting.DualPairing:
    """kC_N paired with its function algebra by evaluation."""
    H, A = zoo.group_algebra(N), zoo.dual_group_algebra(N)
    form = LinMap((H.space, A.space), UNIT,
                  {(0, a * N + a): ONE for a in range(N)})
    return twisting.DualPairing(H, A, form)


def sweedler_rho(inp, alpha) -> LinMap:
    sb, sc = inp.B.space, inp.C.space
    return LinMap((sb, sc), UNIT, {(0, 0): ONE, (0, 3): alpha})


def ore_c2xc2_families():
    """The (g, g*) pairs for t = 2 over C2 x C2 with commuting skew
    generators: g*_j(g_j) = -1 and g*_l(g_r) = g*_r(g_l) = 1 for l != r.

    ``zoo.ore_finite`` also accepts anticommuting generators (g*_l(g_r) =
    g*_r(g_l) = -1), but for those its antipode fails left-antipode and
    right-antipode, so they are left out: no job of a workload may fail.
    """
    els = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def sign(ch, g):
        return (ch[0] * g[0] + ch[1] * g[1]) % 2

    out = []
    for g1, g2, s1, s2 in itertools.product(els, repeat=4):
        if sign(s1, g1) == 1 and sign(s2, g2) == 1 \
                and sign(s1, g2) == 0 and sign(s2, g1) == 0:
            out.append(((g1, g2), (s1, s2)))
    return out


def structure_maps(st) -> List[LinMap]:
    return [f for f in (st.m, st.eta, st.delta, st.eps, st.S) if f is not None]


def datum_maps(d) -> List[LinMap]:
    return (structure_maps(d.b1) + structure_maps(d.b2)
            + [d.act_l, d.coact_l, d.act_r, d.coact_r])


SMALL_RATIONALS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
                   Fraction(-2), Fraction(3, 2)]


# ---------------------------------------------------------------------------
# cli-verify
# ---------------------------------------------------------------------------

def _run_cli(argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _report_check(code_want: int, verdict: str, failed=frozenset(),
                  must_fail=frozenset(), extra: Optional[dict] = None,
                  n_checks: Optional[int] = None,
                  witness: Optional[Tuple[str, dict]] = None):
    """Exact expectations on a JSON report.

    ``failed`` is the whole failed-axiom set, or None when only
    ``must_fail`` (a subset) is known by construction.
    """
    def check(code: int, text: str) -> Tuple[bool, str]:
        if code != code_want:
            return False, f"exit {code}, expected {code_want}"
        doc = json.loads(text)
        if doc.get("verdict") != verdict:
            return False, f"verdict {doc.get('verdict')}"
        entries = [e for group in doc.get("checks", {}).values()
                   for e in group]
        got = {e["axiom"] for e in entries if not e["ok"]}
        if failed is not None and got != set(failed):
            return False, f"failed axioms {sorted(got)}"
        if not set(must_fail) <= got:
            return False, f"failed axioms {sorted(got)} lack {sorted(must_fail)}"
        if n_checks is not None and len(entries) != n_checks:
            return False, f"{len(entries)} checks, expected {n_checks}"
        for key, want in (extra or {}).items():
            if doc.get(key) != want:
                return False, f"{key} = {doc.get(key)!r}, expected {want!r}"
        if witness is not None:
            axiom, want = witness
            hit = [e for e in entries if e["axiom"] == axiom]
            if not hit or hit[0].get("witness") != want:
                return False, f"{axiom} witness {hit and hit[0].get('witness')}"
        return True, ""
    return check


def _cli_job(name: str, argv: List[str], check, out_path=None) -> Job:
    def run(state):
        code, text = _run_cli(argv)
        ok, why = check(code, text)
        return ok, why, ("cli", code, text, out_path)
    return Job(name, run)


def _perturb(src: str, dst: str, edit) -> None:
    with open(src) as fh:
        doc = json.load(fh)
    edit(doc["structures"]["main"])
    with open(dst, "w") as fh:
        json.dump(doc, fh)


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def setup_cli_verify(rng, workdir: str, size: str) -> Workload:
    def path(name):
        return os.path.join(workdir, name)

    def zoo_build(argv, out):
        code, _ = _run_cli(["zoo", "build"] + argv + ["-o", out, "--format",
                                                      "json"])
        if code != 0:
            raise RuntimeError(f"set-up build {argv} exited {code}")

    # (name, (n, q_exp, N, nu)); factor dims are (r, N) with r = n/gcd(n,nu)
    radfords = [("rad_2_1_2_1", (2, 1, 2, 1), (2, 2))]
    if size == "full":
        radfords += [("rad_2_1_4_1", (2, 1, 4, 1), (2, 4)),
                     ("rad_3_1_3_1", (3, 1, 3, 1), (3, 3)),
                     ("rad_4_1_4_1", (4, 1, 4, 1), (4, 4)),
                     ("rad_8_1_8_4", (8, 1, 8, 4), (2, 8))]
    for name, (n, qe, N, nu), _ in radfords:
        zoo_build(["radford", "--n", str(n), "--q-exp", str(qe),
                   "--N", str(N), "--nu", str(nu)], path(name + ".json"))
    # (workspace, pattern, factor dims) for the five-command suite
    suite = [(name, "1010", list(dims)) for name, _, dims in radfords[1:]]
    if size == "full":
        g, gs = rng.choice(ore_c2xc2_families())
        with open(path("ore_spec.json"), "w") as fh:
            json.dump({"orders": [2, 2], "t": 2, "g": g, "g_star": gs}, fh)
        zoo_build(["ore", "--spec", path("ore_spec.json")],
                  path("ore_c2xc2.json"))
        suite.append(("ore_c2xc2", "0101", [4, 4]))
        zoo_build(["group", "--N", "6"], path("grp_6.json"))
    else:
        suite = [("rad_2_1_2_1", "1010", [2, 2])]

    gg, c = bicharacter(2, 1, rng.choice(["bc", "ad"]))
    cli.save_workspace(cli.Workspace().add_structure("main", gg)
                       .add_map("chi", c.chi), path("twist.json"))
    p = canonical_pairing(3)
    cli.save_workspace(cli.Workspace().add_structure("h", p.H)
                       .add_structure("a", p.A).add_map("form", p.form),
                       path("pairing.json"))
    inp = zoo.sweedler_crossed_modules()
    ws = (cli.Workspace().add_structure("h", inp.H).add_structure("b", inp.B)
          .add_structure("c", inp.C))
    alpha = rng.choice([Fraction(0), ONE, -ONE])
    for key, f in (("b_act", inp.b_act), ("b_coact", inp.b_coact),
                   ("c_act", inp.c_act), ("c_coact", inp.c_coact),
                   ("rho", sweedler_rho(inp, alpha))):
        ws.add_map(key, f)
    cli.save_workspace(ws, path("dbp.json"))

    def fmt(argv):
        return argv + ["--format", "json"]

    ok_report = _report_check(0, "pass")
    jobs: List[Job] = []
    for name, pattern, dims in suite:
        ws_path = path(name + ".json")
        jobs.append(_cli_job(f"check-hopf:{name}",
                             fmt(["check", "hopf", "--in", ws_path]),
                             _report_check(0, "pass", n_checks=12,
                                           extra={"kind": "hopf"})))
        parts = path(name + ".parts.json")
        jobs.append(_cli_job(f"cross-decompose:{name}",
                             fmt(["cross", "decompose", "--in", ws_path,
                                  "-o", parts]),
                             _report_check(0, "pass",
                                           extra={"factor_dims": dims}),
                             parts))
        jobs.append(_cli_job(f"cross-trivalent:{name}",
                             fmt(["cross", "trivalent", "--in", ws_path]),
                             _report_check(0, "pass", n_checks=4)))
        jobs.append(_cli_job(f"datum-check:{name}",
                             fmt(["datum", "check", "--in", ws_path]),
                             ok_report))
        jobs.append(_cli_job(f"datum-classify:{name}",
                             fmt(["datum", "classify", "--in", ws_path]),
                             _report_check(0, "pass", extra={
                                 "pattern": pattern, "family": "biproduct",
                                 "trivalent": True, "consistent": True})))
    if size == "full":
        jobs.append(_cli_job("check-hopf:grp_6",
                             fmt(["check", "hopf", "--in", path("grp_6.json")]),
                             _report_check(0, "pass", n_checks=12,
                                           extra={"dim": 6})))
    jobs.append(_cli_job("datum-order:rad_2_1_2_1",
                         fmt(["datum", "order", "--in",
                              path("rad_2_1_2_1.json"), "--max-n", "4"]),
                         _report_check(0, "pass", extra={"order": 1})))
    jobs.append(_cli_job("twist-validate",
                         fmt(["twist", "validate", "--in", path("twist.json")]),
                         _report_check(0, "pass", n_checks=4)))
    jobs.append(_cli_job("twist-apply",
                         fmt(["twist", "apply", "--in", path("twist.json"),
                              "-o", path("twist.out.json")]),
                         _report_check(0, "pass", extra={
                             "dim": 4, "multiplication_changed": False}),
                         path("twist.out.json")))
    jobs.append(_cli_job("pairing-check",
                         fmt(["pairing", "check", "--in",
                              path("pairing.json")]),
                         _report_check(0, "pass", n_checks=4)))
    jobs.append(_cli_job("pairing-matched-pair",
                         fmt(["pairing", "matched-pair", "--in",
                              path("pairing.json")]),
                         _report_check(0, "pass", extra={
                             "is_matched_pair": True,
                             "braiding_involutive": True})))
    jobs.append(_cli_job("double-biproduct-build",
                         fmt(["double-biproduct", "build", "--in",
                              path("dbp.json"), "-o", path("dbp.out.json")]),
                         _report_check(0, "pass", extra={
                             "dim": 8, "twist_changed_multiplication": False}),
                         path("dbp.out.json")))

    # Refutations: each perturbation breaks laws known in advance.
    # Scaling the unit by c (c not 0 or 1) breaks exactly the laws that
    # mention eta; scaling the counit breaks exactly those that mention eps.
    unit_laws = {"unit-counit", "left-unit", "right-unit", "unit-comult",
                 "left-antipode", "right-antipode"}
    counit_laws = {"unit-counit", "left-counit", "right-counit", "counit-mult",
                   "left-antipode", "right-antipode"}
    big = size == "full"
    refute = [("unit", "rad_3_1_3_1" if big else "rad_2_1_2_1", "hopf"),
              ("counit", "ore_c2xc2" if big else "rad_2_1_2_1", "hopf"),
              ("m-entry", "rad_2_1_4_1" if big else "rad_2_1_2_1", "hopf")]
    if big:
        refute.append(("m-entry", "rad_4_1_4_1", "bialgebra"))
    for i, (kind, base, check_kind) in enumerate(refute):
        src, dst = path(base + ".json"), path(f"refute_{i}_{kind}.json")
        if kind in ("unit", "counit"):
            scale = rng.choice(SMALL_RATIONALS)
            key = "eta" if kind == "unit" else "eps"

            def edit(st, key=key, scale=scale):
                rows = st[key]["matrix"]
                for row in rows:
                    for j, v in enumerate(row):
                        if v != "0/1":
                            row[j] = _rat(Fraction(v) * scale)
            check = _report_check(1, "fail",
                                  failed=unit_laws if kind == "unit"
                                  else counit_laws)
        else:
            # m(1 (x) b) += delta * e_r: left-unit fails first at (r, b)
            with open(src) as fh:
                dim = len(json.load(fh)["structures"]["main"]["eta"]["matrix"])
            b, r = rng.randrange(1, dim), rng.randrange(dim)
            delta = rng.choice(SMALL_RATIONALS)
            old = ONE if r == b else Fraction(0)

            def edit(st, r=r, b=b, delta=delta, old=old):
                st["m"]["matrix"][r][b] = _rat(old + delta)
            check = _report_check(
                1, "fail", failed=None, must_fail={"left-unit"},
                witness=("left-unit", {"out_index": [r], "in_index": [b],
                                       "lhs": _rat(old + delta),
                                       "rhs": _rat(old)}))
        _perturb(src, dst, edit)
        jobs.append(_cli_job(f"refute-{kind}:{base}",
                             fmt(["check", check_kind, "--in", dst]), check))

    def sample_maps():
        out = []
        for name in sorted(os.listdir(workdir)):
            if name.endswith(".json") and not name.startswith(
                    ("refute_", "ore_spec")) and ".out." not in name \
                    and ".parts." not in name:
                ws = cli.load_workspace(os.path.join(workdir, name))
                for st in ws.structures.values():
                    out += structure_maps(st)
                out += list(ws.maps.values())
        return out

    return Workload(jobs, sample_maps)


# ---------------------------------------------------------------------------
# twist
# ---------------------------------------------------------------------------

def setup_twist(rng, workdir: str, size: str) -> Workload:
    jobs: List[Job] = []
    maps: List[LinMap] = []
    # Seeded: the cocycle's shape and, at N = 4, k = 1 or 3 (zeta^3 = -zeta
    # there).  At N = 3, k stays 1: k = 2 puts two terms in every power
    # basis coefficient and would make a seed's cost depend on it.
    shape = rng.choice(["bc", "ad"])
    sizes = [(2, 1), (3, 1)] if size == "full" else [(2, 1)]
    for N, k in sizes:
        gg, c = bicharacter(N, k, shape)
        inv_want = bicharacter(N, -k % N, shape)[1].chi
        maps += structure_maps(gg) + [c.chi]
        jobs += _twist_round_trip(N, gg, c, inv_want)
    if size == "full":
        N, k = 4, rng.choice([1, 3])
        gg4, c4 = bicharacter(N, k, shape)
        maps += [c4.chi]

        def forward(state, gg=gg4, c=c4):
            tw = twisting.twist(gg, c)
            ok, why = _expect(tw.m == gg.m and tw.delta == gg.delta
                              and tw.S == gg.S,
                              "twist of a commutative group algebra moved it")
            return ok, why, tw
        jobs.append(Job("twist:4", forward))

    inp = zoo.sweedler_crossed_modules()
    alphas = [Fraction(0), ONE, -ONE] if size == "full" else [ONE]
    for alpha in alphas:
        dinp = inp.with_rho(sweedler_rho(inp, alpha))

        def dbp(state, dinp=dinp):
            out = twisting.double_biproduct(dinp)
            ok, why = _expect(out["report"].ok and out["Z"].dim == 8
                              and out["Z_twisted"].m == out["Z"].m,
                              f"report {out['report'].failed()}")
            return ok, why, (out["Z"], out["Z_twisted"], out["report"])
        jobs.append(Job(f"double-biproduct:{alpha}", dbp))

    Np = 5 if size == "full" else 3
    p = canonical_pairing(Np)
    pinv_want = p.form * (p.H.S @ p.A.id_map())
    maps += [p.form]

    def pinv(state):
        got = twisting.pairing_inverse(p)
        ok, why = _expect(got == pinv_want, "pairing inverse != form o (S x id)")
        return ok, why, got
    jobs.append(Job(f"pairing-inverse:{Np}", pinv))

    for tag, H in (("rad_2_1_2_1",
                    zoo.radford(zoo.RadfordParams(2, 1, 2, 1))["H"]),
                   ("kC6", zoo.group_algebra(6))):
        def antipode(state, H=H):
            got = structures.convolution_inverse(H.id_map(), H, H)
            ok, why = _expect(got == H.S, "convolution inverse of id != S")
            return ok, why, got
        jobs.append(Job(f"convolution-inverse:{tag}", antipode))
    return Workload(jobs, lambda: maps)


def _twist_round_trip(N, gg, c, inv_want) -> List[Job]:
    def validate(state):
        rep = twisting.validate_cocycle(c)
        ok, why = _expect(rep.ok, f"cocycle fails {rep.failed()}")
        return ok, why, rep.to_json()

    def forward(state):
        tw = twisting.twist(gg, c)
        state[("twisted", N)] = tw
        ok, why = _expect(tw.m == gg.m and tw.delta == gg.delta
                          and tw.S == gg.S,
                          "twist of a commutative group algebra moved it")
        return ok, why, tw

    def inverse(state):
        inv = twisting.cocycle_inverse(c)
        state[("inverse", N)] = inv
        ok, why = _expect(inv == inv_want, "inverse != conjugate bicharacter")
        return ok, why, inv

    def back(state):
        tw, inv = state[("twisted", N)], state[("inverse", N)]
        out = twisting.twist(tw, twisting.TwoCocycle(gg, inv))
        ok, why = _expect(out.m == gg.m and out.delta == gg.delta
                          and out.S == gg.S, "twist back did not restore")
        return ok, why, out

    return [Job(f"validate-cocycle:{N}", validate), Job(f"twist:{N}", forward),
            Job(f"cocycle-inverse:{N}", inverse), Job(f"twist-back:{N}", back)]


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

def random_endo(quad, rng, density=0.25) -> LinMap:
    """Sparse endomorphism of the 4-fold product with small exact entries."""
    n = 1
    for s in quad:
        n *= s.dim
    ent = {}
    for r in range(n):
        for c in range(n):
            if rng.random() < density:
                ent[(r, c)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return LinMap(quad, quad, ent)


def setup_recursion(rng, workdir: str, size: str) -> Workload:
    ds: Dict[str, object] = {
        "rad_2_1_2_1": zoo.radford(zoo.RadfordParams(2, 1, 2, 1))["datum"],
        "ore_c2": zoo.ore_finite(zoo.OreParams((2,), 1, ((1,),),
                                               ((1,),)))["datum"],
    }
    small = list(ds)
    if size == "full":
        for pars in ((3, 1, 3, 1), (2, 1, 4, 1)):
            ds["rad_%d_%d_%d_%d" % pars] = zoo.radford(
                zoo.RadfordParams(*pars))["datum"]
        # any odd character exponent gives g*(g) = -1 at g = 2 in C4
        ds["ore_c4"] = zoo.ore_finite(zoo.OreParams(
            (4,), 1, ((2,),), ((rng.choice([1, 3]),),)))["datum"]
    jobs: List[Job] = []
    for tag, d in ds.items():
        def sop_job(state, d=d):
            sop = datum.build_phi_superoperator(d)
            # order 1: Phi stabilises after one step, Phi o Phi = Phi
            ok, why = _expect(datum.sop_compose(sop.phi, sop.phi) == sop.phi,
                              "Phi o Phi != Phi")
            return ok, why, sop.phi

        def order_job(state, d=d):
            res = datum.recursion_order(d, 4)
            ok, why = _expect(res == {"order": 1}, f"order {res}")
            return ok, why, res
        jobs += [Job(f"superoperator:{tag}", sop_job),
                 Job(f"recursion-order:{tag}", order_job)]

    k = twisting.unit_bialgebra()
    ground = datum.trivial_datum(k, k)

    def ground_job(state):
        res = datum.recursion_order(ground, 4)
        ok, why = _expect(res == {"order": 0}, f"order {res}")
        return ok, why, res
    jobs.append(Job("recursion-order:ground", ground_job))

    for tag, d in ds.items():
        def fixed_m(state, d=d):
            ind = datum.induced_structures(d)
            f = ind.delta_B * ind.m_B
            got = datum.phi_apply(d, f)
            ok, why = _expect(got == f, "delta_B o m_B is not fixed")
            return ok, why, got

        def fixed_mm(state, d=d):
            ind = datum.induced_structures(d)
            s1, s2 = d.b1.space, d.b2.space
            id12 = d.b1.id_map() @ d.b2.id_map()
            psi4 = d.braiding.braiding_list((s1, s2), (s1, s2))
            f = ((ind.m_B @ ind.m_B) * (id12 @ psi4 @ id12)
                 * (ind.delta_B @ ind.delta_B))
            got = datum.phi_apply(d, f)
            ok, why = _expect(got == f, "the doubled product map is not fixed")
            return ok, why, got
        jobs += [Job(f"fixed-point-m:{tag}", fixed_m),
                 Job(f"fixed-point-mm:{tag}", fixed_mm)]

    n_endo = 4 if size == "full" else 1
    for tag in small:
        d = ds[tag]
        pi = (d.b1.unit_counit() @ d.b2.id_map() @ d.b1.id_map()
              @ d.b2.unit_counit())
        for i in range(n_endo):
            f = random_endo(d.quad, rng)

            def corner(state, d=d, f=f, pi=pi):
                got = pi * datum.phi_apply(d, f) * pi
                ok, why = _expect(got == pi * f * pi,
                                  "corner conjugation does not commute")
                return ok, why, got
            jobs.append(Job(f"corner:{tag}:{i}", corner))

    return Workload(jobs, lambda: [f for d in ds.values()
                                   for f in datum_maps(d)])


SETUPS = {
    "cli-verify": setup_cli_verify,
    "twist": setup_twist,
    "recursion": setup_recursion,
}
