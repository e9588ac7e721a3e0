"""The structure-map builders against the dense oracle.

Each builder evaluates its composite on the strand kernel; here the same
composite is multiplied out with dense Kronecker and matrix products, and
the two must agree entry by entry, scalar type included.
"""

import pytest

from crossbial.crossproduct import bat_to_hopf_datum, decompose
from crossbial.datum import _mixed_maps
from crossbial.linmaps import FLIP, UNIT, LinMap, VectFlip, flip
from crossbial.scalars import ONE
from crossbial.structures import check_axioms, cross_structure, dual, restrict
from crossbial.twisting import (DualPairing, matched_pair_from_pairing,
                                pairing_inverse, validate_pairing)
from crossbial.zoo import RadfordParams, radford
from tests.test_acceptance import braided_taft_pairing, canonical_pairing
from tests.test_linmaps import _kron, _matmul, _typed, to_rows


def kron(*maps):
    rows = [[ONE]]
    for f in maps:
        rows = _kron(rows, to_rows(f))
    return rows


def chain(*mats):
    """The matrix product of mats, written left to right as composition
    is: chain(g, f) is g o f."""
    out = mats[0]
    for m in mats[1:]:
        out = _matmul(out, m)
    return out


def rows(f):
    return to_rows(f)


def assert_pinned(f, oracle):
    assert _typed(to_rows(f)) == _typed(oracle)


# Radford (2,1,2,1) is defined over Q, Radford (3,1,3,1) over Q(zeta_3)
PARS = {"rational": (2, 1, 2, 1), "zeta3": (3, 1, 3, 1)}
RADFORDS = pytest.mark.parametrize("pars", list(PARS.values()),
                                   ids=list(PARS))


@pytest.mark.parametrize("case", ["rational", "zeta3", "yetter-drinfeld"])
def test_cross_structure(case):
    # the flip on Radford factors, or the braided q-lines over kC3
    if case in PARS:
        d = radford(RadfordParams(*PARS[case]))["datum"]
        b1, b2, bp = d.b1, d.b2, VectFlip()
    else:
        p, bp = braided_taft_pairing()
        b1, b2 = p.H, p.A
    phi12 = bp.braiding(b1.space, b2.space)
    phi21 = bp.braiding(b2.space, b1.space)
    st = cross_structure(b1, b2, phi12, phi21)
    id1, id2 = b1.id_map(), b2.id_map()
    assert_pinned(st.m, chain(kron(b1.m, b2.m), kron(id1, phi21, id2)))
    assert_pinned(st.delta, chain(kron(id1, phi12, id2),
                                  kron(b1.delta, b2.delta)))


@RADFORDS
def test_mixed_maps(pars):
    d = radford(RadfordParams(*pars))["datum"]
    phi12, phi21 = _mixed_maps(d)
    id1, id2 = d.b1.id_map(), d.b2.id_map()
    ps12 = d.braiding.braiding(d.b1.space, d.b2.space)
    ps21 = d.braiding.braiding(d.b2.space, d.b1.space)
    assert_pinned(phi12, chain(kron(d.b2.m, d.b1.m), kron(id2, ps12, id1),
                               kron(d.coact_l, d.coact_r)))
    assert_pinned(phi21, chain(kron(d.act_l, d.act_r), kron(id2, ps21, id1),
                               kron(d.b2.delta, d.b1.delta)))


@RADFORDS
def test_restrict(pars):
    out = radford(RadfordParams(*pars))
    A, sys = out["H"], out["system"]
    for i, p in ((sys.i1, sys.p1), (sys.i2, sys.p2)):
        b = restrict(A, i, p)
        assert_pinned(b.m, chain(rows(p), rows(A.m), kron(i, i)))
        assert_pinned(b.eta, chain(rows(p), rows(A.eta)))
        assert_pinned(b.delta, chain(kron(p, p), rows(A.delta), rows(i)))
        assert_pinned(b.eps, chain(rows(A.eps), rows(i)))


@RADFORDS
def test_decompose_and_bat_to_hopf_datum(pars):
    out = radford(RadfordParams(*pars))
    A, sys = out["H"], out["system"]
    res = decompose(A, sys)
    b1, b2 = res.bat.b1, res.bat.b2
    id1, id2 = b1.id_map(), b2.id_map()
    phi = chain(rows(A.m), kron(sys.i1, sys.i2))
    phi_inv = chain(kron(sys.p1, sys.p2), rows(A.delta))
    assert_pinned(res.iso, phi)
    # phi21 = m_B (eta1 (x) id (x) id (x) eta2) and phi12 = (eps1 (x) id
    # (x) id (x) eps2) delta_B, each product taken right to left
    spread = chain(_kron(phi, phi), kron(b1.eta, id2, id1, b2.eta))
    assert_pinned(res.bat.phi21, chain(phi_inv, rows(A.m), spread))
    counit = chain(kron(b1.eps, id2, id1, b2.eps), _kron(phi_inv, phi_inv))
    assert_pinned(res.bat.phi12, chain(counit, rows(A.delta), phi))

    t = res.bat
    d = bat_to_hopf_datum(t)
    assert_pinned(d.act_l, chain(kron(id1, b2.eps), rows(t.phi21)))
    assert_pinned(d.act_r, chain(kron(b1.eps, id2), rows(t.phi21)))
    assert_pinned(d.coact_l, chain(rows(t.phi12), kron(id1, b2.eta)))
    assert_pinned(d.coact_r, chain(rows(t.phi12), kron(b1.eta, id2)))


def diagram_oracle(p):
    """lhd and rhd as the diagrams matched_pair_from_pairing states, one
    Kronecker row each: the middle row is (dim H)^3 (dim A)^2 wide."""
    H, A, form = p.H, p.A, p.form
    sh, sa = H.space, A.space
    idh, ida = H.id_map(), A.id_map()
    pinv = pairing_inverse(p)
    d2h = chain(kron(H.delta, idh), rows(H.delta))
    d2a = chain(kron(A.delta, ida), rows(A.delta))
    # the outer product first: the crossing's middle row is the widest
    lhd = chain(kron(pinv, idh, form),
                kron(idh, FLIP.braiding_list((sh, sh), (sa,)), ida))
    rhd = chain(kron(pinv, ida, form),
                kron(idh, FLIP.braiding_list((sh,), (sa, sa)), ida))
    return (chain(lhd, _kron(d2h, rows(A.delta))),
            chain(rhd, _kron(rows(H.delta), d2a)))


def flip_oracle(p):
    """lhd and rhd over the flip, no row wider than (dim H)^2 dim A.  By
    coassociativity lhd(h, a) = F(E(h, a1), a2) with
    E(h, a) = <h1, a>^- h2 and F(h, a) = h1 <h2, a>, and
    rhd(h, a) = F'(h2, E'(h1, a)) with E'(h, a) = <h, a1>^- a2 and
    F'(h, a) = a1 <h, a2>."""
    H, A, form = p.H, p.A, p.form
    idh, ida = H.id_map(), A.id_map()
    pinv = pairing_inverse(p)
    cop_h = chain(rows(flip(H.space, H.space)), rows(H.delta))
    cop_a = chain(rows(flip(A.space, A.space)), rows(A.delta))
    e = chain(kron(idh, pinv), _kron(cop_h, rows(ida)))
    f = chain(kron(idh, form), kron(H.delta, ida))
    e2 = chain(kron(pinv, ida), kron(idh, A.delta))
    f2 = chain(kron(form, ida), _kron(rows(idh), cop_a))
    return (chain(f, _kron(e, rows(ida)), kron(idh, A.delta)),
            chain(f2, _kron(rows(idh), e2), _kron(cop_h, rows(ida))))


OP_COP_PAIRINGS = {"sweedler": (2, 1, 2, 1), "taft": (3, 1, 3, 1)}


@pytest.mark.parametrize("case", ["flip", "sweedler", "taft"])
def test_matched_pair_actions(case):
    # sweedler: H4 = Radford(2,1,2,1), and taft: T3 = Radford(3,1,3,1) over
    # Q(zeta_3), each paired with the transpose of its op-cop, on which the
    # actions form a matched pair of A and H^op.  T3's diagram oracle would
    # hold 9^10 scalars, so the factored oracle alone pins it; on the
    # smaller cases the two oracles pin the same maps
    if case == "flip":
        p = canonical_pairing(2)
    else:
        p = evaluation_pairing_of_the_op_cop_dual(
            radford(RadfordParams(*OP_COP_PAIRINGS[case]))["H"])
    mp = matched_pair_from_pairing(p)
    oracles = [] if case == "taft" else [diagram_oracle(p)]
    oracles.append(flip_oracle(p))
    for lhd, rhd in oracles:
        assert_pinned(mp["lhd"], lhd)
        assert_pinned(mp["rhd"], rhd)


def evaluation_pairing_of_the_op_cop_dual(H):
    """H paired with A = dual(H), the transpose of H^{op,cop}, by the
    evaluation form <e_i, e_j> = delta_ij."""
    A, n = dual(H), H.dim
    form = LinMap((H.space, A.space), UNIT,
                  {(0, i * n + i): ONE for i in range(n)})
    return DualPairing(H, A, form)


@pytest.mark.parametrize("params", [(2, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1)],
                         ids=lambda t: "radford" + "".join(map(str, t)))
def test_matched_pair_of_sweedler_and_its_op_cop_dual(params):
    # A is a Hopf algebra and the form a valid pairing, and the flip is
    # involutive, so the induced actions form a matched pair: of A and
    # H^op, not of A and H, on which they fail act-l-associativity and
    # module-algebra-1.  Sweedler's H4 is Radford(2,1,2,1); Taft's T3 and
    # Radford(2,1,4,1) are not commutative either
    p = evaluation_pairing_of_the_op_cop_dual(
        radford(RadfordParams(*params))["H"])
    assert check_axioms(p.A, "hopf").ok
    assert validate_pairing(p).ok
    mp = matched_pair_from_pairing(p)
    assert mp["braiding_involutive"]
    assert mp["is_matched_pair"], mp["report"].failed()
