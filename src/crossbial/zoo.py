"""Builders for the catalogue of concrete structures.

Group algebras of finite cyclic groups and their function-algebra duals,
truncated polynomial factors with Gaussian-binomial coproducts, Radford's
four-parameter Hopf algebras, and finite Ore towers over a finite abelian
group.  Each tower is the cross product of its hand-written Hopf datum:
its product, coproduct and antipode come from HopfDatum.product, the
antipode from the closed-form braided antipodes of the two factors, and
its splitting is the canonical one of the product.  Builders return plain
structures, or dicts bundling the algebra with its canonical splitting
and interaction maps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import gcd, lcm, prod
from typing import Tuple

from .crossproduct import ProjectionSystem
from .datum import HopfDatum
from .linmaps import LinMap, Space, UNIT, flatten, flip, rebind, unflatten
from .scalars import (ONE, InputError, as_scalar, q_binomial, reciprocal,
                      root_of_unity)
from .structures import (Structure, canonical_maps, dual, fuse, restrict,
                         tensor_structure)
from .twisting import DoubleBiproductInput


class ParameterError(InputError, ValueError):
    pass


class UnsupportedError(InputError, ValueError):
    """The requested object falls outside the finite-dimensional regime."""


# ---------------------------------------------------------------------------
# group algebras
# ---------------------------------------------------------------------------

def group_algebra(N: int) -> Structure:
    """The group Hopf algebra of the cyclic group of order N."""
    if N < 1:
        raise ParameterError("N must be a positive integer")
    s = Space(f"kC{N}", N)
    m = LinMap((s, s), (s,), {((a + b) % N, a * N + b): ONE
                              for a in range(N) for b in range(N)})
    eta = LinMap(UNIT, (s,), {(0, 0): ONE})
    delta = LinMap((s,), (s, s), {(a * N + a, a): ONE for a in range(N)})
    eps = LinMap((s,), UNIT, {(0, a): ONE for a in range(N)})
    S = LinMap((s,), (s,), {((-a) % N, a): ONE for a in range(N)})
    return Structure(s, m, eta, delta, eps, S)


def dual_group_algebra(N: int) -> Structure:
    """Functions on the cyclic group of order N, with pointwise product
    and convolution coproduct; dual basis e_0..e_{N-1}."""
    return dual(group_algebra(N))


# ---------------------------------------------------------------------------
# truncated polynomial factor
# ---------------------------------------------------------------------------

def taft_factor(r: int, p) -> Structure:
    """k[x]/(x^r) with the p-binomial coproduct; p of exact order r.

    An algebra and a coalgebra, but a bialgebra over the flip only when
    r = 1; for larger r the compatibility needs a genuinely braided
    backend.
    """
    if r < 1:
        raise ParameterError("r must be a positive integer")
    p = as_scalar(p)
    power = ONE
    for k in range(1, r):
        power = power * p
        if power == ONE:
            raise ParameterError(
                f"p must have exact multiplicative order {r}")
    if power * p != ONE:
        raise ParameterError(f"p must have exact multiplicative order {r}")
    s = Space(f"Taft{r}", r)
    m = LinMap((s, s), (s,), {(a + b, a * r + b): ONE
                              for a in range(r) for b in range(r)
                              if a + b < r})
    eta = LinMap(UNIT, (s,), {(0, 0): ONE})
    delta = LinMap((s,), (s, s),
                   {(l * r + (k - l), k): q_binomial(k, l, p)
                    for k in range(r) for l in range(k + 1)})
    eps = LinMap((s,), UNIT, {(0, 0): ONE})
    return Structure(s, m, eta, delta, eps)


# ---------------------------------------------------------------------------
# Radford's four-parameter family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadfordParams:
    """Parameters (n, q_exponent, N, nu): q = zeta_n^q_exponent, n | N,
    0 < nu < n; the truncation order is r = n / gcd(n, nu)."""

    n: int
    q_exponent: int
    N: int
    nu: int

    def __post_init__(self):
        if self.n < 2 or self.N < 1:
            raise ParameterError("need n >= 2 and N >= 1")
        if self.N % self.n:
            raise ParameterError("n must divide N")
        if not 0 < self.nu < self.n:
            raise ParameterError("nu must satisfy 0 < nu < n")
        if gcd(self.q_exponent, self.n) != 1:
            raise ParameterError("q_exponent must be coprime to n")

    @property
    def r(self) -> int:
        return self.n // gcd(self.n, self.nu)

    @property
    def dim(self) -> int:
        return self.r * self.N

    @property
    def q(self):
        return root_of_unity(self.n, self.q_exponent)


def radford(params: RadfordParams) -> dict:
    """The Hopf algebra on x^m g^l (m < r, l < N) with x g = q g x,
    together with its canonical splitting and interaction maps.

    Returns {"H", "system", "datum"}: the algebra itself, the projection
    system onto the truncated-polynomial and group factors, and the datum
    whose cross product H is: the left action/coaction pair of the group
    on the truncated factor, with a trivial right pair.
    """
    n, N, nu = params.n, params.N, params.nu
    r, q = params.r, params.q
    qnu, q_inv = q ** nu, reciprocal(q)
    g = group_algebra(N)
    b1, b2 = taft_factor(r, qnu), replace(g, S=None)
    s1, s2 = b1.space, b2.space
    act_l = LinMap((s2, s1), (s1,),
                   {(m, flatten((l, m), (N, r))): q_inv ** (m * l)
                    for m in range(r) for l in range(N)})
    coact_l = LinMap((s1,), (s2, s1),
                     {(flatten(((-nu * m) % N, m), (N, r)), m): ONE
                      for m in range(r)})
    datum = HopfDatum(b1, b2, act_l, coact_l)
    # H is the datum's cross product: x^m g^l = x^m (x) g^l is its basis
    # vector m * N + l.  Its S comes from g's and the Taft factor's braided
    # antipode, S1(x^m) = (-1)^m (q^nu)^(m(m-1)/2) x^m
    S1 = LinMap((s1,), (s1,), {(m, m): (-ONE) ** m * qnu ** (m * (m - 1) // 2)
                               for m in range(r)})
    H = datum.product(f"Rad({n},{params.q_exponent},{N},{nu})", (S1, g.S))
    system = ProjectionSystem(*canonical_maps(b1, b2, H.space))
    return {"H": H, "system": system, "datum": datum}


# ---------------------------------------------------------------------------
# finite Ore towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OreParams:
    """A finite abelian group (cyclic orders), t skew generators, group
    elements g_j and characters g*_j given by exponent tuples."""

    group: Tuple[int, ...]
    t: int
    g: Tuple[Tuple[int, ...], ...]
    g_star: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        object.__setattr__(self, "g", tuple(tuple(e) for e in self.g))
        object.__setattr__(self, "g_star",
                           tuple(tuple(e) for e in self.g_star))
        if self.t < 1:
            raise ParameterError("need at least one skew generator")
        if any(o < 1 for o in self.group) or not self.group:
            raise ParameterError("group must be a nonempty list of "
                                 "positive cyclic orders")
        if len(self.g) != self.t or len(self.g_star) != self.t:
            raise ParameterError("need exactly t group elements and "
                                 "t characters")
        k = len(self.group)
        if any(len(e) != k for e in self.g + self.g_star):
            raise ParameterError("element/character tuples must match the "
                                 "number of cyclic factors")

    @property
    def dim(self) -> int:
        """2^t times the group order: the normal form c X^alpha."""
        return prod(self.group) << self.t


def _character(orders: Tuple[int, ...], expo: Tuple[int, ...], elt):
    """Value of the character with exponent tuple expo at a group element."""
    L = lcm(*orders)
    E = sum((L // o) * e * a for o, e, a in zip(orders, expo, elt)) % L
    return root_of_unity(L, 1) ** E


def ore_finite(params: OreParams) -> dict:
    """The finite Ore tower over kC with skew primitives x_1..x_t.

    Relations x_j c = g*_j(c) c x_j and coproducts
    Delta(x_j) = x_j (x) g_j + 1 (x) x_j; finite-dimensionality requires
    the diagonal values g*_j(g_j) to equal -1, which forces x_j^2 = 0 and
    the subset normal form c X^alpha, basis vector alpha * |C| + c.
    Returns {"H", "system", "datum"}: H is the cross product of its Hopf
    datum, kC and the exterior factor spanned by the X^alpha, which kC
    acts on and coacts on from the right, with a trivial left pair.
    """
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

    # a group element is an exponent tuple, its basis index that tuple
    # reduced and flattened over orders; elts lists the elements by index
    nC, nX = prod(orders), 1 << t
    elts = [unflatten(c, orders) for c in range(nC)]

    def index(expo) -> int:
        return flatten(tuple(a % o for a, o in zip(expo, orders)), orders)

    def bits(mask: int):
        return [j for j in range(t) if mask >> j & 1]

    def q(a: int, b: int):
        """The scalar of X^a X^b = q(a, b) X^(a|b), a and b disjoint."""
        v = ONE
        for j in bits(a):
            for k in bits(b):
                if j > k:
                    v = v * gram[j][k]
        return v

    def g_of(mask: int) -> int:
        """The index of g_alpha, the product of the g_j over j in mask."""
        return index([sum(params.g[j][i] for j in bits(mask))
                      for i in range(len(orders))])

    gname = "x".join(map(str, orders))
    kc = reduce(tensor_structure, map(group_algebra, orders))
    sg, sl = Space(f"kC{gname}", nC), Space(f"Lam{t}", nX)
    b1 = fuse(sg, kc.m, kc.eta, kc.delta, kc.eps)
    # Delta(X^alpha) sums q(beta, alpha - beta)^-1 X^beta (x) X^(alpha - beta)
    # over the subsets beta of alpha
    b2 = Structure(
        sl, LinMap((sl, sl), (sl,), {(a | b, a * nX + b): q(a, b)
                                     for a in range(nX) for b in range(nX)
                                     if not a & b}),
        LinMap(UNIT, (sl,), {(0, 0): ONE}),
        LinMap((sl,), (sl, sl), {(b * nX + (a ^ b), a):
                                 reciprocal(q(b, a ^ b))
                                 for a in range(nX) for b in range(nX)
                                 if a & b == b}),
        LinMap((sl,), UNIT, {(0, 0): ONE}))
    act_r = LinMap((sl, sg), (sl,), {
        (a, a * nC + c): prod((_character(orders, params.g_star[j], elts[c])
                               for j in bits(a)), start=ONE)
        for a in range(nX) for c in range(nC)})
    coact_r = LinMap((sl,), (sl, sg), {(a * nC + g_of(a), a): ONE
                                       for a in range(nX)})
    datum = HopfDatum(b1, b2, act_r=act_r, coact_r=coact_r)

    # H is the datum's cross product, its basis c (x) X^alpha reordered
    # to the normal form's alpha * |C| + c.  Its S comes from kC's and the
    # exterior factor's braided antipode, S2(X^alpha) = (-1)^|alpha| X^alpha
    S2 = LinMap((sl,), (sl,), {(a, a): (-ONE) ** len(bits(a))
                               for a in range(nX)})
    cross = datum.product(antipodes=(rebind(kc.S, (sg,), (sg,)), S2))
    s = Space(f"Ore(C{gname};t={t})", params.dim)
    P, B = (s,), (cross.space,)
    i, p = rebind(flip(sl, sg), P, B), rebind(flip(sg, sl), B, P)
    H = replace(restrict(cross, i, p), S=p * cross.S * i)
    il, ic, pl, pc = canonical_maps(b2, b1, s)
    return {"H": H, "system": ProjectionSystem(ic, il, pc, pl),
            "datum": datum}


# ---------------------------------------------------------------------------
# packaged crossed modules
# ---------------------------------------------------------------------------

def sweedler_crossed_modules():
    """Sweedler's truncated factor as a crossed module on both sides.

    The braided line pair at N = 2 on the spaces SwB and SwC: H = kC2,
    with the left crossed module of radford(2,1,2,1) and the mirror right
    crossed module of the matching Ore tower; packaged as input for the
    double biproduct (pairing left unset).
    """
    return _line_pair(2, Space("SwB", 2), Space("SwC", 2))


def braided_line_input(N: int):
    """Two braided lines over kC_N as double-biproduct input (N even).

    Both lines carry the sign action x <| g = -x resp. g |> x = -x; the
    right line covalues in g and the left one in g^(N-1).  N = 2 collapses
    the two group-likes and recovers the Sweedler configuration; for
    N >= 4 they differ, which is what keeps the induced cocycle twist of
    the assembled product from cancelling out.
    """
    if N < 2 or N % 2:
        raise ParameterError("N must be even and at least 2")
    return _line_pair(N, Space(f"Line{N}r", 2), Space(f"Line{N}l", 2))


def _line_pair(N: int, sb: Space, sc: Space):
    """The braided lines of braided_line_input(N) on the spaces sb, sc."""
    H = group_algebra(N)
    sh = H.space
    taft = taft_factor(2, -ONE)
    B, C = (fuse(sp, taft.m, taft.eta, taft.delta, taft.eps)
            for sp in (sb, sc))
    mone = -ONE
    b_act = LinMap((sb, sh), (sb,),
                   {(i, flatten((i, c), (2, N))): mone ** (i * c)
                    for i in range(2) for c in range(N)})
    b_coact = LinMap((sb,), (sb, sh),
                     {(flatten((i, i), (2, N)), i): ONE for i in range(2)})
    c_act = LinMap((sh, sc), (sc,),
                   {(i, flatten((c, i), (N, 2))): mone ** (i * c)
                    for i in range(2) for c in range(N)})
    c_coact = LinMap((sc,), (sh, sc),
                     {(flatten(((N - i) % N, i), (N, 2)), i): ONE
                      for i in range(2)})
    return DoubleBiproductInput(H, B, C, b_act, b_coact, c_act, c_coact)
