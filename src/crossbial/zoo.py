"""Builders for the catalogue of concrete structures.

Group algebras of finite cyclic groups and their function-algebra duals,
truncated polynomial factors with Gaussian-binomial coproducts, Radford's
four-parameter Hopf algebras, and finite Ore towers over a finite abelian
group.  Every tower is written once, and the package's own constructions
supply its other half.  Radford's algebra is the cross product of its
hand-written Hopf datum: its product and coproduct come from the datum,
and its splitting is the canonical one of the product.  An Ore tower's
multiplication table and splitting are written out on its normal-form
basis, with the coproduct and antipode extended mechanically from the
generators, and its datum is read off the splitting by the code that
decompose verifies.  Builders return plain structures, or dicts bundling
the algebra with its canonical splitting and interaction maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Tuple

from .crossproduct import ProjectionSystem, _read_datum, _transport
from .datum import HopfDatum
from .linmaps import (LinMap, Space, UNIT, flatten, flip, run_pipeline,
                      unflatten)
from .scalars import (ONE, InputError, as_scalar, q_binomial, reciprocal,
                      root_of_unity)
from .structures import Structure, canonical_maps, fuse
from .twisting import DoubleBiproductInput


class ParameterError(InputError, ValueError):
    pass


class UnsupportedError(InputError, ValueError):
    """The requested object falls outside the finite-dimensional regime."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _bare(st: Structure) -> Structure:
    """The same structure with the antipode forgotten."""
    return Structure(st.space, st.m, st.eta, st.delta, st.eps)


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
    if N < 1:
        raise ParameterError("N must be a positive integer")
    s = Space(f"kC{N}*", N)
    m = LinMap((s, s), (s,), {(a, a * N + a): ONE for a in range(N)})
    eta = LinMap(UNIT, (s,), {(a, 0): ONE for a in range(N)})
    delta = LinMap((s,), (s, s),
                   {(b * N + (a - b) % N, a): ONE
                    for a in range(N) for b in range(N)})
    eps = LinMap((s,), UNIT, {(0, 0): ONE})
    S = LinMap((s,), (s,), {((-a) % N, a): ONE for a in range(N)})
    return Structure(s, m, eta, delta, eps, S)


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
    b1, b2 = taft_factor(r, qnu), _bare(group_algebra(N))
    s1, s2 = b1.space, b2.space
    act_l = LinMap((s2, s1), (s1,),
                   {(m, flatten((l, m), (N, r))): q_inv ** (m * l)
                    for m in range(r) for l in range(N)})
    coact_l = LinMap((s1,), (s2, s1),
                     {(flatten(((-nu * m) % N, m), (N, r)), m): ONE
                      for m in range(r)})
    datum = HopfDatum(b1, b2, act_l, coact_l)
    # H is the datum's cross product: x^m g^l = x^m (x) g^l is its basis
    # vector idx(m, l)
    base = datum.product(f"Rad({n},{params.q_exponent},{N},{nu})")
    s, mH = base.space, base.m

    def idx(m: int, l: int) -> int:
        return m * N + l % N

    # antipode: S(g) = g^{-1}, S(x) = -g^nu x, extended anti-multiplicatively
    P = (s,)
    sx = LinMap(UNIT, P, {(idx(1, nu), 0): -(q_inv ** nu)})  # -g^nu x
    sent = {}
    for m in range(r):
        for l in range(N):
            acc = LinMap(UNIT, P, {(idx(0, -l), 0): ONE})
            for _ in range(m):
                acc = mH * (acc @ sx)
            for (row, _), v in acc.entries.items():
                sent[(row, idx(m, l))] = v
    H = Structure(s, mH, base.eta, base.delta, base.eps,
                  LinMap((s,), (s,), sent))
    system = ProjectionSystem(H, *canonical_maps(b1, b2, s))
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
    the subset normal form c X^alpha.  Returns {"H", "system", "datum"}
    with the group factor carrying the trivial side of the datum; the
    datum is the one the splitting carries.
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
    system = ProjectionSystem(H, i1, i2, p1, p2)

    # the datum the splitting carries, read off without decompose's and
    # bat_to_hopf_datum's checks, which cost about nine times the whole
    # build on a dim-16 C2 x C2 tower
    datum = _read_datum(_transport(H, system)[0])
    return {"H": H, "system": system, "datum": datum}


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
