import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossbial import linmaps, zoo
from crossbial.cli import linmap_from_json, linmap_to_json
from crossbial.linmaps import (
    PIPELINE_BLOCK,
    ConfigurationError,
    LeftYetterDrinfeld,
    LinMap,
    ShapeError,
    Space,
    UNIT,
    VectFlip,
    YetterDrinfeld,
    apply_at,
    dim_of,
    flatten,
    flip,
    pipeline_as_linmap,
    rebind,
    reduce_rows,
    run_pipeline,
    unflatten,
)
from crossbial.scalars import (ONE, ZERO, Cyclo, ScalarParseError,
                               reciprocal, root_of_unity, scalar_from_json)
from crossbial.structures import yd_provider, yd_provider_left
from tests.test_acceptance import braided_taft_pairing
from tests.test_datum import phi_diagram, pipeline_columns, random_endo
from tests.test_scalars import scalar_kind

F = Fraction

X = Space("X", 2)
Y = Space("Y", 3)
Z = Space("Z", 2)
P4 = Space("P4", 4)   # X (x) Z on one strand


def _rand_map(dom, cod, seed):
    import random
    rng = random.Random(seed)
    rows = [[F(rng.randint(-3, 3)) for _ in range(LinMap.identity(dom).ncols)]
            for _ in range(LinMap.identity(cod).nrows)]
    return LinMap.from_rows(dom, cod, rows)


def doubled(f):
    return LinMap(f.dom, f.cod, {k: 2 * v for k, v in f.entries.items()})


# -- compose / tensor -------------------------------------------------------

def test_compose_identity():
    f = _rand_map((X,), (Y,), 1)
    assert LinMap.identity((Y,)) * f == f
    assert f * LinMap.identity((X,)) == f


def test_compose_shape_error():
    f = _rand_map((X,), (Y,), 2)
    g = _rand_map((Z,), (X,), 3)
    assert (f * g).dom == (Z,)  # f after g is fine
    with pytest.raises(ShapeError):
        g * f  # g after f is not: Y != Z


def test_flip_is_involution():
    assert flip(Y, X) * flip(X, Y) == LinMap.identity((X, Y))


def test_tensor_shapes():
    f = _rand_map((X,), (X,), 4)
    g = _rand_map((Y,), (Y,), 5)
    t = f @ g
    assert t.nrows == 6 and t.ncols == 6
    assert t.dom == (X, Y)


def test_interchange_law():
    # f: X->Y, g: Z->X;  f (x) g = (f (x) id) o (id (x) g) = (id (x) g) o (f (x) id)
    f = _rand_map((X,), (Y,), 6)
    g = _rand_map((Z,), (X,), 7)
    left = (f @ LinMap.identity((X,))) * (LinMap.identity((X,)) @ g)
    right = (LinMap.identity((Y,)) @ g) * (f @ LinMap.identity((Z,)))
    assert left == (f @ g) == right


def test_a_map_has_no_sum_difference_or_scalar_multiple():
    # a law is an equality of diagrams, built by * and @ alone
    f = _rand_map((X,), (Y,), 8)
    for op in (lambda: f * 2, lambda: 2 * f, lambda: f + f, lambda: f - f,
               lambda: -f):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("bad", [1.5, 0.0, True, False, None, "1", 1j])
def test_constructor_refuses_an_inexact_entry(bad):
    # an entry whose type is not int, Fraction or Cyclo, a float or a bool
    # (zero or not) above all, never reaches a product
    with pytest.raises(TypeError):
        LinMap((X,), (X,), {(0, 0): ONE, (1, 1): bad})


@pytest.mark.parametrize("key", [(3, 0), (0, 2), (-1, 0), (0, -1)])
def test_constructor_refuses_an_entry_outside_its_matrix(key):
    # X -> Y is a 3x2 matrix
    with pytest.raises(ShapeError) as exc:
        LinMap((X,), (Y,), {(0, 0): ONE, key: ONE})
    assert str(exc.value) == f"entry ({key[0]},{key[1]}) outside 3x2 matrix"


def test_constructor_keeps_every_exact_entry_type():
    entries = {(0, 0): 3, (0, 1): F(1, 2), (1, 0): F(4),
               (1, 1): root_of_unity(4, 1)}
    f = LinMap((X,), (X,), entries)
    assert [type(v) for v in f.entries.values()] == [int, F, F, Cyclo]


# -- permutation ------------------------------------------------------------

def permutation(spaces, perm):
    """Basis-permutation map; strand i of the domain goes to slot perm[i]."""
    spaces, perm = tuple(spaces), tuple(perm)
    k = len(spaces)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a bijection on {k} positions: {perm}")
    cod = [None] * k
    for i, p in enumerate(perm):
        cod[p] = spaces[i]
    cod = tuple(cod)
    ddims = tuple(s.dim for s in spaces)
    cdims = tuple(s.dim for s in cod)
    entries = {}
    for flat in range(dim_of(spaces)):
        idx = unflatten(flat, ddims)
        out = [0] * k
        for i, p in enumerate(perm):
            out[p] = idx[i]
        entries[(flatten(tuple(out), cdims), flat)] = ONE
    return LinMap._trusted(spaces, cod, entries, True)


@pytest.mark.parametrize("dx, dy", [(1, 1), (1, 3), (3, 1), (2, 2), (4, 16),
                                    (16, 16), (8, 64), (256, 1)])
def test_flip_is_the_swap_permutation_entry_for_entry(dx, dy):
    x, y = Space("X", dx), Space("Y", dy)
    got, want = flip(x, y), permutation((x, y), (1, 0))
    assert (got.dom, got.cod) == (want.dom, want.cod) == ((x, y), (y, x))
    assert list(got.entries.items()) == list(want.entries.items())
    assert got._ones is want._ones is True


def test_permutation_identity():
    assert permutation((X, Y), (0, 1)) == LinMap.identity((X, Y))


def test_permutation_swap_is_flip():
    assert permutation((X, Y), (1, 0)) == flip(X, Y)


def test_three_cycle_cubes_to_identity():
    p = permutation((X, Y, Z), (1, 2, 0))
    q = permutation(p.cod, (1, 2, 0))
    r = permutation(q.cod, (1, 2, 0))
    assert r * q * p == LinMap.identity((X, Y, Z))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        permutation((X, Y), (0, 0))


# -- inversion --------------------------------------------------------------

def invert(f: LinMap) -> LinMap:
    """The exact two-sided inverse of a square f, read off the reduced form
    of [A | I]; ValueError naming the rank when there is none.  The package
    itself inverts no matrix: it needs ranks and solutions, which
    reduce_rows gives directly."""
    n = f.nrows
    rows = f.by_row()
    red = reduce_rows({**rows.get(i, {}), n + i: ONE} for i in range(n))
    rank = sum(1 for c in red if c < n)
    if rank < n:
        raise ValueError(f"singular matrix (rank {rank} of {n})")
    return LinMap(f.cod, f.dom, {(i, c - n): v for i, row in red.items()
                                 for c, v in row.items()})


def test_invert_identity_and_flip():
    assert invert(LinMap.identity((X,))) == LinMap.identity((X,))
    assert invert(flip(X, Y)) == flip(Y, X)


def test_invert_zero_fails_with_rank():
    z = LinMap((X,), (X,))
    with pytest.raises(ValueError,
                       match=r"^singular matrix \(rank 0 of 2\)$"):
        invert(z)


def test_invert_singular_rank():
    s = LinMap.from_rows((X,), (X,), [[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError,
                       match=r"^singular matrix \(rank 1 of 2\)$"):
        invert(s)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_invert_roundtrip(seed):
    f = _rand_map((X, Z), (X, Z), seed)
    try:
        g = invert(f)
    except ValueError:
        return
    assert g * f == LinMap.identity((X, Z))
    assert f * g == LinMap.identity((X, Z))


def _dense_rref(rows):
    """Dense exact Gauss-Jordan elimination, the oracle for reduce_rows:
    the reduced row echelon form and its pivot column list."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    lead = 0
    for col in range(nc):
        piv = next((r for r in range(lead, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = reciprocal(rows[lead][col])
        rows[lead] = [inv * v for v in rows[lead]]
        for r in range(nr):
            if r != lead and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == nr:
            break
    return rows, pivots


_ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, F(2), F(1, 2),
                            F(-2, 3), root_of_unity(4, 1)])


@st.composite
def _matrices(draw):
    """Square, wide or tall matrices; rank-deficient ones are products
    through fewer dimensions than either side."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["square", "wide", "tall"]))
    extra = 0 if shape == "square" else draw(st.integers(1, 3))
    nr, nc = (n, n + extra) if shape != "tall" else (n + extra, n)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nr, nc) - 1))
        a = [[draw(_ENTRIES) for _ in range(k)] for _ in range(nr)]
        b = [[draw(_ENTRIES) for _ in range(nc)] for _ in range(k)]
        return [[sum((a[i][t] * b[t][j] for t in range(k)), ZERO)
                 for j in range(nc)] for i in range(nr)]
    return [[draw(_ENTRIES) for _ in range(nc)] for _ in range(nr)]


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_reduce_rows_matches_the_dense_rref(m):
    rows, pivots = _dense_rref(m)
    red = reduce_rows({c: v for c, v in enumerate(row) if v} for row in m)
    assert sorted(red) == pivots
    nc = len(m[0])
    assert [[ONE if c == p else red[p].get(c, ZERO) for c in range(nc)]
            for p in pivots] == rows[:len(pivots)]
    assert not any(any(r) for r in rows[len(pivots):])


# -- braiding ---------------------------------------------------------------

def test_vectflip_squares_to_identity():
    bp = VectFlip()
    psi = bp.braiding(X, Y)
    assert bp.braiding(Y, X) * psi == LinMap.identity((X, Y))


def test_vectflip_naturality():
    bp = VectFlip()
    f = _rand_map((X,), (Y,), 11)
    g = _rand_map((Z,), (X,), 12)
    lhs = bp.braiding(Y, X) * (f @ g)
    rhs = (g @ f) * bp.braiding(X, Z)
    assert lhs == rhs


def test_vectflip_list_matches_pairwise_hexagon():
    bp = VectFlip()
    lhs = bp.braiding_list((X,), (Y, Z))
    rhs = (LinMap.identity((Y,)) @ bp.braiding(X, Z)) * \
          (bp.braiding(X, Y) @ LinMap.identity((Z,)))
    assert lhs == rhs


def _sweedler_yd():
    H = Space("H", 2)
    M = Space("M", 2)
    bp = YetterDrinfeld(H)
    # basis of M: (1, x); of H: (1, g).  x <| g = -x, coaction x -> x (x) g
    act = LinMap(( M, H), (M,), {(0, 0): F(1), (0, 1): F(1),
                                 (1, 2): F(1), (1, 3): F(-1)})
    coact = LinMap((M,), (M, H), {(0, 0): F(1), (3, 1): F(1)})
    bp.register(M, act, coact)
    return bp, M, H


def test_yd_braiding_sweedler_sign():
    bp, M, _ = _sweedler_yd()
    psi = bp.braiding(M, M)
    # x (x) x -> -x (x) x
    assert psi.entry(3, 3) == F(-1)
    # 1 (x) x -> x (x) 1 (coaction of x hits g, but 1 <| g = 1)
    assert psi.entry(2, 1) == F(1)


def test_yd_noninvolutive_over_c3():
    q = root_of_unity(3, 1)
    H = Space("H3", 3)
    M = Space("M", 2)
    bp = YetterDrinfeld(H)
    # x <| g^l = q^l x; coaction x -> x (x) g
    entries = {}
    for l in range(3):
        entries[(0, 0 * 3 + l)] = F(1)        # 1 <| g^l = 1
        entries[(1, 1 * 3 + l)] = q ** l      # x <| g^l = q^l x
    act = LinMap((M, H), (M,), entries)
    coact = LinMap((M,), (M, H), {(0 * 3 + 0, 0): F(1), (1 * 3 + 1, 1): F(1)})
    bp.register(M, act, coact)
    psi = bp.braiding(M, M)
    square = psi * psi
    assert square.entry(3, 3) == q ** 2
    assert square != LinMap.identity((M, M))


def test_yd_unregistered_space_errors():
    bp, M, H = _sweedler_yd()
    with pytest.raises(ConfigurationError):
        bp.braiding(M, Space("other", 2))


def test_yd_composite_braiding_hexagon():
    bp, M, _ = _sweedler_yd()
    lhs = bp.braiding_list((M,), (M, M))
    rhs = (LinMap.identity((M,)) @ bp.braiding(M, M)) * \
          (bp.braiding(M, M) @ LinMap.identity((M,)))
    assert lhs == rhs
    # and the inverse really inverts
    inv = invert(bp.braiding_list((M,), (M, M)))
    assert inv * lhs == LinMap.identity((M, M, M))


@pytest.mark.parametrize("provider", ["flip", "yetter-drinfeld"])
def test_braiding_an_empty_list_is_the_identity_on_the_other(provider):
    bp, M, _ = _sweedler_yd()
    if provider == "flip":
        bp = VectFlip()
    for xs, ys in (((), (M, M)), ((M,), ()), ((), ())):
        psi = bp.braiding_list(xs, ys)
        assert psi == LinMap.identity(xs + ys)
        assert (psi.dom, psi.cod) == (xs + ys, xs + ys)


# -- pipelines --------------------------------------------------------------

def test_pipeline_matches_direct_composition():
    f = _rand_map((X,), (Y,), 21)
    g = _rand_map((Z,), (Z,), 22)
    h = _rand_map((Y, Z), (X,), 23)
    direct = h * (f @ g)
    piped = pipeline_as_linmap([[f, g], [h]])
    assert piped == direct


def test_pipeline_with_units():
    # eta: k -> X as a 0-strand-domain factor inside a layer
    eta = LinMap((), (X,), {(0, 0): F(1)})
    f = _rand_map((X, X), (Y,), 24)
    direct = f * (LinMap.identity((X,)) @ eta)
    piped = pipeline_as_linmap([[LinMap.identity((X,)), eta], [f]])
    assert piped == direct


def _three_row_diagram(n):
    """A random map out of an n-dim space beside a vector over Q(zeta_4),
    then a product with sums, then a flip: a first row of domain dim n."""
    A = Space("A", n)
    vec = LinMap(UNIT, (Y,), {(1, 0): F(2), (2, 0): _Z4})
    return [[_rand_map((A,), (Y, X), 30 + n), vec],
            [LinMap.identity((Y,)), _rand_map((X, Y), (Y,), 31)],
            [flip(Y, Y)]]


def _phi_diagram_of_radford_3131():
    """The whole recursion diagram on Radford(3,1,3,1), whose quad has dim
    81, around a random endomorphism."""
    import random
    d = zoo.radford(zoo.RadfordParams(3, 1, 3, 1))["datum"]
    return phi_diagram(d, random_endo(d.quad, random.Random(3), 0.05))


def _zero_column_diagram():
    """_three_row_diagram(PIPELINE_BLOCK + 2) with columns 1 and
    PIPELINE_BLOCK of its first factor zeroed: the first row has two zero
    columns, so its nonzero columns fall into other blocks than the
    domain's."""
    layers = _three_row_diagram(PIPELINE_BLOCK + 2)
    f = layers[0][0]
    layers[0][0] = LinMap(f.dom, f.cod, {
        (r, c): v for (r, c), v in f.entries.items()
        if c not in (1, PIPELINE_BLOCK)})
    return layers


def _one_row_diagram():
    """A first row and nothing above it."""
    vec = LinMap(UNIT, (Y,), {(1, 0): F(2), (2, 0): _Z4})
    return [[_rand_map((X,), (Y, X), 32), vec]]


@pytest.mark.parametrize("diagram", [
    lambda: _three_row_diagram(1),
    lambda: _three_row_diagram(PIPELINE_BLOCK - 1),
    lambda: _three_row_diagram(PIPELINE_BLOCK),
    lambda: _three_row_diagram(PIPELINE_BLOCK + 1),
    _zero_column_diagram,
    _one_row_diagram,
    _phi_diagram_of_radford_3131,
], ids=["dim1", "block-1", "block", "block+1", "zero-columns", "one-row",
        "dim81"])
def test_blocked_pipeline_matches_the_one_column_oracle(diagram,
                                                        monkeypatch):
    layers = diagram()
    runs = []

    def spy(rows):
        runs.append(rows)
        return run_pipeline(rows)

    monkeypatch.setattr(linmaps, "run_pipeline", spy)
    got = pipeline_as_linmap(layers)
    monkeypatch.undo()
    want = {(r, c): v for c, col in pipeline_columns(layers)
            for (r, _), v in col.entries.items()}
    dom = tuple(s for f in layers[0] for s in f.dom)
    assert got.dom == dom
    assert got.cod == tuple(s for f in layers[-1] for s in f.cod)
    assert got.entries == want
    assert {k: repr(v) for k, v in got.entries.items()} == {
        k: repr(v) for k, v in want.items()}
    # the first row is written down once; then each run pushes one block
    # of it through the later rows: a slice of the first row's nonzero
    # columns, PIPELINE_BLOCK of them but the last, ascending, each once
    first = run_pipeline(layers[:1])
    assert runs[0] == layers[:1]
    assert all(len(rows[0]) == 1 and rows[1:] == layers[1:]
               for rows in runs[1:])
    blocks = [rows[0][0] for rows in runs[1:]]
    cols = [sorted({c for _, c in b.entries}) for b in blocks]
    assert [len(cs) for cs in cols[:-1]] == [PIPELINE_BLOCK] * (
        len(cols) - 1)
    assert 0 < len(cols[-1]) <= PIPELINE_BLOCK
    assert [c for cs in cols for c in cs] == sorted(first.by_col())
    for b, cs in zip(blocks, cols):
        assert (b.dom, b.cod) == (first.dom, first.cod)
        assert b.entries == {(r, c): v for (r, c), v in first.entries.items()
                             if c in cs}


# -- 0/1 fast paths against a dense oracle -----------------------------------

def to_rows(f):
    """f as a dense row-major matrix of scalars, zeros included."""
    rows = [[ZERO] * f.ncols for _ in range(f.nrows)]
    for (r, c), v in f.entries.items():
        rows[r][c] = v
    return rows


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _typed(rows):
    return [[(scalar_kind(v), v) for v in row] for row in rows]


def _eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


_POOL = (Space("P", 1), X, Y, Space("W", 3))
_Z4 = root_of_unity(4, 1)
_KINDS = {"rational": [ZERO, ZERO, ONE, -ONE, F(2), F(1, 2), F(-2, 3)],
          "zeta4": [ZERO, ZERO, ONE, -ONE, _Z4, -_Z4, ONE + _Z4, F(1, 3)],
          "ones": [ZERO, ZERO, ONE]}


@st.composite
def _strands(draw):
    return tuple(draw(st.lists(st.sampled_from(_POOL), min_size=1,
                               max_size=2)))


@st.composite
def _maps(draw, dom, cod=None):
    """A map out of dom: random over Q or Q(zeta_4), a random 0/1 pattern,
    an identity or a strand permutation (the last two fix the codomain)."""
    kinds = ["rational", "zeta4", "ones"]
    if cod is None:
        kinds += ["identity", "permutation"]
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return LinMap.identity(dom)
    if kind == "permutation":
        return permutation(dom, draw(st.permutations(range(len(dom)))))
    if cod is None:
        cod = draw(_strands())
    n, m = LinMap.identity(cod).nrows, LinMap.identity(dom).ncols
    return LinMap.from_rows(dom, cod, [
        [draw(st.sampled_from(_KINDS[kind])) for _ in range(m)]
        for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tensor_compose_and_pipeline_match_the_dense_oracle(data):
    f = data.draw(_maps(data.draw(_strands())))
    g = data.draw(_maps(f.cod))
    h = data.draw(_maps(data.draw(_strands())))
    assert _typed(to_rows(f @ h)) == _typed(_kron(to_rows(f), to_rows(h)))
    assert _typed(to_rows(g * f)) == _typed(_matmul(to_rows(g), to_rows(f)))
    top = data.draw(_maps(f.cod + h.cod, data.draw(_strands())))
    oracle = _matmul(to_rows(top), _kron(to_rows(f), to_rows(h)))
    assert _typed(to_rows(pipeline_as_linmap([[f, h], [top]]))) == \
        _typed(oracle)
    # run_pipeline reads its input off the first row: a row of several
    # factors starts from the identity on their domains, a single factor
    # (a map out of k too) is the input itself
    assert _typed(to_rows(run_pipeline([[f, h], [top]]))) == _typed(oracle)
    assert _typed(to_rows(run_pipeline([[f], [g]]))) == \
        _typed(_matmul(to_rows(g), to_rows(f)))
    vec = data.draw(_maps(UNIT, f.dom + h.dom))
    assert _typed(to_rows(run_pipeline([[vec], [f, h], [top]]))) == \
        _typed(_matmul(oracle, to_rows(vec)))
    # the kernel at every strand position, on f and on a 1-column input,
    # with a factor on none (a map out of k), one or two of the strands
    col = data.draw(_maps(UNIT, f.cod + h.cod[:1]))
    for m in (f, col):
        for pos in range(len(m.cod) + 1):
            width = data.draw(st.integers(0, min(2, len(m.cod) - pos)))
            k = data.draw(_maps(m.cod[pos:pos + width]))
            padded = _kron(_kron(_eye(dim_of(m.cod[:pos])), to_rows(k)),
                           _eye(dim_of(m.cod[pos + width:])))
            assert _typed(to_rows(apply_at(m, k, pos))) == \
                _typed(_matmul(padded, to_rows(m)))


def test_run_pipeline_refuses_rows_that_do_not_fit():
    f = _rand_map((X,), (Y,), 25)
    g = _rand_map((Z,), (Z,), 26)
    h = _rand_map((Y,), (X,), 27)
    with pytest.raises(ShapeError, match="does not consume all 2 strands"):
        run_pipeline([[f, g], [h]])              # too few
    with pytest.raises(ShapeError, match="does not consume all 1 strands"):
        run_pipeline([[f], [h, g]])              # too many
    with pytest.raises(ShapeError, match="strands differ"):
        run_pipeline([[f, g], [g, h]])           # Y (x) Z under Z (x) Y


def test_composites_of_0_1_maps_are_summed_and_pruned():
    ones = LinMap.from_rows((X,), (X,), [[1, 1], [1, 1]])
    assert ones.is_ones()
    doubled = ones * LinMap.from_rows((X,), (X,), [[1, 1], [1, 0]])
    assert doubled.entries == {(0, 0): F(2), (0, 1): ONE,
                               (1, 0): F(2), (1, 1): ONE}
    assert not doubled.is_ones()
    cancelled = ones * LinMap.from_rows((X,), (X,), [[1, 1], [1, -1]])
    assert cancelled.entries == {(0, 0): F(2), (1, 0): F(2)}
    assert not cancelled.is_ones()
    assert (LinMap.identity((X,)) @ flip(X, Y)).is_ones()


def test_a_0_1_push_sets_its_flag_from_its_sums():
    # f and m both 0/1: a push that summed is flagged not 0/1 (exactly
    # False, not left for a scan), one that did not is flagged 0/1; on the
    # last strands (R = 1) and left of others, with int and Fraction ones
    ones = LinMap.from_rows((X,), (X,), [[1, 1], [1, 1]])
    frac = LinMap((X,), (X,), {(0, 0): F(1), (0, 1): F(1), (1, 0): F(1)})
    swap = LinMap.from_rows((X,), (X,), [[0, 1], [1, 0]])
    idy = LinMap.identity((Y,))
    for m, f, pos, summed in [
            (ones, ones, 0, True), (frac, ones, 0, True),
            (ones, frac, 0, True), (ones, swap, 0, False),
            (ones @ idy, ones, 0, True), (flip(Y, X), ones, 0, False),
            (idy @ ones, ones, 1, True), (flip(X, Y), swap, 1, False)]:
        assert m.is_ones() and f.is_ones()
        out = apply_at(m, f, pos)
        assert out._ones is (not summed)
        assert out._ones is all(v == ONE for v in out.entries.values())
        assert all(out.entries.values())


# -- the kernel shape: 0/1 functions, injections and identities ---------------

def _scanned_identity(f):
    """f is the identity on its strands, by definition."""
    return f.dom == f.cod and f.entries == {
        (i, i): ONE for i in range(f.ncols)}


def _zoo_factors():
    """Every map of a few zoo towers, as built: H's and its splitting's,
    the datum's factors and slots, and each factor of its Phi rows."""
    from crossbial.datum import _phi_layers
    towers = ([zoo.radford(zoo.RadfordParams(*p))
               for p in [(2, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1)]]
              + [zoo.ore_finite(zoo.OreParams(*p))
                 for p in [((2,), 1, ((1,),), ((1,),)),
                           ((4,), 1, ((2,),), ((1,),))]])
    for tower in towers:
        H, system, d = tower["H"], tower["system"], tower["datum"]
        yield from (H.m, H.eta, H.delta, H.eps, H.S)
        yield from (system.i1, system.i2, system.p1, system.p2)
        for st in (d.b1, d.b2):
            yield from (st.m, st.eta, st.delta, st.eps, st.S)
        yield from (d.act_l, d.coact_l, d.act_r, d.coact_r)
        for row in _phi_layers(d):
            yield from row


def _scanned_shape(f):
    """f's kernel shape by definition: False unless each of f's columns
    holds exactly one entry and that entry is 1, else the row of each
    column's entry, whether no two columns share a row, and whether f is
    the identity on its strands."""
    cols = {}
    for (r, c), v in f.entries.items():
        cols.setdefault(c, []).append((r, v))
    if len(cols) != f.ncols or any(len(e) != 1 or e[0][1] != ONE
                                   for e in cols.values()):
        return False
    rows = [cols[b][0][0] for b in range(f.ncols)]
    return rows, len(set(rows)) == len(rows), _scanned_identity(f)


def _kept(fn):
    """A kept shape with its rows as a list, for comparison."""
    return fn if fn in (None, False) else (list(fn[0]), fn[1], fn[2])


def test_the_kept_identity_flag_is_the_scan_on_every_zoo_factor():
    identities = injections = others = 0
    for f in _zoo_factors():
        if f is None:
            continue
        before = f._fn            # read before anything evaluates f
        want = _scanned_shape(f)
        assert before is None or _kept(before) == want, f
        assert linmaps._is_identity(f) is _scanned_identity(f), f
        assert _kept(f._fn) == want, f
        identities += _scanned_identity(f)
        injections += want is not False and want[1] and not want[2]
        others += not _scanned_identity(f)
    assert identities > 100 and others > 100 and injections > 50


def test_an_identity_carries_its_flag_before_any_read():
    for spaces in [UNIT, (X,), (X, Y)]:
        f = LinMap.identity(spaces)
        assert _kept(f._fn) == (list(range(f.ncols)), True, True)
        assert f._ones is True and f._cols is None
    # an identity built from rows is found by a scan, once, and kept
    g = LinMap.from_rows((X,), (X,), [[1, 0], [0, 1]])
    assert g._fn is None
    assert linmaps._is_identity(g) and _kept(g._fn) == ([0, 1], True, True)
    h = LinMap.from_rows((X,), (X,), [[1, 0], [0, 2]])
    assert not linmaps._is_identity(h) and h._fn is False


@pytest.mark.parametrize("entries", [
    {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): ONE},   # 2 per column
    {(0, 0): ONE, (1, 0): ONE},                # as many entries as columns
    {(0, 0): ONE},                                          # a zero column
    {(0, 0): ONE, (1, 1): F(2)},                                # not 0/1
    {(0, 1): ONE, (1, 0): _Z4}])
def test_a_map_that_is_no_0_1_function_has_no_shape(entries):
    f = LinMap((X,), (X,), entries)
    assert linmaps._function_rows(f) is False and f._fn is False
    assert _scanned_shape(f) is False and not linmaps._is_identity(f)


def test_a_0_1_function_keeps_its_rows_and_whether_it_is_injective():
    # a unit, a counit-like projection onto one row, and Fraction ones
    eta = LinMap(UNIT, (Y,), {(2, 0): ONE})
    proj = LinMap((X, Y), (X,), {(0, c): ONE for c in range(6)})
    frac = LinMap((X,), (X,), {(0, 0): F(1), (1, 1): F(1)})
    assert linmaps._function_rows(eta) == ([2], True, False)
    assert linmaps._function_rows(proj) == ([0] * 6, False, False)
    assert linmaps._function_rows(frac) == ([0, 1], True, True)


def test_a_relabelled_identity_is_one_only_on_equal_strands():
    # a pending relabel of an identity on X, onto A -> B, is evaluated to
    # the identity's entries but is no identity: the kernel must move its
    # strands from A to B
    A, B = Space("A", 2), Space("B", 2)
    q = rebind(LinMap.identity((X,)) * LinMap.identity((X,)), (A,), (B,))
    r = rebind(LinMap.identity((X,)) * LinMap.identity((X,)), (A,), (A,))
    assert q.entries == r.entries == LinMap.identity((X,)).entries
    assert not linmaps._is_identity(q) and linmaps._is_identity(r)
    g = LinMap.from_rows((Y,), (A,), [[1, 2, 3], [4, 5, 6]])
    h = LinMap.from_rows((B,), (B,), [[1, 1], [0, 1]])
    assert run_pipeline([[g], [q], [h]]) == LinMap.from_rows(
        (Y,), (B,), [[5, 7, 9], [4, 5, 6]])


def test_an_identity_in_a_first_row_is_written_without_its_columns():
    # the identity's entries (b, b) are written over range(ncols); next to
    # a factor whose domain and codomain dims differ, as the kernel would
    ident = LinMap.identity((X,))
    g = _rand_map((Y,), (Z, X), 60)
    h = _rand_map((Z,), (Y,), 61)
    for row in ([ident, g], [g, ident], [h, ident, g], [ident, ident, h],
                [g, ident, LinMap.identity((Y,)), h]):
        _assert_same_row(run_pipeline([row]), _identity_seeded_row(row))
    assert ident._cols is None


# -- first rows against the identity-seeded kernel -----------------------------

def _identity_seeded_row(factors):
    """A first row pushed through the kernel: the identity on the row's
    domain strands, then each factor at its strands, right to left."""
    m = LinMap.identity(tuple(s for f in factors for s in f.dom))
    pos = len(m.cod)
    for f in reversed(factors):
        pos -= len(f.dom)
        m = apply_at(m, f, pos)
    return m


def _assert_same_row(new, old):
    # the entries in insertion order (it fixes the order of later sums) and
    # in repr (2 and Fraction(2, 1) are equal, not the same), and the 0/1
    # flag as the builder left it, before anything reads it lazily; the
    # entries come first, as a pending new map is evaluated by that read
    assert [(k, repr(v)) for k, v in new.entries.items()] == \
        [(k, repr(v)) for k, v in old.entries.items()]
    assert (new.dom, new.cod, new._ones) == (old.dom, old.cod, old._ones)


_ROW_POOL = (Space("P", 1), X, Y)
# Fraction(1) and Fraction(-1) next to the ints: a product of such
# Fractions is 0/1 only when its values are read
_ROW_VALUES = {**_KINDS, "signs": [ZERO, ONE, -ONE, F(1), F(-1)]}


@st.composite
def _row_factor(draw, dom=None):
    """A factor on 0 to 3 strands (or on dom): an identity, a strand
    permutation, or a random map into 0 to 2 strands (so maps out of k and
    into k come up) over Q, over Q(zeta_4), 0/1, or with entries +-1 as
    ints or Fractions."""
    if dom is None:
        dom = tuple(draw(st.lists(st.sampled_from(_ROW_POOL), max_size=3)))
    kind = draw(st.sampled_from(["identity", "permutation", *_ROW_VALUES]))
    if kind == "identity":
        return LinMap.identity(dom)
    if kind == "permutation":
        return permutation(dom, draw(st.permutations(range(len(dom)))))
    cod = tuple(draw(st.lists(st.sampled_from(_ROW_POOL), max_size=2)))
    return LinMap.from_rows(dom, cod, [
        [draw(st.sampled_from(_ROW_VALUES[kind]))
         for _ in range(dim_of(dom))] for _ in range(dim_of(cod))])


@settings(max_examples=300, deadline=None)
@given(st.lists(_row_factor(), min_size=2, max_size=4))
def test_a_first_row_is_the_identity_seeded_kernel_row(row):
    assume(dim_of(tuple(s for f in row for s in f.dom)) <= 324)
    assume(dim_of(tuple(s for f in row for s in f.cod)) <= 324)
    _assert_same_row(run_pipeline([row]), _identity_seeded_row(row))
    _assert_same_row(row[0] @ row[-1], _identity_seeded_row([row[0],
                                                             row[-1]]))


def test_a_first_row_reads_the_0_1_test_off_the_values():
    # f (x) f has entries Fraction(1) and no 0/1 flag; the kernel's test
    # reads them as 0/1, so g's ints pass through unmultiplied
    f = LinMap((X,), (X,), {(0, 1): F(-1), (1, 0): F(-1)})
    g = LinMap((X,), (X,), {(0, 0): 2, (1, 1): 3})
    row = run_pipeline([[g, f, f]])
    _assert_same_row(row, _identity_seeded_row([g, f, f]))
    assert repr(row.entry(3, 0)) == "2" and repr(row.entry(7, 4)) == "3"
    assert row._ones is None
    _assert_same_row(g @ (f @ f), _identity_seeded_row([g, f @ f]))


# -- injective 0/1 factors against the general kernel loop --------------------

def _general_apply_at(m, f, pos):
    """The strand kernel as one general loop, as it was before injective
    0/1 factors became a relabelling: the oracle for apply_at's entries,
    scalar types, insertion order and 0/1 flag."""
    k = len(f.dom)
    assert m.cod[pos:pos + k] == f.dom
    if _scanned_identity(f):
        return m
    R = dim_of(m.cod[pos + k:])
    D, C = f.ncols, f.nrows
    DR, CR = D * R, C * R
    fcols = f.by_col()
    f_ones, m_ones = f.is_ones(), m.is_ones()
    out = {}
    summed = False
    for (row, col), v in m.entries.items():
        rest = row % DR
        fcol = fcols.get(rest // R)
        if not fcol:
            continue
        base = row // DR * CR + rest % R
        for r, fv in fcol.items():
            key = (base + r * R, col)
            term = v if f_ones else fv if m_ones else fv * v
            cur = out.get(key)
            if cur is None:
                out[key] = term
            else:
                out[key] = cur + term
                summed = True
    ones = f_ones and m_ones
    if summed and not ones:
        out = {key: v for key, v in out.items() if v}
    return LinMap._trusted(m.dom, m.cod[:pos] + f.cod + m.cod[pos + k:],
                           out, not summed if ones else None)


def _function(dom, cod, rows):
    return LinMap(dom, cod, {(r, b): ONE for b, r in enumerate(rows)})


_Z3 = root_of_unity(3, 1)
_KERNEL_VALUES = {**_ROW_VALUES,
                  "zeta3": [ZERO, ONE, -ONE, _Z3, -_Z3, 2 * _Z3 - 1,
                            _Z3 * F(1, 2)]}


_FACTOR_KINDS = ["injection", "permutation", "flip", "function", "identity",
                 "random"]


@st.composite
def _kernel_factor(draw, dom, kind):
    """A factor out of dom of the given kind: a 0/1 injection, a strand
    permutation, the crossing flip(...) of two strands, a 0/1 function
    that is not injective, an identity, or a random map."""
    D = dim_of(dom)
    if kind == "flip" and len(dom) == 2:
        return flip(*dom)
    if kind in ("permutation", "flip"):
        return permutation(dom, draw(st.permutations(range(len(dom)))))
    if kind == "identity":
        return LinMap.identity(dom)
    cod = tuple(draw(st.lists(st.sampled_from(_ROW_POOL), max_size=2)))
    C = dim_of(cod)
    if kind == "injection" and C >= D:
        return _function(dom, cod, draw(st.permutations(range(C)))[:D])
    if kind in ("injection", "function"):
        return _function(dom, cod, [draw(st.integers(0, C - 1))
                                    for _ in range(D)])
    return LinMap.from_rows(dom, cod, [
        [draw(st.sampled_from(_ROW_VALUES["rational"])) for _ in range(D)]
        for _ in range(C)])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_kernel_matches_the_general_loop(data):
    # m on 1 to 3 strands with int, Fraction or Cyclo entries (or 0/1, or
    # +-1 as ints and Fractions), f at every position, R = 1 and R > 1
    cod = tuple(data.draw(st.lists(st.sampled_from(_ROW_POOL), min_size=1,
                                   max_size=3)))
    dom = tuple(data.draw(st.lists(st.sampled_from(_ROW_POOL), max_size=2)))
    values = _KERNEL_VALUES[data.draw(st.sampled_from(sorted(_KERNEL_VALUES)))]
    m = LinMap.from_rows(dom, cod, [
        [data.draw(st.sampled_from(values))
         for _ in range(dim_of(dom))] for _ in range(dim_of(cod))])
    kind = data.draw(st.sampled_from(_FACTOR_KINDS))
    if kind == "flip" and len(cod) > 1:      # a crossing of two strands
        pos, k = data.draw(st.integers(0, len(cod) - 2)), 2
    else:
        pos = data.draw(st.integers(0, len(cod)))
        k = data.draw(st.integers(0, len(cod) - pos))
    f = data.draw(_kernel_factor(cod[pos:pos + k], kind))
    _assert_same_row(apply_at(m, f, pos), _general_apply_at(m, f, pos))


def test_the_kernel_matches_the_general_loop_on_fixed_factors():
    # each factor at each position of a dense m over Q and over Q(zeta_3),
    # with sums in every column for the projection
    V = Space("V", 3)
    for values in ([F(1, 2), -2, 3], [_Z3, -ONE, 1 - _Z3]):
        m = LinMap.from_rows((X,), (X, Y, V), [
            [values[(r + c) % 3] for c in range(2)] for r in range(18)])
        for pos in range(3):
            s = m.cod[pos]
            sides = [flip(s, m.cod[pos + 1])] if pos < 2 else []
            for f in sides + [
                    _function((s,), (s,), list(reversed(range(s.dim)))),
                    _function((s,), (s, Z), [2 * r + 1 for r in range(s.dim)]),
                    _function((s,), (Space("P", 1),), [0] * s.dim),
                    _function(UNIT, (Z,), [1])]:
                at = pos + (len(f.dom) == 0)
                want = _general_apply_at(m, f, at)
                _assert_same_row(apply_at(m, f, at), want)


# -- operator expressions as pending diagrams ---------------------------------

_TREE_DIM = 216


@st.composite
def _operator_tree(draw, depth, dom=None):
    """(built, eager, nodes): a random tree of `*` and `@` over _row_factor
    on dom (any strands when None), built with the operators, the same
    tree evaluated eagerly (compose is apply_at(f, g, 0) and tensor is
    run_pipeline([[f, g]]), each on evaluated operands), and every map
    the operators built.  A "reuse" node reads one composite twice, as the
    later side of another composite and as a factor beside it."""
    kinds = ["leaf", "leaf", "tensor", "compose"]
    if dom is None:
        kinds.append("reuse")
    elif len(dom) > 3:
        kinds.remove("leaf")
        kinds.remove("leaf")
    kind = draw(st.sampled_from(kinds)) if depth else (
        "leaf" if dom is None or len(dom) <= 3 else "tensor")
    if kind == "leaf":
        f = draw(_row_factor(dom))
        return f, f, []
    if kind == "tensor":
        if dom is None:
            a = draw(_operator_tree(max(depth - 1, 0)))
            b = draw(_operator_tree(max(depth - 1, 0)))
        else:
            lo = 1 if len(dom) > 3 else 0
            k = draw(st.integers(lo, len(dom) - lo))
            a = draw(_operator_tree(max(depth - 1, 0), dom[:k]))
            b = draw(_operator_tree(max(depth - 1, 0), dom[k:]))
        assume(dim_of(a[0].cod + b[0].cod) <= _TREE_DIM)
        built = a[0] @ b[0]
        return (built, run_pipeline([[a[1], b[1]]]),
                a[2] + b[2] + [built])
    f = draw(_operator_tree(depth - 1, dom))
    assume(dim_of(f[0].cod) <= _TREE_DIM)
    g = draw(_operator_tree(depth - 1, f[0].cod))
    built, eager = g[0] * f[0], apply_at(f[1], g[1], 0)
    nodes = f[2] + g[2] + [built]
    if kind == "compose":
        return built, eager, nodes
    assume(dim_of(eager.cod) * dim_of(built.cod) <= _TREE_DIM)
    h = draw(_operator_tree(0, built.cod))
    top = (h[0] * built) @ built
    return (top, run_pipeline([[apply_at(eager, h[1], 0), eager]]),
            nodes + [top])


def _spy_run_pipeline(mp, calls):
    real = linmaps.run_pipeline

    def spy(layers):
        calls.append(layers)        # kept alive, so no id is reused
        return real(layers)
    mp.setattr(linmaps, "run_pipeline", spy)


@settings(max_examples=300, deadline=None)
@given(_operator_tree(3))
def test_operator_expressions_match_the_eager_evaluator(tree):
    built, eager, nodes = tree
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _spy_run_pipeline(mp, calls)
        assert built == eager
        for node in nodes:
            node.entries
        evaluated = len(calls)
        # each pending map's rows are evaluated once, whatever read it
        assert len({id(rows) for rows in calls}) == evaluated
        for node in nodes:
            node.entries
            node.by_col()
            assert node == node
        assert len(calls) == evaluated
    for node in nodes:
        values = list(node.entries.values())
        if node._ones:
            assert all(v == ONE for v in values)
        assert node.is_ones() == all(v == ONE for v in values)


def test_a_pending_map_is_evaluated_once_and_kept(monkeypatch):
    f = _rand_map((X,), (Y,), 40)
    g = _rand_map((Z,), (Z,), 41)
    h = _rand_map((Y, Z), (X,), 42)
    t = f @ g
    c = h * t
    assert (t.dom, t.cod, c.dom, c.cod) == ((X, Z), (Y, Z), (X, Z), (X,))
    calls = []
    _spy_run_pipeline(monkeypatch, calls)
    want = apply_at(run_pipeline([[f, g]]), h, 0)
    calls.clear()
    assert c.entries == want.entries
    # c's rows once, and t, the first row of c, once on its own
    assert calls == [[[t], [h]], [[f, g]]]
    assert t.entries == run_pipeline([[f, g]]).entries
    calls.clear()
    for _ in range(2):
        assert c == want and c.entry(0, 0) == want.entry(0, 0)
        assert c.by_col() == want.by_col() and t.column(0) is not None
    assert calls == []


def _spy_apply_at(mp, calls):
    """Record (m, f) of each kernel call, f the factor applied to m."""
    real = linmaps.apply_at

    def spy(m, f, pos):
        calls.append((m, f))
        return real(m, f, pos)
    mp.setattr(linmaps, "apply_at", spy)


def test_a_composite_read_and_used_as_an_input_is_evaluated_once(
        monkeypatch):
    # c is read on its own and is the input of h * c: it is one factor
    # there, not its rows, so its top factor g runs once
    f = _rand_map((X,), (Y,), 50)
    u = _rand_map((Z,), (Z,), 51)
    g = _rand_map((Y, Z), (X,), 52)
    h = _rand_map((X,), (Y,), 53)
    calls = []
    _spy_apply_at(monkeypatch, calls)
    c = g * (f @ u)
    later = h * c
    assert linmaps._pending_rows(later) == [[c], [h]]
    want = apply_at(run_pipeline([[f, u]]), g, 0)
    calls.clear()
    assert c.entries == want.entries
    assert later.entries == apply_at(want, h, 0).entries
    assert [fac for _, fac in calls].count(g) == 1


def test_a_chain_of_evaluated_maps_is_its_rows(monkeypatch):
    # a * b * c stays pending as the rows [[c], [b], [a]]: its first
    # kernel call takes c as input, and a o b is never built
    c = _rand_map((X,), (Y,), 54)
    b = _rand_map((Y,), (Z,), 55)
    a = _rand_map((Z,), (X,), 56)
    calls = []
    _spy_apply_at(monkeypatch, calls)
    chain = a * b * c
    assert calls == []
    assert linmaps._pending_rows(chain) == [[c], [b], [a]]
    want = apply_at(apply_at(c, b, 0), a, 0)
    calls.clear()
    assert chain.entries == want.entries
    assert [(m is c, fac) for m, fac in calls] == [(True, b), (False, a)]


def test_a_relabelled_pending_map_stays_pending_and_opaque(monkeypatch):
    # rebind keeps a pending composite pending, as one factor in a later
    # row and in a tensor: its own rows run on X (x) Z, and apply_at checks
    # strand names, so it never lends or unwraps them
    f = _rand_map((X,), (Y,), 40)
    g = _rand_map((Z,), (Z,), 41)
    h = _rand_map((Y, Z), (X,), 42)
    e = _rand_map((P4,), (P4,), 43)
    u = _rand_map((Z,), (Z,), 44)
    c = h * (f @ g)
    r = rebind(c, (P4,), (X,))
    later, beside = r * e, (r @ g) * (e @ u)
    c_rows, r_rows = linmaps._pending_rows(c), linmaps._pending_rows(r)
    assert r_rows == [[c]] and (r.dom, r.cod) == ((P4,), (X,))
    flat = rebind(run_pipeline([[f, g], [h]]), (P4,), (X,))
    want_later = apply_at(e, flat, 0)
    want_beside = run_pipeline([[e, u], [flat, g]])
    calls = []
    _spy_run_pipeline(monkeypatch, calls)
    assert list(later.entries.items()) == list(want_later.entries.items())
    assert list(beside.entries.items()) == list(want_beside.entries.items())
    # r was evaluated once, on its first read, and kept what c gave it
    assert [rows is r_rows for rows in calls].count(True) == 1
    assert [rows is c_rows for rows in calls].count(True) == 1
    assert r.entries is c.entries
    assert [(k, repr(v)) for k, v in r.entries.items()] == [
        (k, repr(v)) for k, v in flat.entries.items()]
    assert repr(r) == repr(flat)


def _doubled_product_parts():
    from crossbial import datum
    d = zoo.radford(zoo.RadfordParams(3, 1, 3, 1))["datum"]
    ind = datum.induced_structures(d)
    s1, s2 = d.b1.space, d.b2.space
    psi4 = d.braiding.braiding_list((s1, s2), (s1, s2))
    return d, ind.m_B, ind.delta_B, psi4


def test_the_doubled_product_map_never_builds_the_padded_permutation(
        monkeypatch):
    d, m_B, delta_B, psi4 = _doubled_product_parts()
    id12 = d.b1.id_map() @ d.b2.id_map()
    first_rows = []
    real = linmaps._first_row

    def spy(factors):
        out = real(factors)
        first_rows.append((out.ncols, out.nrows, len(out.entries)))
        return out

    monkeypatch.setattr(linmaps, "_first_row", spy)
    got = ((m_B @ m_B) * (id12 @ psi4 @ id12) * (delta_B @ delta_B))
    got.entries
    monkeypatch.undo()
    id12 = LinMap.identity((d.b1.space, d.b2.space))
    want = run_pipeline([[delta_B, delta_B], [id12, psi4, id12],
                         [m_B, m_B]])
    assert (got.dom, got.cod) == (want.dom, want.cod)
    assert {k: repr(v) for k, v in got.entries.items()} == {
        k: repr(v) for k, v in want.entries.items()}
    # one first row, Delta_B (x) Delta_B, of 81 columns; the padded
    # permutation on B (x) B (x) B (x) B would have 6561
    dd = run_pipeline([[delta_B, delta_B]])
    assert first_rows == [(dd.ncols, dd.nrows, len(dd.entries))]
    assert dd.ncols == 81 and psi4.ncols * 81 == 6561


def test_a_strand_mismatch_raises_at_the_operator(monkeypatch):
    d, m_B, delta_B, _ = _doubled_product_parts()
    id12 = d.b1.id_map() @ d.b2.id_map()
    reads = []
    monkeypatch.setattr(linmaps, "run_pipeline",
                        lambda layers: reads.append(layers))
    monkeypatch.setattr(linmaps, "_first_row",
                        lambda factors: reads.append(factors))
    top, below = m_B @ m_B, delta_B @ id12
    with pytest.raises(ShapeError, match="inner boundaries differ"):
        top * below
    with pytest.raises(ShapeError, match="inner boundaries differ"):
        top * (id12 * below)
    assert reads == []


def _identity_seeded_braiding(prov, x, y):
    """Psi_{X,Y} as three kernel steps on the identity of X (x) Y."""
    if prov.side == "right":
        act_x, coact_y = prov._reg[x][0], prov._reg[y][1]
        m = apply_at(LinMap.identity((x, y)), coact_y, 1)
        return apply_at(apply_at(m, flip(x, y), 0), act_x, 1)
    act_y, coact_x = prov._reg[y][0], prov._reg[x][1]
    m = apply_at(LinMap.identity((x, y)), coact_x, 0)
    return apply_at(apply_at(m, flip(x, y), 1), act_y, 0)


def _braided_qline():
    return braided_taft_pairing()[1]


def _sweedler_right():
    inp = zoo.sweedler_crossed_modules()
    return yd_provider(inp.H, [(inp.B.space, inp.b_act, inp.b_coact)])


def _sweedler_left():
    inp = zoo.sweedler_crossed_modules()
    return yd_provider_left(inp.H, [(inp.C.space, inp.c_act, inp.c_coact)])


@pytest.mark.parametrize("build", [_braided_qline, _sweedler_right,
                                   _sweedler_left])
def test_yd_braidings_match_the_identity_seeded_kernel_steps(build):
    prov = build()
    for x in prov._reg:
        for y in prov._reg:
            _assert_same_row(prov.braiding(x, y),
                             _identity_seeded_braiding(prov, x, y))


def _hand_written_braiding(prov, x, y):
    """Psi_{X,Y} as one diagram per side, each written out in full: the
    oracle of the one braiding both providers share."""
    idh = LinMap.identity((prov.host,))
    if prov.side == "right":
        act_x, coact_y = prov._reg[x][0], prov._reg[y][1]
        # X (x) Y -> X (x) Y (x) H -> Y (x) X (x) H -> Y (x) X
        return run_pipeline([[LinMap.identity((x,)), coact_y],
                             [flip(x, y), idh],
                             [LinMap.identity((y,)), act_x]])
    act_y, coact_x = prov._reg[y][0], prov._reg[x][1]
    # X (x) Y -> H (x) X (x) Y -> H (x) Y (x) X -> Y (x) X
    return run_pipeline([[coact_x, LinMap.identity((y,))],
                         [idh, flip(x, y)],
                         [act_y, LinMap.identity((x,))]])


def _line_right():
    inp = zoo.braided_line_input(4)
    return yd_provider(inp.H, [(inp.B.space, inp.b_act, inp.b_coact)])


def _line_left():
    inp = zoo.braided_line_input(4)
    return yd_provider_left(inp.H, [(inp.C.space, inp.c_act, inp.c_coact)])


def _two_left_lines():
    # Sweedler's C and the left line at N = 2, both over kC2, so that two
    # different spaces cross on the left
    sw, line = zoo.sweedler_crossed_modules(), zoo.braided_line_input(2)
    return yd_provider_left(sw.H, [(sw.C.space, sw.c_act, sw.c_coact),
                                   (line.C.space, line.c_act, line.c_coact)])


@pytest.mark.parametrize("build", [_braided_qline, _sweedler_left,
                                   _line_right, _line_left, _two_left_lines])
def test_both_sides_braid_as_their_hand_written_diagrams(build):
    prov = build()
    assert len(prov._reg) in (1, 2)
    for x in prov._reg:
        for y in prov._reg:
            _assert_same_row(prov.braiding(x, y),
                             _hand_written_braiding(prov, x, y))


def test_the_left_provider_only_names_its_side():
    assert LeftYetterDrinfeld.side == "left"
    assert [k for k, v in vars(LeftYetterDrinfeld).items()
            if callable(v)] == []


# -- JSON -------------------------------------------------------------------

def test_linmap_json_roundtrip():
    f = _rand_map((X, Y), (Z,), 31)
    spaces = {"X": X, "Y": Y, "Z": Z}
    back = linmap_from_json(linmap_to_json(f), spaces)
    assert back == f


def test_linmap_json_shape():
    f = flip(X, Y)
    enc = linmap_to_json(f)
    assert enc["dom"] == ["X", "Y"]
    assert enc["cod"] == ["Y", "X"]
    assert len(enc["matrix"]) == 6


def _old_linmap_from_json(obj, spaces):
    """The loader before it kept a parse table: every entry through
    scalar_from_json, then from_rows."""
    dom = tuple(spaces[n] for n in obj["dom"])
    cod = tuple(spaces[n] for n in obj["cod"])
    rows = [[scalar_from_json(v) for v in row] for row in obj["matrix"]]
    return LinMap.from_rows(dom, cod, rows)


def _assert_same_map(new, old):
    assert (new.dom, new.cod) == (old.dom, old.cod)
    # the same entries in the same (row-major) order, type by type
    assert list(new.entries.items()) == list(old.entries.items())
    assert [type(v) for v in new.entries.values()] == \
        [type(v) for v in old.entries.values()]
    # and each is the type the contract gives its value: a loaded integral
    # rational is an int
    assert all(type(v) is scalar_kind(v) for v in new.entries.values())


def _zoo_workspaces():
    from crossbial import zoo
    from crossbial.cli import Workspace, _tower_workspace
    for params in [(2, 1, 2, 1), (3, 1, 3, 1), (4, 1, 4, 1), (8, 1, 8, 4),
                   (3, 2, 6, 1)]:
        yield _tower_workspace(zoo.radford(zoo.RadfordParams(*params)))
    for params in [((2,), 1, ((1,),), ((1,),)), ((4,), 1, ((2,),), ((1,),)),
                   ((2, 2), 2, ((1, 0), (0, 1)), ((1, 0), (0, 1)))]:
        yield _tower_workspace(zoo.ore_finite(zoo.OreParams(*params)))
    yield (Workspace().add_structure("main", zoo.group_algebra(4))
           .add_structure("dual", zoo.dual_group_algebra(3))
           .add_structure("taft", zoo.taft_factor(3, root_of_unity(3, 1))))


def _map_encodings(node):
    if isinstance(node, dict):
        if "matrix" in node:
            yield node
        for v in node.values():
            yield from _map_encodings(v)


def test_loader_matches_the_parse_then_from_rows_path_on_the_zoo():
    from crossbial.cli import workspace_to_json
    seen = 0
    for ws in _zoo_workspaces():
        doc = json.loads(json.dumps(workspace_to_json(ws)))
        spaces = {e["name"]: Space(e["name"], e["dim"])
                  for e in doc["spaces"]}
        for enc in _map_encodings(doc):
            _assert_same_map(linmap_from_json(enc, spaces),
                             _old_linmap_from_json(enc, spaces))
            seen += 1
    assert seen > 100


def test_loader_matches_the_old_path_on_odd_zeros_and_mixed_entries():
    z = {"n": 4, "coeffs": ["0/1", "1/1"]}
    matrix = [["0", "0/5", "-0/1", z],
              [{"n": 4, "coeffs": ["2/1"]}, {"n": 4, "coeffs": ["0/1", "0/3"]},
               "3/6", {"n": 4, "coeffs": ["1/2", "-1/1"], "note": "x"}],
              [dict(z), "-2", {"n": 4, "coeffs": []}, "1"],
              ["1/1", "1", {"n": 4, "coeffs": ["1/1"]}, z]]
    W = Space("W", 4)
    enc = {"dom": ["W"], "cod": ["W"], "matrix": matrix}
    new = linmap_from_json(enc, {"W": W})
    _assert_same_map(new, _old_linmap_from_json(enc, {"W": W}))
    assert new.entry(0, 3) == root_of_unity(4, 1)
    assert type(new.entry(1, 0)) is int and new.entry(1, 0) == 2
    assert (1, 1) not in new.entries and (0, 0) not in new.entries
    assert type(new.entry(1, 3)) is Cyclo


@pytest.mark.parametrize("matrix", [
    5, [5], ["ab"], [[None, "0"]], [["0", 1.5]], [["0", True]],
    [["0", {"n": 3.0, "coeffs": ["1/1"]}]], [["0", {"n": 4, "coeffs": "1"}]],
    [["0", {"n": 4, "coeffs": ["1/1", "0/1", "1/1"]}]], [["0", ["1"]]],
    [["0", {"n": 4, "coeffs": [["1/1"]]}]],
    [["0", "1/0"]], [["0", "0"]], [["0", "0"], ["0"]],
    [["0", "0"], ["0", "0", "0"]], [["0", "0"], ["0", "0"], ["0", "0"]],
    # a bad scalar is reported before a wrong shape
    [["0", "0", "x"]], [["0"], ["0", "0"], [{"n": "4", "coeffs": []}]],
    {"ab": 1}, "ab",
    # a malformed encoding equal as a Python value to a parsed one
    [[{"n": 4, "coeffs": ["1/1"]}, {"n": 4.0, "coeffs": ["1/1"]}]],
    [[{"n": 1, "coeffs": ["1/1"]}, {"n": True, "coeffs": ["1/1"]}]]])
def test_malformed_matrices_fail_as_on_the_old_path(matrix):
    X2 = Space("X", 2)
    enc = {"dom": ["X"], "cod": ["X"], "matrix": matrix}
    with pytest.raises(Exception) as old:
        _old_linmap_from_json(enc, {"X": X2})
    with pytest.raises(Exception) as new:
        linmap_from_json(enc, {"X": X2})
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


def test_a_bad_scalar_is_reported_before_a_wrong_shape():
    X2 = Space("X", 2)
    enc = {"dom": ["X"], "cod": ["X"],
           "matrix": [["0", "0", "0"], [{"n": 3.5, "coeffs": ["1/1"]}]]}
    with pytest.raises(ScalarParseError, match="malformed cyclotomic"):
        linmap_from_json(enc, {"X": X2})
    enc["matrix"][1] = ["0"]
    with pytest.raises(ShapeError, match="matrix must be 2x2"):
        linmap_from_json(enc, {"X": X2})
