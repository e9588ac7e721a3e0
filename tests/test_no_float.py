"""No float anywhere: every scalar the program makes is exact.

A rational is an int when integral and a Fraction only when it is not; a
cyclotomic is a Cyclo.  `int / int` and `int ** -k` are floats, so these
tests walk every map the zoo builders return, every zoo workspace after a
JSON round trip and every map the acceptance scenarios make, and check
the elimination on int matrices against the dense Fraction oracle.
"""

import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.test_acceptance as acceptance
from crossbial import zoo
from crossbial.cli import workspace_from_json, workspace_to_json
from crossbial.linmaps import (LinMap, Space, reduce_rows)
from crossbial.scalars import (ONE, ZERO, Cyclo, as_scalar, parse_rational,
                               q_binomial, rational_to_json, reciprocal,
                               root_of_unity, scalar_from_json, scalar_to_json)
from tests.test_linmaps import (_dense_rref, _zoo_workspaces, invert,
                                 to_rows)
from tests.test_scalars import scalar_kind

EXACT = {int, Fraction, Cyclo}


def entries_of(obj, seen=None):
    """Every entry of every LinMap reachable from obj, through dicts,
    lists, tuples and the attributes of the package's own objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, LinMap):
        yield from obj.entries.values()
        return
    if isinstance(obj, dict):
        parts = obj.values()
    elif isinstance(obj, (list, tuple)):
        parts = obj
    elif type(obj).__module__.startswith("crossbial.") and hasattr(
            obj, "__dict__"):
        parts = vars(obj).values()
    else:
        return
    for part in parts:
        yield from entries_of(part, seen)


# Each public builder of the zoo with the arguments it is walked on.
BUILDS = {
    "group_algebra": [(1,), (2,), (3,), (6,)],
    "dual_group_algebra": [(1,), (2,), (3,), (4,)],
    "taft_factor": [(1, 1), (2, -1), (3, root_of_unity(3, 1)),
                    (4, root_of_unity(4, 3))],
    "radford": [(zoo.RadfordParams(*p),) for p in (
        (2, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1), (4, 1, 4, 1),
        (3, 2, 6, 1), (8, 1, 8, 4))],
    "ore_finite": [(zoo.OreParams(*p),) for p in (
        ((2,), 1, ((1,),), ((1,),)), ((4,), 1, ((2,),), ((1,),)),
        ((6,), 1, ((3,),), ((1,),)),
        ((2, 2), 2, ((1, 0), (0, 1)), ((1, 0), (0, 1))),
        ((2, 2), 2, ((1, 0), (0, 1)), ((1, 1), (1, 1))))],
    "sweedler_crossed_modules": [()],
    "braided_line_input": [(2,), (4,), (6,)],
}


def test_every_zoo_builder_is_walked():
    public = {name for name, f in vars(zoo).items()
              if inspect.isfunction(f) and f.__module__ == zoo.__name__
              and not name.startswith("_")}
    assert public == set(BUILDS)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_zoo_maps_hold_exact_canonical_scalars(name):
    for args in BUILDS[name]:
        vals = list(entries_of(getattr(zoo, name)(*args)))
        assert vals, (name, args)
        assert {type(v) for v in vals} <= EXACT, (name, args)
        # the builders make every integral entry an int: no Fraction(1)
        assert all(type(v) is scalar_kind(v) for v in vals), (name, args)
        assert any(type(v) is int for v in vals), (name, args)


def test_zoo_workspaces_load_exact_canonical_scalars():
    seen = 0
    for ws in _zoo_workspaces():
        doc = json.loads(json.dumps(workspace_to_json(ws)))
        back = workspace_from_json(doc)
        for obj in (back.structures, back.maps):
            for v in entries_of(obj):
                assert type(v) in EXACT and type(v) is scalar_kind(v)
                seen += 1
    assert seen > 1000


ACCEPTANCE = sorted(name for name in vars(acceptance)
                    if name.startswith("test_"))


@pytest.mark.parametrize("scenario", ACCEPTANCE)
def test_acceptance_scenarios_make_no_inexact_scalar(scenario, monkeypatch,
                                                     scalar_types):
    # tests/test_acceptance.py records the scalar types of each scenario's
    # run under acceptance.spy_scalar_types; a scenario that has not run in
    # this session runs here, under the same spies
    types = scalar_types.get(scenario)
    if types is None:
        types = set()
        acceptance.spy_scalar_types(monkeypatch, types)
        getattr(acceptance, scenario)()
    assert int in types
    assert types <= EXACT, types


def test_constructors_make_an_integral_rational_an_int():
    z = root_of_unity(4, 1)
    made = [ONE, ZERO, as_scalar(3), as_scalar(Fraction(4, 2)),
            as_scalar("-6/3"), as_scalar("0/5"), parse_rational("7"),
            parse_rational("-6/3"), scalar_from_json("4/2"),
            scalar_from_json({"n": 4, "coeffs": ["2/1"]}),
            Cyclo.make(4, [Fraction(6, 3)]), Cyclo.make(4, [0, 0, 1]),
            # z + z^2 = -1 at n = 3: the rational collapse of a sum
            root_of_unity(3, 1) + root_of_unity(3, 2),
            root_of_unity(1, 0), root_of_unity(2, 1), z ** 0, z ** 4,
            z * z.inverse(), z * reciprocal(z), reciprocal(-1), reciprocal(1),
            reciprocal(Fraction(1, 3)), reciprocal(Fraction(-1, 5)),
            q_binomial(4, 2, 1), q_binomial(3, 1, -1)]
    assert [type(v) for v in made] == [int] * len(made)
    assert made[-6:] == [-1, 1, 3, -5, 6, 1]
    assert Cyclo.make(3, [2, 1]).coeffs == (2, 1)
    assert [type(c) for c in Cyclo.make(3, [2, 1]).coeffs] == [int, int]
    assert [type(c) for c in Cyclo.make(3, [1, Fraction(1, 2)]).coeffs] \
        == [int, Fraction]


def test_every_reciprocal_is_exact():
    z = root_of_unity(4, 1)
    assert reciprocal(2) == Fraction(1, 2) and type(reciprocal(2)) is Fraction
    assert reciprocal(Fraction(-2, 3)) == Fraction(-3, 2)
    assert reciprocal(z) == z.inverse() == -z
    assert 2 * reciprocal(z) == -2 * z
    assert z * reciprocal(2) == Cyclo.make(4, [0, Fraction(1, 2)])
    assert (2 * z) * reciprocal(2) == z
    assert z * reciprocal(Fraction(1, 2)) == 2 * z
    # a Cyclo has no `/`: every division goes through reciprocal
    with pytest.raises(TypeError):
        z / 2
    with pytest.raises(TypeError):
        2 / z
    with pytest.raises(ZeroDivisionError):
        reciprocal(0)
    with pytest.raises(ZeroDivisionError):
        reciprocal(Fraction(0))


def test_an_int_is_written_without_a_fraction():
    assert scalar_to_json(3) == rational_to_json(3) == "3/1"
    assert scalar_to_json(-1) == "-1/1" and scalar_to_json(0) == "0/1"
    assert scalar_to_json(Fraction(6, 3)) == "2/1"


@st.composite
def _int_matrices(draw, square=False):
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])
    return [[draw(entry) for _ in range(nc)] for _ in range(nr)]


def _as_fractions(m):
    return [[Fraction(v) for v in row] for row in m]


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_reduce_rows_on_ints_matches_the_fraction_oracle(m):
    rows, pivots = _dense_rref(_as_fractions(m))
    red = reduce_rows({c: v for c, v in enumerate(row) if v} for row in m)
    assert sorted(red) == pivots
    assert [[ONE if c == p else red[p].get(c, ZERO) for c in range(len(m[0]))]
            for p in pivots] == rows[:len(pivots)]
    assert {type(v) for row in red.values() for v in row.values()} <= {
        int, Fraction}


@settings(max_examples=100, deadline=None)
@given(_int_matrices(square=True))
def test_invert_on_ints_matches_the_fraction_oracle(m):
    n = len(m)
    V = Space("V", n)
    f = LinMap.from_rows((V,), (V,), m)
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_as_fractions(m))]
    rows, pivots = _dense_rref(aug)
    rank = sum(1 for p in pivots if p < n)
    if rank < n:
        with pytest.raises(ValueError, match=rf"\(rank {rank} of {n}\)$"):
            invert(f)
        return
    g = invert(f)
    assert to_rows(g) == [row[n:] for row in rows]
    assert {type(v) for v in g.entries.values()} <= {int, Fraction}
    assert g * f == LinMap.identity((V,)) == f * g
