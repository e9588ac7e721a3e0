from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossbial.scalars import (
    Cyclo,
    ConductorMixError,
    PrimitivityError,
    ScalarParseError,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
    q_binomial,
    rational_to_json,
    reciprocal,
    root_of_unity,
    scalar_from_json,
    scalar_to_json,
    _mulmod,
    _power_table,
)

F = Fraction


def scalar_kind(v):
    """The one type the scalar contract gives v's value: int for an
    integral rational, whether made as an int or left by Fraction
    arithmetic, else type(v), so a float or a bool stays what it is."""
    if type(v) is Fraction and v.denominator == 1:
        return int
    return type(v)


# -- cyclotomic polynomials -------------------------------------------------

def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(3) == (F(1), F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert cyclotomic_polynomial(12) == (F(1), F(0), F(-1), F(0), F(1))


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


# -- roots of unity ---------------------------------------------------------

def test_root_of_unity_collapses_to_rational():
    assert root_of_unity(1, 0) == F(1)
    assert root_of_unity(2, 1) == F(-1)
    assert type(root_of_unity(2, 1)) is int


def test_root_of_unity_defining_relations():
    i = root_of_unity(4, 1)
    assert i * i == F(-1)
    w = root_of_unity(3, 1)
    assert w * w + w + 1 == 0


def test_root_of_unity_exact_order():
    for n in [3, 4, 5, 6, 8, 12]:
        for k in range(1, n):
            if euler_phi(n) and __import__("math").gcd(k, n) == 1:
                z = root_of_unity(n, k)
                acc = z
                for m in range(1, n):
                    if m < n:
                        assert not (acc == 1 and m < n) or m == n
                    acc = acc * z
                # z^n = 1 and no smaller power is 1
                power = 1
                for m in range(1, n + 1):
                    power = power * z
                    if m < n:
                        assert power != 1
                assert power == 1


def test_root_of_unity_primitivity_error():
    with pytest.raises(PrimitivityError):
        root_of_unity(4, 2)
    with pytest.raises(PrimitivityError):
        root_of_unity(6, 3)


def test_high_power_reduces():
    z = root_of_unity(12, 11)
    assert z ** 12 == 1
    assert z * root_of_unity(12, 1) == 1


# -- field arithmetic -------------------------------------------------------

def test_conductor_mixing_is_an_error():
    a = root_of_unity(3, 1)
    b = root_of_unity(4, 1)
    with pytest.raises(ConductorMixError):
        a + b
    with pytest.raises(ConductorMixError):
        a * b


def test_rationals_embed_freely():
    z = root_of_unity(3, 1)
    assert (z + F(1, 2)) - F(1, 2) == z
    assert 2 * z * reciprocal(2) == z
    assert (1 - z) + z == 1


def test_inverse():
    z = root_of_unity(5, 2)
    assert z * z.inverse() == 1
    x = 1 + z + z * z
    assert x * x.inverse() == 1
    assert reciprocal(x) * x == 1


def test_cyclo_sum_collapsing():
    z = root_of_unity(3, 1)
    # 1 + z + z^2 = 0, so z + z^2 = -1 must come out as an int
    s = z + z * z
    assert type(s) is int
    assert s == F(-1)


_rat = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _cyclos(n):
    d = euler_phi(n)
    return st.lists(_rat, min_size=d, max_size=d).map(lambda cs: Cyclo.make(n, cs))


@settings(max_examples=60, deadline=None)
@given(_cyclos(5), _cyclos(5), _cyclos(5))
def test_field_axioms_sampled(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a != 0 and not (isinstance(a, Fraction) and a == 0):
        if isinstance(a, Cyclo):
            assert a * a.inverse() == 1
        else:
            assert a * reciprocal(a) == 1


# -- q-combinatorics --------------------------------------------------------

def test_q_binomial_edges():
    q = root_of_unity(5, 1)
    assert q_binomial(7, 0, q) == 1
    assert q_binomial(7, 7, q) == 1
    with pytest.raises(ValueError):
        q_binomial(2, 3, q)


def test_q_binomial_at_minus_one():
    # (2 1)_{-1} = (2)_{-1} = 1 + (-1) = 0
    assert q_binomial(2, 1, F(-1)) == 0


def q_integer(s, p):
    """(s)_p = 1 + p + ... + p^{s-1}, the oracle of the q-binomials."""
    total, power = 0, 1
    for _ in range(s):
        total = total + power
        power = power * p
    return total


def test_q_binomial_matches_q_integer():
    q = root_of_unity(7, 1)
    assert q_binomial(3, 1, q) == q_integer(3, q)
    assert q_binomial(3, 1, q) == 1 + q + q * q


def test_q_binomial_at_one_is_binomial():
    from math import comb
    for m in range(7):
        for l in range(m + 1):
            assert q_binomial(m, l, F(1)) == comb(m, l)


def test_q_binomial_symmetric():
    q = root_of_unity(5, 1)
    for m in range(6):
        for l in range(m + 1):
            assert q_binomial(m, l, q) == q_binomial(m, m - l, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_q_pascal_recurrence(m, l):
    q = root_of_unity(4, 1)
    if 1 <= l < m:
        lhs = q_binomial(m, l, q)
        rhs = q_binomial(m - 1, l - 1, q) + (q ** l) * q_binomial(m - 1, l, q)
        assert lhs == rhs


def test_truncation_vanishing_at_root_of_unity():
    # (m l)_q = 0 whenever the binomial straddles the order of q
    q = root_of_unity(3, 1)
    assert q_binomial(3, 1, q) == 0
    assert q_binomial(3, 2, q) == 0
    q4 = root_of_unity(4, 1)
    assert q_binomial(4, 2, q4) == 0


# -- JSON -------------------------------------------------------------------

def test_rational_json_roundtrip():
    for s in [F(0), F(3), F(-7, 2), F(22, 7)]:
        assert scalar_from_json(scalar_to_json(s)) == s


def test_rational_parse_accepts_plain_integers():
    assert parse_rational("5") == F(5)
    assert parse_rational("-5/10") == F(-1, 2)


def test_rational_parse_rejects_bad_input():
    with pytest.raises(ScalarParseError):
        parse_rational("1/0")
    with pytest.raises(ScalarParseError):
        parse_rational("a/b")
    with pytest.raises(ScalarParseError):
        parse_rational("1/2/3")


@pytest.mark.parametrize("text", [
    "1_0/1", " 3 / 4 ", "\u0663", "+1", "1/-2", "1.5", "5\n", "", "-",
    "1/", "/2", "0x10", "1e3", "\uff11",
    # more digits than int() converts from a string
    pytest.param("1" + "0" * 5000 + "/1", id="5000-digits")])
def test_rational_parse_takes_ascii_digits_only(text):
    with pytest.raises(ScalarParseError, match="malformed rational"):
        parse_rational(text)
    with pytest.raises(ScalarParseError):
        scalar_from_json({"n": 3, "coeffs": [text, "1"]})


def test_a_conductor_above_the_json_bound_is_refused():
    with pytest.raises(ScalarParseError, match="conductor 10007 exceeds"):
        scalar_from_json({"n": 10007, "coeffs": ["0/1", "1/1"]})
    z = scalar_from_json({"n": 1024, "coeffs": ["0/1", "1/1"]})
    assert z.coeffs[:2] == (F(0), F(1))
    # the Python API takes any conductor
    assert Cyclo.make(1031, [0, 1]).n == 1031


def test_a_reduced_coefficient_list_builds_no_power_table():
    before = _power_table.cache_info().misses
    z = scalar_from_json({"n": 1021, "coeffs": ["0/1", "1/1"]})
    assert z.coeffs == (F(0), F(1)) + (F(0),) * 1018
    assert _power_table.cache_info().misses == before


def test_rational_parse_reads_what_rational_to_json_writes():
    for text, value in [("-0/1", F(0)), ("0/5", F(0)), ("007", F(7)),
                        ("-12/8", F(-3, 2))]:
        assert parse_rational(text) == value
    for value in [F(0), F(-1), F(22, 7), F(-10 ** 30, 7), F(1, 10 ** 30)]:
        assert parse_rational(rational_to_json(value)) == value
    with pytest.raises(ScalarParseError, match="malformed rational"):
        parse_rational("-1/00")


@pytest.mark.parametrize("coeffs", [[0.5, 1.0], [1.0], [True, 0],
                                    [root_of_unity(3, 1)], [None]])
def test_cyclo_make_refuses_inexact_coefficients(coeffs):
    with pytest.raises(TypeError):
        Cyclo.make(3, coeffs)


def test_cyclo_make_takes_ints_fractions_and_rational_strings():
    assert Cyclo.make(3, [1, F(1, 2)]) == Cyclo.make(3, ["1", "1/2"])
    assert Cyclo.make(3, [2, "0/3"]) == F(2)
    with pytest.raises(ScalarParseError):
        Cyclo.make(3, ["1.5"])


@pytest.mark.parametrize("call, message", [
    (lambda: cyclotomic_polynomial(0), "conductor must be positive"),
    # no coefficient to reduce, so the refusal is make's own and not
    # cyclotomic_polynomial's
    (lambda: Cyclo.make(0, []), "conductor must be positive"),
    (lambda: root_of_unity(0, 1), "n must be positive"),
], ids=["cyclotomic-polynomial", "cyclo-make", "root-of-unity"])
def test_a_conductor_below_one_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_cyclo_json_roundtrip():
    z = root_of_unity(12, 7)
    enc = scalar_to_json(z)
    assert enc["n"] == 12
    assert len(enc["coeffs"]) == euler_phi(12)
    assert scalar_from_json(enc) == z


def test_cyclo_json_normalizes_rational_values():
    # a dict encoding an integral value parses to an int
    v = scalar_from_json({"n": 3, "coeffs": ["2/1", "0/1"]})
    assert v == F(2)
    assert type(v) is int


@pytest.mark.parametrize("enc", [
    {"n": 3.7, "coeffs": ["0/1", "1/1"]},
    {"n": 3.0, "coeffs": ["0/1", "1/1"]},
    {"n": "3", "coeffs": ["0/1", "1/1"]},
    {"n": True, "coeffs": ["1/1"]},
    {"n": None, "coeffs": ["1/1"]},
    {"n": 3, "coeffs": "12"},
    {"n": 3, "coeffs": {"0": "1/1"}},
    {"n": 3, "coeffs": None},
    {"coeffs": ["1/1"]},
    {"n": 0, "coeffs": []},
    {"n": 3, "coeffs": ["1/1", "0/1", "0/1"]},
    {"n": 3, "coeffs": [1, 0]},
], ids=["float-n", "integral-float-n", "string-n", "bool-n", "null-n",
        "string-coeffs", "object-coeffs", "null-coeffs", "missing-n",
        "zero-n", "too-many-coeffs", "number-coeffs"])
def test_malformed_cyclotomic_encodings_are_refused(enc):
    # the conductor must be a JSON integer and the coefficients a list
    with pytest.raises(ScalarParseError):
        scalar_from_json(enc)


def test_cyclotomic_encoding_accepts_integer_conductor_and_short_list():
    assert scalar_from_json({"n": 3, "coeffs": ["0/1", "1/1"]}) \
        == root_of_unity(3, 1)
    assert scalar_from_json({"n": 3, "coeffs": ["5"]}) == F(5)
    assert scalar_from_json({"n": 3, "coeffs": []}) == F(0)


# -- differential oracle ----------------------------------------------------
#
# Cyclo arithmetic as it was done on Fraction polynomials: products
# reduced by exact division by Phi_n, inverses by extended Euclid in
# Q[x].  The integer representation must agree with it on every value,
# every printed form and every collapse to Fraction.

def _poly_trim(c):
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] / b[-1]
        if coef:
            q[i] = coef
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    return _poly_trim(q), _poly_trim(a)


def _oracle_phi(n):
    den = (F(1),)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, _oracle_phi(d))
    q, r = _poly_divmod((F(-1),) + (F(0),) * (n - 1) + (F(1),), den)
    assert r == ()
    return q


def _oracle_reduce(n, cs):
    """cs mod Phi_n, padded to phi(n) Fractions."""
    _, rem = _poly_divmod(tuple(F(c) for c in cs), _oracle_phi(n))
    return tuple(rem) + (F(0),) * (euler_phi(n) - len(rem))


def _oracle_inverse(n, cs):
    def sub(a, b):
        k = max(len(a), len(b))
        a = list(a) + [F(0)] * (k - len(a))
        b = list(b) + [F(0)] * (k - len(b))
        return _poly_trim([x - y for x, y in zip(a, b)])

    r0, s0 = _oracle_phi(n), ()
    r1, s1 = _poly_trim(cs), (F(1),)
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, r, sub(s0, _poly_mul(q, s1))
    return _oracle_reduce(n, [s / r1[0] for s in s1])


def _oracle_str(n, cs):
    terms = [str(c) if i == 0 else f"{c}*z" if i == 1 else f"{c}*z^{i}"
             for i, c in enumerate(cs) if c]
    return f"({' + '.join(terms) if terms else '0'} | z = zeta_{n})"


def _assert_agrees(got, n, cs):
    """got is the canonical scalar of the coefficients cs mod Phi_n."""
    if not any(cs[1:]):
        assert scalar_kind(got) is scalar_kind(cs[0]) and got == cs[0]
        return
    assert type(got) is Cyclo and got.n == n
    assert all(type(c) is int for c in got.nums) and type(got.den) is int
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert got.coeffs == cs
    assert [type(c) for c in got.coeffs] == [scalar_kind(c) for c in cs]
    assert repr(got) == f"Cyclo({n}, {[str(c) for c in cs]})"
    assert str(got) == _oracle_str(n, cs)
    assert scalar_to_json(got) == {
        "n": n, "coeffs": [f"{c.numerator}/{c.denominator}" for c in cs]}
    assert hash(got) == hash((n, cs))
    assert bool(got) is True
    assert got == Cyclo.make(n, cs) and got != cs[0]


_CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 15]
_COEF = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2),
                         F(-3, 4), F(5, 3), F(7, 6)])


@st.composite
def _operands(draw):
    n = draw(st.sampled_from(_CONDUCTORS))
    d = euler_phi(n)
    # lists longer than phi(n) exercise the reduction in make
    a = draw(st.lists(_COEF, min_size=0, max_size=2 * n + 2))
    b = draw(st.lists(_COEF, min_size=d, max_size=d))
    q = draw(_COEF)
    return n, a, b, q


@settings(max_examples=300, deadline=None)
@given(_operands(), st.integers(min_value=-4, max_value=6))
def test_cyclo_arithmetic_matches_the_fraction_polynomial_oracle(args, k):
    n, a_cs, b_cs, q = args
    a, b = Cyclo.make(n, a_cs), Cyclo.make(n, b_cs)
    # a constructor gives an integral value as an int itself
    assert type(a) is scalar_kind(a) and type(b) is scalar_kind(b)
    ar, br = _oracle_reduce(n, a_cs), _oracle_reduce(n, b_cs)
    _assert_agrees(a, n, ar)
    _assert_agrees(b, n, br)

    def mul(x, y):
        return _oracle_reduce(n, _poly_mul(_poly_trim(x), _poly_trim(y)))

    _assert_agrees(a + b, n, tuple(x + y for x, y in zip(ar, br)))
    _assert_agrees(a - b, n, tuple(x - y for x, y in zip(ar, br)))
    _assert_agrees(a * b, n, mul(ar, br))
    qr = _oracle_reduce(n, [q])
    for got, want in ((a + q, [x + y for x, y in zip(ar, qr)]),
                      (q + a, [x + y for x, y in zip(ar, qr)]),
                      (a - q, [x - y for x, y in zip(ar, qr)]),
                      (q - a, [y - x for x, y in zip(ar, qr)]),
                      (a * q, [x * q for x in ar]),
                      (q * a, [x * q for x in ar])):
        _assert_agrees(got, n, tuple(want))
    if q:
        _assert_agrees(a * reciprocal(q), n, tuple(x / q for x in ar))
    if isinstance(b, Cyclo):
        inv = _oracle_inverse(n, br)
        _assert_agrees(b.inverse(), n, inv)
        _assert_agrees(a * reciprocal(b), n, mul(ar, inv))
        _assert_agrees(q * reciprocal(b), n, tuple(q * x for x in inv))
        want = (F(1),) + (F(0),) * (euler_phi(n) - 1)
        for _ in range(abs(k)):
            want = mul(want, inv if k < 0 else br)
        _assert_agrees(b ** k, n, want)


def test_overlong_coefficient_lists_reduce():
    # zeta_8^7 = -zeta_8^3 once x^4 + 1 = 0 is used
    _assert_agrees(root_of_unity(8, 7), 8, (F(0), F(0), F(0), F(-1)))
    _assert_agrees(Cyclo.make(12, [0] * 12 + [1]), 12, (F(1),) + (F(0),) * 3)


def test_a_product_with_the_int_one_rebuilds_nothing(monkeypatch):
    # c * 1 and 1 * c are c itself: no numerator list, no gcd
    from crossbial import scalars
    calls = []
    real = scalars._cyclo
    monkeypatch.setattr(scalars, "_cyclo",
                        lambda *a: calls.append(a) or real(*a))
    c, twice = Cyclo.make(3, [F(1, 2), -2]), Cyclo.make(3, [1, -4])
    calls.clear()
    products = (c * 1, 1 * c)
    assert calls == []
    assert all(p is c for p in products)
    assert c * 2 == 2 * c == twice and len(calls) == 2


# -- fast paths against the generic path -------------------------------------
# The generic path is how every sum and product was normalised before the
# fast paths for denominator 1 and for the ints 1 and -1: numerators over
# the product of the denominators, a rational value collapsed, then a
# division by the gcd.

def _generic(n, nums, den):
    if not any(nums[1:]):
        return F(nums[0], den) if nums[0] % den else nums[0] // den
    g = gcd(den, *nums)
    return Cyclo(n, tuple(c // g for c in nums), den // g)


def _parts(n, x):
    """x as (numerators, denominator) in the power basis mod Phi_n."""
    if type(x) is Cyclo:
        return list(x.nums), x.den
    return [x.numerator] + [0] * (euler_phi(n) - 1), x.denominator


def _generic_sum(n, x, y):
    (a, da), (b, db) = _parts(n, x), _parts(n, y)
    return _generic(n, [p * db + q * da for p, q in zip(a, b)], da * db)


def _generic_product(n, x, y):
    (a, da), (b, db) = _parts(n, x), _parts(n, y)
    if type(y) is not Cyclo:
        return _generic(n, [p * b[0] for p in a], da * db) if b[0] else 0
    return _generic(n, _mulmod(n, a, b), da * db)


def _fields(x):
    """The type and the stored fields of a scalar."""
    if type(x) is Cyclo:
        assert type(x.nums) is tuple
        assert all(type(c) is int for c in x.nums) and type(x.den) is int
        return Cyclo, x.n, x.nums, x.den
    return type(x), x


@st.composite
def _fast_operands(draw):
    """x a Cyclo and y a scalar of conductor n, each over 1 most of the
    time, y cancelling x off the constant term in half the draws; k an
    int."""
    n = draw(st.sampled_from([3, 4, 5, 8, 12]))
    d = euler_phi(n)
    a = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    b = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    if draw(st.booleans()):
        b = [b[0]] + [-c for c in a[1:]]
    da, db = (draw(st.sampled_from([1, 1, 1, 2, 6])) for _ in "ab")
    x = Cyclo.make(n, [F(c, da) for c in a])
    y = Cyclo.make(n, [F(c, db) for c in b])
    return n, x, y, draw(st.sampled_from([0, 1, -1, 2, -3, 6]))


@settings(max_examples=400, deadline=None)
@given(_fast_operands())
def test_the_fast_paths_are_the_generic_path(args):
    n, x, y, k = args
    assume(type(x) is Cyclo)
    for got, want in ((x + y, _generic_sum(n, x, y)),
                      (y + x, _generic_sum(n, x, y)),
                      (x - y, _generic_sum(n, x, -y)),
                      (x + k, _generic_sum(n, x, k)),
                      (k + x, _generic_sum(n, x, k)),
                      (x * k, _generic_product(n, x, k)),
                      (k * x, _generic_product(n, x, k)),
                      (x * y, _generic_product(n, x, y)),
                      (y * x, _generic_product(n, x, y))):
        assert _fields(got) == _fields(want)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_sums_and_products_over_one_collapse_to_ints(n):
    z = root_of_unity(n, 1)
    assert _fields(z + (1 - z)) == (int, 1)
    assert _fields((z - 2) + (3 - z)) == (int, 1)
    assert _fields(z * 2 - z - z) == (int, 0)
    assert _fields(z * -1 + z) == (int, 0)
    assert _fields(z * -1) == _fields(-z) == (Cyclo, n, tuple(
        -c for c in z.nums), 1)
    assert _fields(z * 0) == _fields(0 * z) == (int, 0)
    assert _fields(z * -3) == _fields(-3 * z) == _fields(_generic(
        n, [-3 * c for c in z.nums], 1))
