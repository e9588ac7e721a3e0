"""Exact scalar arithmetic: rationals and cyclotomic extensions Q(zeta_n).

Every scalar in a computation is a rational or a `Cyclo` with one shared
conductor.  A rational is made an `int` when it is integral and a
`fractions.Fraction` only when it is not, so the 0, 1 and -1 that fill
structure maps multiply at int speed; a Fraction that comes out of
arithmetic with an integral value stays legal, since equality and hashing
compare values.  Division goes through `reciprocal`, because `int / int`
is a float.  Cyclotomics live in the power basis 1, z, ..., z^{phi(n)-1}
reduced modulo the n-th cyclotomic polynomial, as int numerators over one
positive denominator in lowest terms, so equality is field comparison and
arithmetic builds no Fraction.  A Cyclo whose value is rational is
collapsed to a rational on construction; mixing two different conductors is
a hard error (rationals embed freely).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "Cyclo"]

ZERO = 0
ONE = 1


class VerifiedFailure(Exception):
    """A law was checked and failed (CLI exit 1).  Every such exception
    of the package derives from this class; report is the CheckReport
    whose first failed law the message names."""

    def __init__(self, msg, report):
        super().__init__(msg)
        self.report = report


class InputError(Exception):
    """The input or the usage is malformed (CLI exit 2).  Every such
    exception of the package derives from this class."""


class ConductorMixError(InputError, ValueError):
    """Two cyclotomics with different conductors met in one operation."""


class PrimitivityError(InputError, ValueError):
    """root_of_unity(n, k) with gcd(k, n) != 1."""


class ScalarParseError(InputError, ValueError):
    """Malformed scalar in a JSON document."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials over Z, coefficient tuples low -> high
# ---------------------------------------------------------------------------

def _poly_mul(a, b) -> list:
    """Product of two int polynomials, len(a) + len(b) - 1 coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low -> high: x^n - 1 divided exactly by the
    product of Phi_d over the proper divisors d of n.  That product is
    monic with integer coefficients, so the long division stays in Z."""
    if n < 1:
        raise ValueError("conductor must be positive")
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    rem = [-1] + [0] * (n - 1) + [1]
    k = len(den) - 1
    q = [0] * (n - k + 1)
    for i in range(n - k, -1, -1):
        c = rem[i + k]
        if c:
            q[i] = c
            for j, y in enumerate(den):
                rem[i + j] -= c * y
    assert not any(rem), "cyclotomic division must be exact"
    return tuple(q)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """x^k mod Phi_n for k = 0..n-1, each as sparse ((i, c), ...) pairs.
    Phi_n is monic with integer coefficients, so every c is an int, and
    Phi_n divides x^n - 1, so x^k reduces as x^(k mod n)."""
    phi = cyclotomic_polynomial(n)
    cur = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]
    return tuple(rows)


def _reduce(n: int, d: int, poly) -> list:
    """The int polynomial poly mod Phi_n, as d = phi(n) coefficients."""
    out = list(poly[:d])
    out += [0] * (d - len(out))
    if len(poly) > d:
        table = _power_table(n)
        for k in range(d, len(poly)):
            c = poly[k]
            if c:
                for i, t in table[k % n]:
                    out[i] += c * t
    return out


def _mulmod(n: int, a, b) -> list:
    """a * b mod Phi_n for int coefficient tuples of length phi(n)."""
    return _reduce(n, len(a), _poly_mul(a, b))


def _ratio(num: int, den: int) -> Rational:
    """num / den for den > 0: an int when it is integral, else a Fraction."""
    if num % den:
        return Fraction(num, den)
    return num // den


def _cyclo(n: int, nums, den: int) -> Scalar:
    """The scalar sum(nums[i] z^i) / den for den > 0: a rational when its
    value is rational, else a Cyclo in lowest terms.  Over den = 1 the
    numerators are in lowest terms already, so no gcd is taken."""
    if not any(nums[1:]):
        return _ratio(nums[0], den)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return Cyclo(n, tuple(nums), den)


def _sum(n: int, a, da: int, b, db: int) -> Scalar:
    """The scalar a/da + b/db for numerator lists a and b.  Two operands
    over one denominator add numerators; over 1, the sums that Phi's
    column algebra cancels, _cyclo takes no gcd."""
    if da == db:
        return _cyclo(n, [x + y for x, y in zip(a, b)], da)
    return _cyclo(n, [x * db + y * da for x, y in zip(a, b)], da * db)


class Cyclo:
    """Element of Q(zeta_n) in the power basis mod Phi_n, stored as int
    numerators `nums` over one positive denominator `den`, with
    gcd(den, *nums) = 1, so equal values have equal fields."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: tuple, den: int):
        # internal constructor: assumes nums already length phi(n), in
        # lowest terms over den > 0, and not rational-valued.  Use make()
        # from user code.
        self.n = n
        self.nums = nums
        self.den = den

    @staticmethod
    def make(n: int, coeffs) -> Scalar:
        """Canonicalize: reduce mod Phi_n, collapse rational values."""
        if n < 1:
            raise ValueError("conductor must be positive")
        cs = [_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        poly = [c.numerator * (den // c.denominator) for c in cs]
        return _cyclo(n, _reduce(n, euler_phi(n), poly), den)

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as rationals, ints when integral."""
        return tuple(_ratio(c, self.den) for c in self.nums)

    # -- plumbing ----------------------------------------------------------

    def _operand(self, other):
        """other as (numerators, denominator) in this basis, or None."""
        if isinstance(other, Cyclo):
            if other.n != self.n:
                raise ConductorMixError(
                    f"cannot mix conductors {self.n} and {other.n}")
            return other.nums, other.den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) + (0,) * (len(self.nums) - 1),
                    other.denominator)
        return None

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return (self.n == other.n and self.nums == other.nums
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return False  # canonical Cyclo is never rational-valued
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"Cyclo({self.n}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"({body} | z = zeta_{self.n})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        # an int moves only the constant numerator, by other * den, so the
        # sum stays in lowest terms and irrational
        if type(other) is int:
            return Cyclo(self.n, (self.nums[0] + other * self.den,)
                         + self.nums[1:], self.den)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.n, self.nums, self.den, *o)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.n, self.nums, self.den, [-y for y in o[0]], o[1])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.n, [-x for x in self.nums], self.den, *o)

    def __mul__(self, other):
        # a product by 1 is self, and by -1 its negation
        if type(other) is int:
            if other == 1:
                return self
            if other == -1:
                return -self
        if isinstance(other, Cyclo):
            if other.n != self.n:
                raise ConductorMixError(
                    f"cannot mix conductors {self.n} and {other.n}")
            return _cyclo(self.n, _mulmod(self.n, self.nums, other.nums),
                          self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            if not p:
                return ZERO
            return _cyclo(self.n, [c * p for c in self.nums],
                          self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product P of the Galois conjugates
        z -> z^k (k a unit mod n, k != 1) of the numerator makes
        nums * P the rational norm r, so self^-1 = den * P / r."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n, nums = self.n, self.nums
        table = _power_table(n)
        prod = None
        for k in range(2, n):
            if gcd(k, n) != 1:
                continue
            conj = [0] * len(nums)
            for i, c in enumerate(nums):
                if c:
                    for j, t in table[i * k % n]:
                        conj[j] += c * t
            prod = conj if prod is None else _mulmod(n, prod, conj)
        norm = _mulmod(n, nums, prod)
        # A Cyclo has n >= 3 (n <= 2 is rational), so Q(zeta_n) has no real
        # embedding: the norm is a product of |sigma(a)|^2, rational and > 0.
        assert not any(norm[1:]) and norm[0] > 0, \
            "the norm of a nonzero cyclotomic is a positive rational"
        return _cyclo(n, [self.den * c for c in prod], norm[0])

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result: Scalar = ONE
        base: Scalar = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


# The exact types of a scalar, for checks by type(v): a bool is an int by
# isinstance but not a scalar.
SCALAR_TYPES = frozenset((int, Fraction, Cyclo))


def scalar_conductor(s: Scalar):
    """Conductor of a scalar, or None for rationals."""
    return s.n if isinstance(s, Cyclo) else None


def as_scalar(x) -> Scalar:
    return x if isinstance(x, Cyclo) else _rational(x)


def _rational(x) -> Rational:
    """x as an exact rational, an int when integral: an int (not a bool), a
    Fraction or a rational string; anything else, a float above all, is
    refused."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return _ratio(x.numerator, x.denominator)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact rational: {x!r}")


def reciprocal(x: Scalar) -> Scalar:
    """1 / x, exactly: every scalar division goes through here, because
    `1 / n` on an int n is a float."""
    if isinstance(x, Cyclo):
        return x.inverse()
    num, den = x.numerator, x.denominator
    if not num:
        raise ZeroDivisionError("reciprocal of zero")
    if num < 0:
        num, den = -num, -den
    return _ratio(den, num)


def root_of_unity(n: int, k: int) -> Scalar:
    """zeta_n^k as an exact scalar.  Requires gcd(k, n) = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    k = k % n
    if gcd(k, n) != 1:
        raise PrimitivityError(f"zeta_{n}^{k} is not a primitive {n}-th root")
    if n == 1:
        return ONE
    if n == 2:
        return -ONE
    return Cyclo.make(n, [0] * k + [1])


def q_binomial(m: int, l: int, p) -> Scalar:
    """Gaussian binomial (m choose l)_p by the q-Pascal recurrence.

    Never divides q-factorials, so roots of unity are safe.
    """
    if l < 0 or l > m or m < 0:
        raise ValueError(f"q_binomial needs 0 <= l <= m, got ({m}, {l})")
    p = as_scalar(p)
    row = [ONE]  # row for m = 0
    for i in range(1, m + 1):
        new = [ONE]
        power: Scalar = p  # p^j for j = 1..
        for j in range(1, i):
            new.append(row[j - 1] + power * row[j])
            power = power * p
        new.append(ONE)
        row = new
    return row[l]


# ---------------------------------------------------------------------------
# JSON encoding: rationals as "p/q", cyclotomics as {"n": n, "coeffs": [...]}
# ---------------------------------------------------------------------------

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: str) -> Rational:
    """An optional '-', ASCII digits and optionally '/' and nonzero ASCII
    digits, the form rational_to_json writes; no blanks, '+' or '_'."""
    if not isinstance(s, str):
        raise ScalarParseError(f"rational must be a string, got {s!r}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ScalarParseError(f"malformed rational {s!r}")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError as err:  # more digits than int() converts
        raise ScalarParseError(f"malformed rational ({err})") from err
    if den == 0:
        raise ScalarParseError(f"malformed rational {s!r}")
    return _ratio(num, den)


def rational_to_json(f: Rational) -> str:
    return f"{f.numerator}/{f.denominator}"


def scalar_to_json(s: Scalar):
    if isinstance(s, Cyclo):
        return {"n": s.n, "coeffs": [rational_to_json(c) for c in s.coeffs]}
    return rational_to_json(s)


def json_int(x) -> int:
    """x itself if it is a JSON integer; a float, bool or string is refused
    with ValueError rather than truncated or parsed."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


# The largest conductor a JSON document may name: the reduction table of
# Phi_n takes seconds to build by n = 10^4, and the zoo writes at most 64.
MAX_JSON_CONDUCTOR = 1024


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, dict):
        try:
            n = json_int(obj["n"])
            coeffs = obj["coeffs"]
        except (KeyError, ValueError) as e:
            raise ScalarParseError(f"malformed cyclotomic {obj!r}") from e
        if not isinstance(coeffs, list):
            raise ScalarParseError(f"malformed cyclotomic {obj!r}")
        if n < 1:
            raise ScalarParseError(f"bad conductor in {obj!r}")
        if n > MAX_JSON_CONDUCTOR:
            raise ScalarParseError(
                f"conductor {n} exceeds {MAX_JSON_CONDUCTOR}")
        if len(coeffs) > euler_phi(n):
            raise ScalarParseError(f"too many coefficients for conductor {n}")
        return Cyclo.make(n, [parse_rational(c) for c in coeffs])
    raise ScalarParseError(f"not a scalar encoding: {obj!r}")
