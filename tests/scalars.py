"""Exact coefficient arithmetic for the exact exterior algebra in `exterior`.

Coefficients live in Q(i)[sqrt2]: numbers (a + b*i) + (c + d*i)*sqrt(2) with
rational a, b, c, d.  This field is closed under the products that appear in
the Clifford actions, whose normalizations involve sqrt(2) and i*sqrt(2), so
every algebra identity can be checked with no rounding at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

_F = Fraction

Rational = Union[int, Fraction]


class ExactScalar:
    """An element (a + b*i) + (c + d*i)*sqrt(2), with Fraction components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0,
                 c: Rational = 0, d: Rational = 0):
        self.a = _F(a)
        self.b = _F(b)
        self.c = _F(c)
        self.d = _F(d)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (x + y*sqrt2)(x' + y'*sqrt2) = (xx' + 2yy') + (xy' + yx')*sqrt2,
        # with x = a+bi etc. multiplied as Gaussian rationals.
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        ra = a * e - b * f + 2 * (c * g - d * h)
        rb = a * f + b * e + 2 * (c * h + d * g)
        rc = a * g - b * h + c * e - d * f
        rd = a * h + b * g + c * f + d * e
        return ExactScalar(ra, rb, rc, rd)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.a, -self.b, self.c, -self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def to_complex(self) -> complex:
        r2 = math.sqrt(2.0)
        return complex(float(self.a) + float(self.c) * r2,
                       float(self.b) + float(self.d) * r2)

    def __repr__(self):
        return f"ExactScalar({self.a}, {self.b}, {self.c}, {self.d})"

    def serialize(self) -> list[str]:
        return [str(self.a), str(self.b), str(self.c), str(self.d)]


def _coerce(x) -> "ExactScalar":
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(x)
    return NotImplemented


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I_UNIT = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)
# Branch choice: sqrt(-2) = i*sqrt(2).  Fixed once here; the fiber-model tests
# pin it by demanding a positive operator with the documented kernel state.
SQRT_M2 = ExactScalar(0, 0, 0, 1)
