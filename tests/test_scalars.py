from fractions import Fraction

from hypothesis import given, strategies as st

from scalars import ExactScalar, I_UNIT, ONE, SQRT2, SQRT_M2

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(ExactScalar, fracs, fracs, fracs, fracs)


def test_sqrt2_square():
    assert SQRT2 * SQRT2 == ExactScalar(2)


def test_sqrt_minus_two_square():
    assert SQRT_M2 * SQRT_M2 == ExactScalar(-2)


def test_sqrt_minus_two_is_i_sqrt2():
    assert SQRT_M2 == I_UNIT * SQRT2


def test_conjugation_fixes_sqrt2():
    assert SQRT2.conjugate() == SQRT2
    assert SQRT_M2.conjugate() == -SQRT_M2


def test_to_complex():
    val = (ONE + SQRT2 * ExactScalar(0, 1)).to_complex()
    assert abs(val - (1 + 1.4142135623730951j)) < 1e-15


def test_serialize_roundtrip():
    x = ExactScalar(Fraction(1, 3), -2, Fraction(5, 7), 0)
    assert ExactScalar(*map(Fraction, x.serialize())) == x


@given(scalars, scalars, scalars)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars, scalars, scalars)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_conjugate_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_float_agrees_with_exact_arithmetic(a):
    b = a * a + a
    direct = a.to_complex() * a.to_complex() + a.to_complex()
    assert abs(b.to_complex() - direct) <= 1e-9 * (1 + abs(direct))


@given(scalars)
def test_zero_detection(a):
    assert (a - a).is_zero()
    assert not (a + ONE - a).is_zero()
