"""Tests for the exact Gaussian-rational scalar type."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from periodlab.exactnum import QQi, qqi

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(QQi, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_construction_and_parts():
    z = QQi(Fraction(1, 2), Fraction(-3, 4))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)
    assert z.im != 0
    assert QQi(7).im == 0


def test_of_accepts_ints_fractions_and_rejects_floats():
    assert qqi(3) == QQi(3)
    assert qqi(Fraction(2, 3)) == QQi(Fraction(2, 3))
    assert qqi(QQi(0, 1)) == QQi(0, 1)
    with pytest.raises(TypeError):
        qqi(0.5)


def test_mixed_arithmetic_with_ints():
    z = QQi(1, 1)
    assert z + 1 == QQi(2, 1)
    assert 1 + z == QQi(2, 1)
    assert 2 * z == QQi(2, 2)
    assert z - 1 == QQi(0, 1)
    assert 1 - z == QQi(0, -1)
    assert z / 2 == QQi(Fraction(1, 2), Fraction(1, 2))
    assert 2 / QQi(0, 1) == QQi(0, -2)


def test_division_exact():
    i = QQi(0, 1)
    assert i * i == QQi(-1)
    assert (QQi(1, 1) / QQi(1, -1)) == i
    with pytest.raises(ZeroDivisionError):
        QQi(1) / QQi(0)


def test_complex_conversion_and_str():
    z = QQi(Fraction(1, 2), Fraction(-1, 3))
    assert complex(z) == complex(0.5, -1 / 3)
    assert str(QQi(0)) == "0"
    assert str(QQi(0, 1)) == "1*i"
    assert str(QQi(1, -2)) == "1-2*i"
    assert str(QQi(Fraction(1, 2))) == "1/2"


def test_hash_consistent_with_eq():
    assert hash(QQi(2)) == hash(QQi(Fraction(2)))
    assert QQi(2) == 2
    assert QQi(2) != QQi(2, 1)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (QQi(1) / a) == QQi(1)


@given(scalars)
def test_conjugation_norm(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re >= 0
    assert (n.re == 0) == (not a)
