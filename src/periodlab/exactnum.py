"""Gaussian rational scalars for exact linear algebra.

A :class:`QQi` is a complex number with :class:`~fractions.Fraction` real and
imaginary parts.  This is the scalar field used on the exact matrix path: it
is closed under the arithmetic needed by row reduction and contains every
entry of the built-in group models that are not float-only (fourth roots of
unity, integers, halves).

The class is deliberately small: arithmetic, comparison with exact zero,
conjugation, hashing, and conversion to ``complex``.  Operands may be ``int``,
``Fraction``, or ``QQi``; anything else returns ``NotImplemented`` so numpy
object arrays interoperate cleanly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
Scalarish = Union[int, Fraction, "QQi"]


class QQi:
    """A Gaussian rational: ``re + im*i`` with rational ``re`` and ``im``."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- coercion -------------------------------------------------------
    @staticmethod
    def of(value: Scalarish) -> "QQi":
        if isinstance(value, QQi):
            return value
        if isinstance(value, (int, Fraction)):
            return QQi(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QQi")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return QQi(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return QQi(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return QQi(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re / other, self.im / other)
        if isinstance(other, QQi):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by zero QQi")
            return QQi((self.re * other.re + self.im * other.im) / d,
                       (self.im * other.re - self.re * other.im) / d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(other) / self
        return NotImplemented

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure ------------------------------------------------------
    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    # -- comparison and hashing ----------------------------------------
    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- conversion and display ----------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)


def qqi(value: Scalarish) -> QQi:
    """Coerce an int, Fraction, or QQi to a :class:`QQi`."""
    return QQi.of(value)
