"""Exact Gaussian rational scalars.

``ExactComplex`` is the coefficient field everywhere in the package:
a + b*i with a, b exact ``Fraction`` values.  Equality is exact and
decidable; there is no floating-point mode.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import InputError

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal "p" or "p/q". Floats are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        if "." in s or "e" in s.lower():
            raise InputError(
                f"float literal {text!r} not allowed; use an exact rational like 1/2")
        raise InputError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class ExactComplex:
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def from_kernel(cls, c) -> "ExactComplex":
        return cls(Fraction(c[0], c[1]), Fraction(c[2], c[3]))

    def to_kernel(self):
        return (self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator)

    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls(parse_rational(value))
        raise InputError(f"cannot interpret {value!r} as an exact complex scalar")

    def __add__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return self * ExactComplex(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return ExactComplex(1) / self ** (-k)
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{format_rational(self.im)}*i"
        im = self.im
        if im == 1:
            tail = "+i"
        elif im == -1:
            tail = "-i"
        elif im > 0:
            tail = f"+{format_rational(im)}*i"
        else:
            tail = f"-{format_rational(-im)}*i"
        return format_rational(self.re) + tail

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"
