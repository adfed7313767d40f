"""Exact Gaussian rational scalars.

``ExactComplex`` is the coefficient field everywhere in the package:
a + b*i with a, b exact rationals, held as the term-map kernel's own
normalized tuple (rn, rd, jn, jd) and computed with its ``cadd``, ``csub``
and ``cmul``; ``re`` and ``im`` read the parts as ``Fraction``.  Equality
is exact and decidable; there is no floating-point mode.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

from . import _kernel as K
from .errors import Immutable, InputError

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal "p" or "p/q". Floats are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        if "." in s or "e" in s.lower():
            raise InputError(
                f"float literal {text!r} not allowed; use an exact rational like 1/2")
        raise InputError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except ValueError:  # past the interpreter's int/str digit limit
        raise InputError(f"rational literal of {len(s)} characters is too "
                         f"long") from None


def format_ratio(num: int, den: int) -> str:
    """The normalized rational num/den as "n" or "n/d"."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past the interpreter's int/str digit limit
        raise InputError(f"a coefficient has over "
                         f"{sys.get_int_max_str_digits()} digits, too many "
                         f"to print") from None


def format_complex(c) -> str:
    """A kernel coefficient (rn, rd, jn, jd) as "a", "b*i" or "a+b*i",
    with a unit imaginary part written "i" or "-i"."""
    rn, rd, jn, jd = c
    if jn == 0:
        return format_ratio(rn, rd)
    if jd == 1 and jn in (1, -1):
        im = "i" if jn > 0 else "-i"
    else:
        im = f"{format_ratio(jn, jd)}*i"
    if rn == 0:
        return im
    return format_ratio(rn, rd) + (im if jn < 0 else "+" + im)


def _ratio(part) -> tuple:
    """One part as a normalized (numerator, denominator) pair."""
    if type(part) is int:
        return part, 1
    if isinstance(part, float):
        raise InputError(f"float {part!r} not allowed; use an exact "
                         f"rational like 1/2")
    return Fraction(part).as_integer_ratio()


class ExactComplex(Immutable):
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("_c",)

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "_c", _ratio(re) + _ratio(im))

    @classmethod
    def from_kernel(cls, c) -> "ExactComplex":
        """Wrap c as is; like every kernel result, it must be normalized
        (positive coprime denominators, a zero part stored as (0, 1))."""
        z = object.__new__(cls)
        object.__setattr__(z, "_c", c)
        return z

    def to_kernel(self):
        return self._c

    @property
    def re(self) -> Fraction:
        return Fraction(self._c[0], self._c[1])

    @property
    def im(self) -> Fraction:
        return Fraction(self._c[2], self._c[3])

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
        return self.from_kernel(K.cadd(self._c, self.coerce(other)._c))

    __radd__ = __add__

    def __sub__(self, other):
        return self.from_kernel(K.csub(self._c, self.coerce(other)._c))

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __neg__(self):
        rn, rd, jn, jd = self._c
        return self.from_kernel((-rn, rd, -jn, jd))

    def __mul__(self, other):
        return self.from_kernel(K.cmul(self._c, self.coerce(other)._c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero ExactComplex")
        conj = other.conj()._c
        nn, nd, _, _ = K.cmul(other._c, conj)  # |other|^2 = nn/nd > 0
        return self.from_kernel(K.cmul(K.cmul(self._c, conj), (nd, nn, 0, 1)))

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
        rn, rd, jn, jd = self._c
        return self.from_kernel((rn, rd, -jn, jd))

    def is_zero(self) -> bool:
        return self._c[0] == 0 and self._c[2] == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __str__(self):
        return format_complex(self._c)

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"
