"""Truncated formal power series in the deformation parameter h.

An ``HbarSeries`` of order K stands for sum_k h^k f_k with every term of
h-degree above K discarded; all identities elsewhere in the package are
asserted "to order K" in this sense.  It is one packed ``SparsePoly``,
``packed``, in arity + 1 variables, h last, every h-degree at most K:
the form the parser reads and the Moyal walk writes.  Sums, scalings,
products and equality are single polynomial operations, a substitution
or a translation maps the whole series at once, h fixed, and f_k is read
off it on demand.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from . import _kernel as K
from .errors import ArityError, Immutable
from .poly import SparsePoly

_set = object.__setattr__  # fills slots past Immutable.__setattr__


def _lift(p: SparsePoly) -> SparsePoly:
    """p in one more variable, h, which it does not hold: the same form."""
    return SparsePoly._make(p.arity + 1, *p._form, False)


def _cut(p: SparsePoly, order: int) -> SparsePoly:
    """p, h its last variable, without its terms of h-degree past order."""
    w, den, terms = p._form
    end = order + 1 << (p.arity - 1) * w  # h is the highest field
    if not terms or max(terms) < end:
        return p
    return SparsePoly._make(p.arity, w, den, {
        key: c for key, c in terms.items() if key < end})


class HbarSeries(Immutable):
    """Immutable truncated series with SparsePoly coefficients."""

    __slots__ = ("arity", "order", "packed")

    def __init__(self, coeffs: Sequence[SparsePoly]):
        if not coeffs:
            raise ArityError("a series needs at least the order-0 coefficient")
        arity = coeffs[0].arity
        if any(c.arity != arity for c in coeffs):
            raise ArityError("series coefficients disagree on arity")
        # canonical: over the lcm of the denominators, fields for all exponents
        parts = [(j, c) for j, c in enumerate(coeffs) if c]
        width = max([K.field_width(parts[-1][0].bit_length(), True)]
                    + [c._form[0] for _, c in parts]) if parts else 8
        den = lcm(*(c._form[1] for _, c in parts))
        _set(self, "arity", arity)
        _set(self, "order", len(coeffs) - 1)
        _set(self, "packed", SparsePoly._make(arity + 1, width, den, {
            key + (j << arity * width): (a * (den // c._form[1]),
                                         b * (den // c._form[1]))
            for j, c in parts for key, (a, b) in c._at(width).items()},
            False))

    @classmethod
    def _of(cls, packed: SparsePoly, order: int) -> "HbarSeries":
        """The series of a packed form whose h-degrees are at most order."""
        out = object.__new__(cls)
        _set(out, "arity", packed.arity - 1)
        _set(out, "order", order)
        _set(out, "packed", packed)
        return out

    @classmethod
    def zero(cls, arity: int, order: int) -> "HbarSeries":
        return cls._of(SparsePoly.zero(arity + 1), order)

    @classmethod
    def from_poly(cls, p: SparsePoly, order: int) -> "HbarSeries":
        return cls._of(_lift(p), order)

    @property
    def coeffs(self) -> tuple:
        return tuple(self[k] for k in range(self.order + 1))

    def __getitem__(self, k: int) -> SparsePoly:
        """f_k, read off the packed form: its terms of h-degree k."""
        w, den, terms = self.packed._form
        shift = self.arity * w
        return SparsePoly._make(self.arity, w, den, {
            key & (1 << shift) - 1: c
            for key, c in terms.items() if key >> shift == k})

    def is_zero(self) -> bool:
        return not self.packed

    def truncate(self, order: int) -> "HbarSeries":
        return HbarSeries._of(_cut(self.packed, order), order)

    def shift(self, j: int) -> "HbarSeries":
        """Multiply by h^j, keeping the truncation order."""
        h = SparsePoly(self.arity + 1, {(0,) * self.arity + (j,): 1})
        return HbarSeries._of(_cut(self.packed * h, self.order), self.order)

    def map_coeffs(self, fn) -> "HbarSeries":
        return HbarSeries([fn(c) for c in self.coeffs])

    def _pair(self, other) -> tuple:
        """The packed forms of self and other (a polynomial or scalar at
        self's order), cut at the smaller order, and that order."""
        if not isinstance(other, HbarSeries):
            other = HbarSeries.from_poly(
                other if isinstance(other, SparsePoly)
                else SparsePoly.const(self.arity, other), self.order)
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")
        order = min(self.order, other.order)
        return _cut(self.packed, order), _cut(other.packed, order), order

    def __add__(self, other):
        p, q, order = self._pair(other)
        return HbarSeries._of(p + q, order)

    __radd__ = __add__

    def __sub__(self, other):
        p, q, order = self._pair(other)
        return HbarSeries._of(p - q, order)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        """Commutative product: of the packed forms, truncated."""
        if isinstance(other, (HbarSeries, SparsePoly)):
            p, q, order = self._pair(other)
            return HbarSeries._of(_cut(p * q, order), order)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, value) -> "HbarSeries":
        return HbarSeries._of(self.packed.scale(value), self.order)

    def __eq__(self, other):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return (self.arity == other.arity and self.order == other.order
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.arity, self.order, self.packed))

    def __str__(self):
        from .parsing import series_to_str
        return series_to_str(self)

    def __repr__(self):
        return f"HbarSeries(order={self.order}, {str(self)!r})"
