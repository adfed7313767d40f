"""Truncated formal power series in the deformation parameter h.

An ``HbarSeries`` of order K holds exactly K+1 polynomial coefficients
f_0..f_K, all of one arity, and stands for sum_k h^k f_k with every term
of h-degree above K discarded.  All identities elsewhere in the package
are asserted "to order K" in this sense.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ArityError, Immutable
from .poly import SparsePoly


class HbarSeries(Immutable):
    """Immutable truncated series with SparsePoly coefficients."""

    __slots__ = ("arity", "order", "coeffs")

    def __init__(self, coeffs: Sequence[SparsePoly]):
        if not coeffs:
            raise ArityError("a series needs at least the order-0 coefficient")
        arity = coeffs[0].arity
        for c in coeffs:
            if c.arity != arity:
                raise ArityError("series coefficients disagree on arity")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls, arity: int, order: int) -> "HbarSeries":
        return cls([SparsePoly.zero(arity)] * (order + 1))

    @classmethod
    def from_poly(cls, p: SparsePoly, order: int) -> "HbarSeries":
        return cls([p] + [SparsePoly.zero(p.arity)] * order)

    def __getitem__(self, k: int) -> SparsePoly:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "HbarSeries":
        pad = [SparsePoly.zero(self.arity)] * (order - self.order)
        return HbarSeries((list(self.coeffs) + pad)[:order + 1])

    def shift(self, j: int) -> "HbarSeries":
        """Multiply by h^j, keeping the truncation order."""
        zeros = [SparsePoly.zero(self.arity)] * min(j, self.order + 1)
        return HbarSeries((zeros + list(self.coeffs))[:self.order + 1])

    def map_coeffs(self, fn) -> "HbarSeries":
        return HbarSeries([fn(c) for c in self.coeffs])

    def _check(self, other: "HbarSeries"):
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    @staticmethod
    def _promote(value, arity: int, order: int) -> "HbarSeries":
        if isinstance(value, HbarSeries):
            return value
        if isinstance(value, SparsePoly):
            return HbarSeries.from_poly(value, order)
        return HbarSeries.from_poly(SparsePoly.const(arity, value), order)

    def __add__(self, other):
        other = self._promote(other, self.arity, self.order)
        self._check(other)
        return HbarSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other, self.arity, self.order)
        self._check(other)
        return HbarSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._promote(other, self.arity, self.order) - self

    def __neg__(self):
        return HbarSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        """Commutative product: Cauchy convolution in h, truncated."""
        if isinstance(other, HbarSeries):
            self._check(other)
            zero = SparsePoly.zero(self.arity)
            return HbarSeries([
                sum((self.coeffs[j] * other.coeffs[k - j]
                     for j in range(k + 1)), zero)
                for k in range(min(self.order, other.order) + 1)])
        if isinstance(other, SparsePoly):
            self._check(other)
            return HbarSeries([c * other for c in self.coeffs])
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, value) -> "HbarSeries":
        return HbarSeries([c.scale(value) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return (self.arity == other.arity and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.arity, self.coeffs))

    def __str__(self):
        from .parsing import series_to_str
        return series_to_str(self)

    def __repr__(self):
        return f"HbarSeries(order={self.order}, {str(self)!r})"
