"""Sparse multivariate polynomials with exact Gaussian rational coefficients.

A polynomial in m variables z1..zm holds one canonical packed form,
``(width, den, {key: (a, b)})`` (``starkit._kernel``).  Every sum,
product, derivative, substitution and Taylor shift runs on it and
normalizes its result once, so equality and hashing read the form
whatever path built a polynomial.  Exponent tuples and ``ExactComplex``
coefficients appear only at the edges: the constructor, ``terms()``,
``coefficient()`` and the printer.  This module owns validation,
ordering, and the public object API.

Variable indices in the public API are 1-based, matching the z1..zm
naming of the text form.  Term order is graded lexicographic with
z1 > z2 > ... > zm, highest terms first.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterator, Mapping, Sequence

from . import _kernel as K
from .errors import ArityError, Immutable
from .scalars import ExactComplex


_set = object.__setattr__  # fills slots past Immutable.__setattr__


def grlex_key(exps):
    return (sum(exps), exps)


def _split(c) -> tuple:
    """A kernel coefficient (rn, rd, jn, jd) as (x, y, d), (x + y i) / d
    over d = lcm(rd, jd), which leaves gcd(d, x, y) = 1."""
    rn, rd, jn, jd = c
    d = lcm(rd, jd)
    return rn * (d // rd), jn * (d // jd), d


def _binomial_row(x: int, y: int, d: int, k: int) -> list:
    """[C(k, i) (x + y i)^(k-i) d^i for i in 0..k] as Gaussian-integer
    pairs: shifting z by (x + y i) / d sends z^k to the sum of these
    weights times z^i, over d^k."""
    row = []
    u, v = 1, 0  # (x + y i)^(k - i), from i = k down
    for i in range(k, -1, -1):
        b = comb(k, i) * d ** i
        row.append((u * b, v * b))
        u, v = u * x - v * y, u * y + v * x
    return row[::-1]


def _check_arity(arity: int) -> None:
    if arity < 1:
        raise ArityError(f"arity must be >= 1, got {arity}")


def _coerce_coeff(value):
    if isinstance(value, (ExactComplex, int, Fraction)):
        return ExactComplex.coerce(value).to_kernel()
    raise ArityError(f"cannot use {value!r} as a polynomial coefficient")


class SparsePoly(Immutable):
    """Immutable sparse polynomial over the Gaussian rationals."""

    __slots__ = ("arity", "_form", "_hash")

    def __init__(self, arity: int, terms: Mapping | None = None):
        _check_arity(arity)
        raw = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ArityError(
                    f"exponent vector {exps} has length {len(exps)}, expected {arity}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ArityError(f"exponents must be nonnegative ints: {exps}")
            c = _coerce_coeff(coeff)
            if c[0] != 0 or c[2] != 0:
                raw[exps] = K.cadd(raw[exps], c) if exps in raw else c
        _set(self, "arity", arity)
        _set(self, "_form", K.lift({
            e: c for e, c in raw.items() if c[0] != 0 or c[2] != 0}))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "SparsePoly":
        _check_arity(arity)
        return cls._make(arity, 8, 1, {}, False)

    @classmethod
    def const(cls, arity: int, value) -> "SparsePoly":
        _check_arity(arity)
        x, y, d = _split(_coerce_coeff(value))
        return cls._make(arity, 8, d, {0: (x, y)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "SparsePoly":
        """The monomial z_index (1-based index)."""
        if not 1 <= index <= arity:
            raise ArityError(f"variable index {index} out of range 1..{arity}")
        return cls._make(arity, 8, 1, {1 << 8 * (index - 1): (1, 0)}, False)

    @classmethod
    def _make(cls, arity: int, width: int, den: int, p: dict,
              normal: bool = True) -> "SparsePoly":
        """p / den, p packed in fields of this width, brought to the
        canonical form unless the caller vouches it is (normal=False)."""
        out = object.__new__(cls)
        _set(out, "arity", arity)
        _set(out, "_form", K.normal(p, den, arity, width) if normal
             else (width, den, p))
        return out

    def _at(self, width: int) -> dict:
        """The numerators, keyed in fields of this width."""
        w, _, p = self._form
        return p if w == width else K.repack(p, self.arity, w, width)

    def _items(self) -> dict:
        """The map from exponent tuples to kernel coefficients."""
        w, den, p = self._form
        return K.lower(p, den, self.arity, w)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._form[2]

    def is_constant(self) -> bool:
        return self._form[2].keys() <= {0}

    def constant_value(self) -> ExactComplex:
        """The coefficient of the constant monomial."""
        _, den, p = self._form
        a, b = p.get(0, (0, 0))
        return ExactComplex.from_kernel(K.qnorm(a, den) + K.qnorm(b, den))

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        w, _, p = self._form
        return max(map(sum, K.exponents(p, self.arity, w)), default=-1)

    def coefficient(self, exps: Sequence[int]) -> ExactComplex:
        return ExactComplex.from_kernel(
            self._items().get(tuple(exps), (0, 1, 0, 1)))

    def terms(self) -> Iterator[tuple[tuple[int, ...], ExactComplex]]:
        """Terms in descending graded lexicographic order."""
        items = self._items()
        for exps in sorted(items, key=grlex_key, reverse=True):
            yield exps, ExactComplex.from_kernel(items[exps])

    def __len__(self):
        return len(self._form[2])

    def __bool__(self):
        return bool(self._form[2])

    # -- ring operations ---------------------------------------------------

    def _check_same_arity(self, other: "SparsePoly"):
        if self.arity != other.arity:
            raise ArityError(
                f"arity mismatch: {self.arity} vs {other.arity}")

    def _add(self, other, sign: int) -> "SparsePoly":
        """self + sign * other, over the lcm of the two denominators."""
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.arity, other)
        self._check_same_arity(other)
        (w1, d1, p1), (w2, d2, p2) = self._form, other._form
        if not p2:
            return self
        w, d = max(w1, w2), lcm(d1, d2)
        p1, p2 = self._at(w), other._at(w)
        # canonical maps on disjoint keys sum to one canonical over the lcm
        return SparsePoly._make(self.arity, w, d, K.madd(
            p1, p2, d // d1, sign * (d // d2)), not p1.keys().isdisjoint(p2))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return SparsePoly.const(self.arity, other) - self

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            self._check_same_arity(other)
            (w1, d1, p1), (w2, d2, p2) = self._form, other._form
            w = K.product_width(p1, w1, p2, w2, self.arity)
            return SparsePoly._make(self.arity, w, d1 * d2,
                                    K.mmul(self._at(w), other._at(w)))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, value) -> "SparsePoly":
        """The product with a scalar: with the one-term map (x + y i) / d."""
        x, y, d = _split(_coerce_coeff(value))
        w, den, p = self._form
        return SparsePoly._make(self.arity, w, den * d,
                                K.mmul(p, {0: (x, y)}))

    def __pow__(self, k: int):
        """By squaring along the bits of k, each product sized by the
        width rule."""
        if not isinstance(k, int) or k < 0:
            raise ArityError("polynomial exponents must be nonnegative ints")
        out = SparsePoly.const(self.arity, 1)
        for bit in f"{k:b}":
            out = out * out * self if bit == "1" else out * out
        return out

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: int) -> "SparsePoly":
        """Exact partial derivative with respect to z_var (1-based)."""
        if not 1 <= var <= self.arity:
            raise ArityError(f"variable index {var} out of range 1..{self.arity}")
        w, den, p = self._form
        return SparsePoly._make(self.arity, w, den, K.mdiff(p, var - 1, w))

    def subst(self, gs: Sequence["SparsePoly"]) -> "SparsePoly":
        """Replace variable j by gs[j-1], fully expanded.

        gs must have one entry per variable of self; all entries share one
        arity, which becomes the arity of the result.

        Each g_j, over D_j, is repacked once into the fields of the result,
        and its powers g_j^k stay packed over D_j^k.  A term of self over D
        becomes a product over D prod_j D_j^e_j; scaled by D_j^(E_j - e_j),
        E_j the largest e_j, every term lands over D prod_j D_j^E_j, so
        the terms add in one packed map that is normalized once.
        """
        if len(gs) != self.arity:
            raise ArityError(
                f"substitution needs {self.arity} polynomials, got {len(gs)}")
        new_arity = gs[0].arity
        if any(g.arity != new_arity for g in gs):
            raise ArityError("substitution polynomials disagree on arity")
        w, den, terms = self._form
        exps = K.exponents(terms, self.arity, w)
        tops = [max(col) for col in zip(*exps)] or [0] * self.arity
        if not any(tops):
            # self is zero or a constant, whose key 0 any arity shares
            return SparsePoly._make(new_arity, w, den, terms, False)
        # only the g_j of variables that occur in self size the fields
        gtops = [top and K.top(g._form[2], new_arity, g._form[0])
                 for g, top in zip(gs, tops)]
        width = K.field_width(max(sum(map(int.__mul__, e, gtops))
                                  for e in exps).bit_length())
        unit = {0: (1, 0)}
        powers = []
        scales = []
        for g, top in zip(gs, tops):
            p, d = (g._at(width), g._form[1]) if top else (unit, 1)
            row = [unit, p]
            while len(row) <= top:
                row.append(K.maddmul({}, row[-1], p, 1, 0))
            powers.append(row)
            scales.append([d ** (top - k) for k in range(top + 1)])
            den *= d ** top
        acc: dict = {}
        for e, (a, b) in zip(exps, terms.values()):
            factors = [powers[j][k] for j, k in enumerate(e) if k]
            last = factors.pop() if factors else unit
            first = factors.pop() if factors else unit
            for p in factors:
                first = K.maddmul({}, first, p, 1, 0)
            s = prod(row[k] for row, k in zip(scales, e))
            K.maddmul(acc, first, last, a * s, b * s)
        return SparsePoly._make(new_arity, width, den, acc)

    def translate(self, shift) -> "SparsePoly":
        """f(z + shift), expanded exactly by the binomial theorem."""
        if len(shift) != self.arity:
            raise ArityError(f"shift must have length {self.arity}")
        return self._translate([_coerce_coeff(c) for c in shift])

    def _translate(self, shift, rows=None) -> "SparsePoly":
        """translate() on a shift already given as kernel coefficients.

        One pass per nonzero component (x + y i) / d sends a z_j^k to
        _binomial_row's weights times a z_j^i over d^k, scaled by d^(E - k),
        E the largest k, so the pass lands over d^E; the result is
        normalized once.  rows, when given, holds one dict per component
        from degree k to its weights; it is read and filled, so a caller
        that shifts by the same vector again can keep it.
        """
        w, den, p = self._form
        mask = (1 << w) - 1
        for j, c in enumerate(shift):
            if not (c[0] or c[2]):
                continue
            at = j * w
            degrees = [key >> at & mask for key in p]
            top = max(degrees, default=0)
            if not top:
                continue
            x, y, d = _split(c)
            weights = {} if rows is None else rows[j]
            lifts = [d ** (top - k) for k in range(top + 1)]
            out: dict = {}
            get = out.get
            for key, k, (a, b) in zip(p, degrees, p.values()):
                row = weights.get(k)
                if row is None:
                    row = weights[k] = _binomial_row(x, y, d, k)
                s = lifts[k]
                a, b = a * s, b * s
                key -= k << at
                for u, v in row:
                    r, m = a * u - b * v, a * v + b * u
                    old = get(key)
                    out[key] = (r, m) if old is None else (old[0] + r,
                                                           old[1] + m)
                    key += 1 << at
            p = out
            den *= d ** top
        if p is self._form[2]:
            return self
        return SparsePoly._make(self.arity, w, den, p)

    def affine_subst(self, matrix, shift=None) -> "SparsePoly":
        """Compose with the affine map v -> A v + c, expanded exactly.

        matrix is arity x arity over ExactComplex (row-major nested
        sequence); shift is a length-arity vector, defaulting to zero.
        f(A v + c) is g(A v) for g = f translated by c, so the shift is a
        Taylor shift and only the linear part goes through subst.
        """
        m = self.arity
        if len(matrix) != m or any(len(row) != m for row in matrix):
            raise ArityError(f"affine matrix must be {m}x{m}")
        if shift is not None and len(shift) != m:
            raise ArityError(f"affine shift must have length {m}")
        out = self if shift is None else self.translate(shift)
        rows = [[ExactComplex.coerce(x) for x in row] for row in matrix]
        if all(rows[j][k] == int(j == k) for j in range(m) for k in range(m)):
            return out
        units = [tuple(int(t == k) for t in range(m)) for k in range(m)]
        return out.subst([SparsePoly(m, dict(zip(units, row)))
                          for row in rows])

    def eval_at(self, point: Sequence) -> ExactComplex:
        """Evaluate at a point of exact complex coordinates."""
        if len(point) != self.arity:
            raise ArityError(f"point must have length {self.arity}")
        pt = [ExactComplex.coerce(x) for x in point]
        return sum((prod((x ** e for x, e in zip(pt, exps)), start=c)
                    for exps, c in self.terms()), ExactComplex(0))

    # -- equality, hashing, repr -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = SparsePoly.const(self.arity, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.arity == other.arity and self._form == other._form

    def __hash__(self):
        """A constant hashes as its scalar, which it equals."""
        try:
            return self._hash
        except AttributeError:
            w, den, p = self._form
            h = (hash(self.constant_value()) if self.is_constant()
                 else hash((self.arity, w, den, frozenset(p.items()))))
            _set(self, "_hash", h)
            return h

    def __str__(self):
        from .parsing import poly_to_str
        return poly_to_str(self)

    def __repr__(self):
        return f"SparsePoly({self.arity}, {str(self)!r})"
