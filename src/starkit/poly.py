"""Sparse multivariate polynomials with exact Gaussian rational coefficients.

A polynomial in m variables z1..zm is a finite map from exponent vectors
(length-m tuples of nonnegative ints) to nonzero ``ExactComplex``
coefficients.  Arithmetic on the term maps is delegated to
``starkit._kernel``; this module owns validation, ordering, and the
public object API.

Variable indices in the public API are 1-based, matching the z1..zm
naming of the text form.  Term order is graded lexicographic with
z1 > z2 > ... > zm, highest terms first.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Sequence

from . import _kernel as K
from .errors import ArityError, Immutable
from .scalars import ExactComplex


def grlex_key(exps):
    return (sum(exps), exps)


def _binomial_weights(c, k: int) -> list:
    """[C(k, i) c^(k-i) for i in 0..k] as kernel coefficients."""
    powers = [K.CONE]
    for _ in range(k):
        powers.append(K.cmul(powers[-1], c))
    row = []
    for i in range(k + 1):
        rn, rd, jn, jd = powers[k - i]
        b = comb(k, i)
        row.append(K.qnorm(rn * b, rd) + K.qnorm(jn * b, jd))
    return row


def _check_arity(arity: int) -> None:
    if arity < 1:
        raise ArityError(f"arity must be >= 1, got {arity}")


def _coerce_coeff(value):
    if isinstance(value, (ExactComplex, int, Fraction)):
        return ExactComplex.coerce(value).to_kernel()
    raise ArityError(f"cannot use {value!r} as a polynomial coefficient")


class SparsePoly(Immutable):
    """Immutable sparse polynomial over the Gaussian rationals."""

    __slots__ = ("arity", "_terms", "_hash")

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
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", {
            e: c for e, c in raw.items() if c[0] != 0 or c[2] != 0})
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "SparsePoly":
        _check_arity(arity)
        return cls._from_raw(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "SparsePoly":
        _check_arity(arity)
        c = _coerce_coeff(value)
        if c[0] == 0 and c[2] == 0:
            return cls._from_raw(arity, {})
        return cls._from_raw(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity: int, index: int) -> "SparsePoly":
        """The monomial z_index (1-based index)."""
        if not 1 <= index <= arity:
            raise ArityError(f"variable index {index} out of range 1..{arity}")
        exps = tuple(1 if k == index - 1 else 0 for k in range(arity))
        return cls._from_raw(arity, {exps: K.CONE})

    @classmethod
    def _from_raw(cls, arity: int, raw: dict) -> "SparsePoly":
        """A polynomial on a term map the caller vouches for: normalized
        nonzero kernel coefficients on exponent tuples of length arity.
        Nothing is validated or copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "arity", arity)
        object.__setattr__(out, "_terms", raw)
        object.__setattr__(out, "_hash", None)
        return out

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and (0,) * self.arity in self._terms)

    def constant_value(self) -> ExactComplex:
        """The coefficient of the constant monomial."""
        return ExactComplex.from_kernel(self._terms.get((0,) * self.arity, K.CZERO))

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def coefficient(self, exps: Sequence[int]) -> ExactComplex:
        return ExactComplex.from_kernel(self._terms.get(tuple(exps), K.CZERO))

    def terms(self) -> Iterator[tuple[tuple[int, ...], ExactComplex]]:
        """Terms in descending graded lexicographic order."""
        for exps in sorted(self._terms, key=grlex_key, reverse=True):
            yield exps, ExactComplex.from_kernel(self._terms[exps])

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def _check_same_arity(self, other: "SparsePoly"):
        if self.arity != other.arity:
            raise ArityError(
                f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.arity, other)
        self._check_same_arity(other)
        return SparsePoly._from_raw(self.arity, K.madd(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.arity, other)
        self._check_same_arity(other)
        return SparsePoly._from_raw(self.arity, K.msub(self._terms, other._terms))

    def __rsub__(self, other):
        return SparsePoly.const(self.arity, other) - self

    def __neg__(self):
        return SparsePoly._from_raw(self.arity, K.mneg(self._terms))

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            self._check_same_arity(other)
            return SparsePoly._from_raw(self.arity, K.mmul(self._terms, other._terms))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, value) -> "SparsePoly":
        return SparsePoly._from_raw(self.arity,
                                    K.mscale(self._terms, _coerce_coeff(value)))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ArityError("polynomial exponents must be nonnegative ints")
        out = SparsePoly.const(self.arity, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: int) -> "SparsePoly":
        """Exact partial derivative with respect to z_var (1-based)."""
        if not 1 <= var <= self.arity:
            raise ArityError(f"variable index {var} out of range 1..{self.arity}")
        (p,), den, width = K.lift(self._terms)
        return SparsePoly._from_raw(
            self.arity, K.lower(K.mdiff(p, var - 1, width), den, self.arity,
                                width))

    def subst(self, gs: Sequence["SparsePoly"]) -> "SparsePoly":
        """Replace variable j by gs[j-1], fully expanded.

        gs must have one entry per variable of self; all entries share one
        arity, which becomes the arity of the result.

        The sum runs in integers: each g_j is lifted once, to numerators
        over its denominator D_j, with bit fields wide enough for the
        largest exponent of the result, and its powers g_j^k stay packed
        over D_j^k.  A term c z^e of self, with c lifted over D, becomes
        a product of powers over D prod_j D_j^e_j; scaling it by the
        missing powers D_j^(E_j - e_j), with E_j the largest e_j, puts
        every term over the one denominator D prod_j D_j^E_j, so the
        terms add in one packed map that is normalized once.
        """
        if len(gs) != self.arity:
            raise ArityError(
                f"substitution needs {self.arity} polynomials, got {len(gs)}")
        new_arity = gs[0].arity
        for g in gs:
            if g.arity != new_arity:
                raise ArityError("substitution polynomials disagree on arity")
        tops = [max(e[j] for e in self._terms) if self._terms else 0
                for j in range(self.arity)]
        if not any(tops):
            # self is zero or a constant: no g_j is used
            return SparsePoly._from_raw(
                new_arity, {(0,) * new_arity: c for c in self._terms.values()})
        need = max((sum(e[j] * max(map(max, g._terms), default=0)
                        for j, g in enumerate(gs))
                    for e in self._terms), default=0).bit_length()
        # lift keeps the order of self's terms, and its own width keeps
        # their keys apart, so the numerators pair up with the exponents;
        # the powers' fields are the ones lift rounds need up to.  need
        # bounds only the g_j of variables that occur in self, so the
        # others are never lifted: their row is the unit alone
        (terms,), den, _ = K.lift(self._terms)
        unit = {0: (1, 0)}
        powers = []
        scales = []
        for g, top in zip(gs, tops):
            if not top:
                powers.append([unit])
                scales.append([1])
                continue
            (p,), d, width = K.lift(g._terms, width=need)
            row = [unit, p]
            while len(row) <= top:
                row.append(K.maddmul({}, row[-1], p, 1, 0))
            powers.append(row)
            scales.append([d ** (top - k) for k in range(top + 1)])
            den *= d ** top
        acc: dict = {}
        for exps, (a, b) in zip(self._terms, terms.values()):
            factors = [powers[j][e] for j, e in enumerate(exps) if e]
            last = factors.pop() if factors else unit
            prod = factors.pop() if factors else unit
            for p in factors:
                prod = K.maddmul({}, prod, p, 1, 0)
            s = 1
            for j, e in enumerate(exps):
                s *= scales[j][e]
            K.maddmul(acc, prod, last, a * s, b * s)
        return SparsePoly._from_raw(new_arity,
                                    K.lower(acc, den, new_arity, width))

    def translate(self, shift) -> "SparsePoly":
        """f(z + shift), expanded exactly by the binomial theorem."""
        if len(shift) != self.arity:
            raise ArityError(f"shift must have length {self.arity}")
        return self._translate([_coerce_coeff(c) for c in shift])

    def _translate(self, shift, rows=None) -> "SparsePoly":
        """translate() on a shift already given as kernel coefficients.

        One pass per nonzero component j sends a z_j^k to
        sum_i C(k, i) c^(k-i) a z_j^i; the weights C(k, i) c^(k-i) are
        built once per pass and degree, and cancelled terms are dropped.
        rows, when given, holds one dict per component from degree k to
        its weights; it is read and filled, so a caller that shifts by
        the same vector again can keep it.
        """
        terms = self._terms
        for j, c in enumerate(shift):
            if (c[0] == 0 and c[2] == 0) or not terms:
                continue
            weights = {} if rows is None else rows[j]
            out: dict = {}
            for exps, a in terms.items():
                k = exps[j]
                row = weights.get(k)
                if row is None:
                    row = weights[k] = _binomial_weights(c, k)
                head, tail = exps[:j], exps[j + 1:]
                for i, w in enumerate(row):
                    e = head + (i,) + tail
                    p = K.cmul(a, w) if i < k else a
                    old = out.get(e)
                    out[e] = p if old is None else K.cadd(old, p)
            terms = {e: a for e, a in out.items() if a[0] != 0 or a[2] != 0}
        if terms is self._terms:
            return self
        return SparsePoly._from_raw(self.arity, terms)

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
        rows = [[_coerce_coeff(x) for x in row] for row in matrix]
        if all(rows[j][k] == (K.CONE if j == k else K.CZERO)
               for j in range(m) for k in range(m)):
            return out
        gs = []
        for row in rows:
            raw = {}
            for k, c in enumerate(row):
                if c[0] != 0 or c[2] != 0:
                    raw[tuple(1 if t == k else 0 for t in range(m))] = c
            gs.append(SparsePoly._from_raw(m, raw))
        return out.subst(gs)

    def eval_at(self, point: Sequence) -> ExactComplex:
        """Evaluate at a point of exact complex coordinates."""
        if len(point) != self.arity:
            raise ArityError(f"point must have length {self.arity}")
        pt = [ExactComplex.coerce(x) for x in point]
        total = ExactComplex(0)
        for exps, coeff in self._terms.items():
            v = ExactComplex.from_kernel(coeff)
            for x, e in zip(pt, exps):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    # -- equality, hashing, repr -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = SparsePoly.const(self.arity, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.arity, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        from .parsing import poly_to_str
        return poly_to_str(self)

    def __repr__(self):
        return f"SparsePoly({self.arity}, {str(self)!r})"
