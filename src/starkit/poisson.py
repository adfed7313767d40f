"""Constant symplectic forms and their Poisson brackets.

A symplectic form on affine 2n-space is stored as its constant coefficient
matrix T, antisymmetric and invertible, meaning the two-form

    omega = sum over a < b of T[a][b] dz_a ^ dz_b.

The standard block on one (base, fiber) pair is dz_2 ^ dz_1, so T is
[[0, -1], [1, 0]] there.  The induced bivector is the closed form

    pi = transpose(T^-1),

which is the pairing of coordinate gradients through the form: the
vector field v_a with T v_a = e_a is column a of T^-1, and
v_a . (T v_b) = v_a . e_b = (T^-1)_ba.  The bracket is then

    {f, g} = sum over a, b of pi_ab (df/dz_a) (dg/dz_b)

and {z1, z2} = -1 on the standard pair.  Each standard block squares to
-1, so T^-1 = -T and transpose(T^-1) = T: the standard form's bivector is
its own matrix, built as such.  For constant pi the bracket is
bilinear, antisymmetric, a derivation in each slot, and satisfies Jacobi;
the residual helpers below return the exact polynomial that must vanish.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import or_

from . import _kernel as K
from . import linalg
from .errors import ArityError, Immutable, InputError
from .poly import SparsePoly
from .scalars import ExactComplex


class _Constant(Immutable):
    """Base of the constant structures: an antisymmetric square matrix of
    ExactComplex, by which they compare, hash and print."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        mat = linalg.as_matrix(matrix)
        if any(mat[a][b] != -mat[b][a]
               for a in range(len(mat)) for b in range(a, len(mat))):
            raise InputError(f"{self._what} must be antisymmetric")
        object.__setattr__(self, "dim", len(mat))
        object.__setattr__(self, "matrix", mat)

    def __eq__(self, other):
        return type(other) is type(self) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        rows = [[str(x) for x in row] for row in self.matrix]
        return f"{type(self).__name__}({rows})"


def _standard_rows(pairs: int) -> list:
    """The block sum of [[0, -1], [1, 0]] over pairs blocks."""
    if pairs < 1:
        raise InputError("need at least one coordinate pair")
    rows = [[0] * (2 * pairs) for _ in range(2 * pairs)]
    for a in range(0, 2 * pairs, 2):
        rows[a][a + 1], rows[a + 1][a] = -1, 1
    return rows


class SymplecticForm(_Constant):
    """Constant-coefficient symplectic form on dimension dim."""

    __slots__ = ("inverse",)
    _what = "a symplectic form"

    def __init__(self, matrix):
        super().__init__(matrix)
        if self.dim % 2 != 0:
            raise InputError("a symplectic form needs even dimension")
        # rejects degenerate forms
        object.__setattr__(self, "inverse", linalg.mat_inv(self.matrix))

    @classmethod
    def standard(cls, pairs: int) -> "SymplecticForm":
        """Block sum of dz_{2k} ^ dz_{2k-1} over k = 1..pairs."""
        return cls(_standard_rows(pairs))


class PoissonBivector(_Constant):
    """Constant antisymmetric bivector; evaluates the bracket."""

    __slots__ = ("_pairs", "_den", "_rows", "_cols")
    _what = "a bivector"

    def __init__(self, matrix):
        super().__init__(matrix)
        # each nonzero entry as (a, b, numerator) over one denominator
        entries = [(a, b, entry.to_kernel())
                   for a, row in enumerate(self.matrix)
                   for b, entry in enumerate(row)
                   if not entry.is_zero()]
        den = lcm(*{d for _, _, c in entries for d in (c[1], c[3])})
        object.__setattr__(self, "_pairs", tuple(
            (a, b, rn * (den // rd), jn * (den // jd))
            for a, b, (rn, rd, jn, jd) in entries))
        object.__setattr__(self, "_den", den)
        # the variables the bracket differentiates f and g in
        object.__setattr__(self, "_rows",
                           tuple(sorted({a for a, _, _ in entries})))
        object.__setattr__(self, "_cols",
                           tuple(sorted({b for _, b, _ in entries})))

    def bracket(self, f: SparsePoly, g: SparsePoly) -> SparsePoly:
        """{f, g} = sum pi_ab (df/dz_a)(dg/dz_b) on the packed forms, in the
        fields of f g: differentiated only in the variables they hold that
        some entry needs, summed over Df Dg D_pi, normalized once."""
        if f.arity != self.dim or g.arity != self.dim:
            raise ArityError(
                f"bracket needs arity {self.dim}, got {f.arity} and {g.arity}")
        (wf, _, pf), (wg, _, pg) = f._form, g._form
        width = K.product_width(pf, wf, pg, wg, self.dim)
        lf, lg = f._at(width), g._at(width)
        # a field of the OR of the keys is nonzero exactly when some term
        # has that variable; the other derivatives are zero
        masks = K.fields(self.dim, width)
        ora = reduce(or_, lf, 0)
        orb = reduce(or_, lg, 0)
        df = {a: K.mdiff(lf, a, width) for a in self._rows if ora & masks[a]}
        dg = {b: K.mdiff(lg, b, width) for b in self._cols if orb & masks[b]}
        acc: dict = {}
        for a, b, wr, wi in self._pairs:
            if a in df and b in dg:
                K.maddmul(acc, df[a], dg[b], wr, wi)
        return SparsePoly._make(self.dim, width, f._form[1] * g._form[1]
                                * self._den, acc)


def bivector_from_form(form: SymplecticForm) -> PoissonBivector:
    """pi = transpose(T^-1) for the form's matrix T."""
    return PoissonBivector(linalg.transpose(form.inverse))


def form_from_bivector(biv: PoissonBivector) -> SymplecticForm:
    """Inverse of bivector_from_form: T = (transpose(pi))^-1."""
    return SymplecticForm(linalg.mat_inv(linalg.transpose(biv.matrix)))


def standard_bivector(pairs: int) -> PoissonBivector:
    """The standard form's bivector: transpose(T^-1) = T for each block."""
    return PoissonBivector(_standard_rows(pairs))


# -- axiom residuals (exact polynomials that must vanish) --------------------


def antisymmetry_residual(biv, f, g) -> SparsePoly:
    return biv.bracket(f, g) + biv.bracket(g, f)


def leibniz_residual(biv, f, g, h) -> SparsePoly:
    return biv.bracket(f, g * h) - biv.bracket(f, g) * h - g * biv.bracket(f, h)


def jacobi_residual(biv, f, g, h) -> SparsePoly:
    return (biv.bracket(f, biv.bracket(g, h))
            + biv.bracket(g, biv.bracket(h, f))
            + biv.bracket(h, biv.bracket(f, g)))


def bilinearity_residual(biv, f, g, h, c) -> SparsePoly:
    """{f + c g, h} - {f, h} - c {g, h} for a scalar c."""
    c = ExactComplex.coerce(c)
    return (biv.bracket(f + g.scale(c), h)
            - biv.bracket(f, h)
            - biv.bracket(g, h).scale(c))
