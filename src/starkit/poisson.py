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

and {z1, z2} = -1 on the standard pair.  For constant pi the bracket is
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


def _check_antisymmetric(mat, what: str) -> None:
    n = len(mat)
    for a in range(n):
        for b in range(n):
            if mat[a][b] != -mat[b][a]:
                raise InputError(f"{what} must be antisymmetric")


class SymplecticForm(Immutable):
    """Constant-coefficient symplectic form on dimension dim."""

    __slots__ = ("dim", "matrix", "inverse")

    def __init__(self, matrix):
        mat = linalg.as_matrix(matrix)
        _check_antisymmetric(mat, "a symplectic form")
        if len(mat) % 2 != 0:
            raise InputError("a symplectic form needs even dimension")
        inverse = linalg.mat_inv(mat)  # rejects degenerate forms
        object.__setattr__(self, "dim", len(mat))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "inverse", inverse)

    @classmethod
    def standard(cls, pairs: int) -> "SymplecticForm":
        """Block sum of dz_{2k} ^ dz_{2k-1} over k = 1..pairs."""
        if pairs < 1:
            raise InputError("need at least one coordinate pair")
        n = 2 * pairs
        rows = [[0] * n for _ in range(n)]
        for k in range(pairs):
            a = 2 * k
            rows[a][a + 1] = -1
            rows[a + 1][a] = 1
        return cls(rows)

    def __eq__(self, other):
        return (isinstance(other, SymplecticForm)
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"SymplecticForm({[[str(x) for x in row] for row in self.matrix]})"


class PoissonBivector(Immutable):
    """Constant antisymmetric bivector; evaluates the bracket."""

    __slots__ = ("dim", "matrix", "_pairs", "_den")

    def __init__(self, matrix):
        mat = linalg.as_matrix(matrix)
        _check_antisymmetric(mat, "a bivector")
        object.__setattr__(self, "dim", len(mat))
        object.__setattr__(self, "matrix", mat)
        # each nonzero entry as (a, b, numerator) over one denominator
        entries = [(a, b, entry.to_kernel())
                   for a, row in enumerate(mat)
                   for b, entry in enumerate(row)
                   if not entry.is_zero()]
        den = lcm(*{d for _, _, c in entries for d in (c[1], c[3])})
        object.__setattr__(self, "_pairs", tuple(
            (a, b, rn * (den // rd), jn * (den // jd))
            for a, b, (rn, rd, jn, jd) in entries))
        object.__setattr__(self, "_den", den)

    def bracket(self, f: SparsePoly, g: SparsePoly) -> SparsePoly:
        """{f, g} = sum pi_ab (df/dz_a)(dg/dz_b), over packed maps: f and g
        are lifted once, differentiated only in the variables they hold
        that some entry needs, summed in integers over Df Dg D_pi and
        normalized once."""
        if f.arity != self.dim or g.arity != self.dim:
            raise ArityError(
                f"bracket needs arity {self.dim}, got {f.arity} and {g.arity}")
        (lf, lg), den, width = K.lift(f._terms, g._terms)
        # a field of the OR of the keys is nonzero exactly when some term
        # has that variable; the other derivatives are zero
        masks = K.fields(self.dim, width)
        ora = reduce(or_, lf, 0)
        orb = reduce(or_, lg, 0)
        df = {a: K.mdiff(lf, a, width) for a in {p[0] for p in self._pairs}
              if ora & masks[a]}
        dg = {b: K.mdiff(lg, b, width) for b in {p[1] for p in self._pairs}
              if orb & masks[b]}
        acc: dict = {}
        for a, b, wr, wi in self._pairs:
            if a in df and b in dg:
                K.maddmul(acc, df[a], dg[b], wr, wi)
        return SparsePoly._from_raw(
            self.dim, K.lower(acc, den * self._den, self.dim, width))

    def __eq__(self, other):
        return (isinstance(other, PoissonBivector)
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"PoissonBivector({[[str(x) for x in row] for row in self.matrix]})"


def bivector_from_form(form: SymplecticForm) -> PoissonBivector:
    """pi = transpose(T^-1) for the form's matrix T."""
    return PoissonBivector(linalg.transpose(form.inverse))


def form_from_bivector(biv: PoissonBivector) -> SymplecticForm:
    """Inverse of bivector_from_form: T = (transpose(pi))^-1."""
    return SymplecticForm(linalg.mat_inv(linalg.transpose(biv.matrix)))


def standard_bivector(pairs: int) -> PoissonBivector:
    return bivector_from_form(SymplecticForm.standard(pairs))


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
