"""Transport of a star product along a polynomial symplectomorphism.

A map is supplied with an explicit polynomial inverse; nothing here
inverts anything symbolically.  check_symplecto verifies the declaration:
the two compositions must be the identity on coordinates (which extends
to all polynomials, since substitution is a ring homomorphism) and the
symbolic Jacobian must conjugate the reference form to itself exactly.

Conjugation then carries a star product across the map:

    f *' g = psi_inverse( psi(f) * psi(g) ),   psi(f) = f o inverse

applied per h-coefficient.  Conjugation by any invertible polynomial map
preserves associativity, the unit, and the classical limit, and its
first-order commutator always reproduces the pullback bracket

    {f, g}_pulled = {f o inverse, g o inverse} o forward.

What distinguishes a symplectomorphism is that the pullback bracket is
the reference bracket itself; the axiom-4 check below therefore requires
both equalities, so a non-symplectic map forced past the precondition
still fails the first-order axiom rather than passing vacuously.
"""

from __future__ import annotations

import json

from .errors import ArityError, InputError
from .moyal import StarProduct
from .poisson import PoissonBivector, SymplecticForm, form_from_bivector
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex
from .series import HbarSeries


class SymplectoMap:
    """Polynomial coordinate change with a declared polynomial inverse."""

    __slots__ = ("dim", "forward", "inverse", "degree_bound")

    def __init__(self, forward, inverse, degree_bound: int):
        fwd = tuple(forward)
        inv = tuple(inverse)
        if not fwd or len(fwd) != len(inv):
            raise InputError("forward and inverse need equal, nonzero length")
        dim = len(fwd)
        for name, comps in (("forward", fwd), ("inverse", inv)):
            for a, comp in enumerate(comps):
                if not isinstance(comp, SparsePoly) or comp.arity != dim:
                    raise InputError(
                        f"{name} component {a} must be a polynomial in "
                        f"{dim} variables")
                if comp.degree() > degree_bound:
                    raise InputError(
                        f"{name} component {a} exceeds the degree bound "
                        f"{degree_bound}")
        if degree_bound < 1:
            raise InputError("degree bound must be at least 1")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "degree_bound", degree_bound)

    def __setattr__(self, name, value):
        raise AttributeError("SymplectoMap is immutable")

    @classmethod
    def identity(cls, dim: int) -> "SymplectoMap":
        coords = tuple(SparsePoly.variable(dim, a + 1) for a in range(dim))
        return cls(coords, coords, 1)

    @classmethod
    def translation(cls, shifts) -> "SymplectoMap":
        dim = len(shifts)
        fwd = []
        inv = []
        for a in range(dim):
            z = SparsePoly.variable(dim, a + 1)
            c = ExactComplex.coerce(shifts[a])
            fwd.append(z + SparsePoly.const(dim, c))
            inv.append(z - SparsePoly.const(dim, c))
        return cls(fwd, inv, 1)

    @classmethod
    def from_json(cls, data) -> "SymplectoMap":
        from .parsing import parse_poly
        if not isinstance(data, dict):
            raise InputError("map data must be a JSON object")
        for key in ("dim", "degree_bound", "forward", "inverse"):
            if key not in data:
                raise InputError(f"map data needs \"{key}\"")
        dim = data["dim"]
        bound = data["degree_bound"]
        if not isinstance(dim, int) or not isinstance(bound, int):
            raise InputError("dim and degree_bound must be integers")
        for key in ("forward", "inverse"):
            comps = data[key]
            if (not isinstance(comps, list)
                    or not all(isinstance(text, str) for text in comps)):
                raise InputError(f"map {key} must be a list of strings")
        fwd = [parse_poly(text, dim) for text in data["forward"]]
        inv = [parse_poly(text, dim) for text in data["inverse"]]
        return cls(fwd, inv, bound)

    @classmethod
    def from_file(cls, path) -> "SymplectoMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "degree_bound": self.degree_bound,
            "forward": [str(p) for p in self.forward],
            "inverse": [str(p) for p in self.inverse],
        }

    def compose(self, other: "SymplectoMap") -> "SymplectoMap":
        """self after other."""
        if self.dim != other.dim:
            raise ArityError("map dimensions differ")
        fwd = [p.subst(list(other.forward)) for p in self.forward]
        inv = [p.subst(list(self.inverse)) for p in other.inverse]
        return SymplectoMap(fwd, inv,
                            max(1, self.degree_bound * other.degree_bound))

    def jacobian(self):
        """J[a][c] = d(forward_a)/d(z_c), a matrix of polynomials."""
        return [[comp.diff(c + 1) for c in range(self.dim)]
                for comp in self.forward]


def check_symplecto(m: SymplectoMap, form: SymplecticForm) -> Report:
    """Verify the declared inverse and the exact form-preservation."""
    if form.dim != m.dim:
        raise ArityError(
            f"form dimension {form.dim} does not match map dimension {m.dim}")
    rep = Report("symplectomorphism check")
    dim = m.dim
    fwd = list(m.forward)
    inv = list(m.inverse)
    for a in range(dim):
        z = SparsePoly.variable(dim, a + 1)
        both = (m.forward[a].subst(inv), m.inverse[a].subst(fwd))
        ok = both[0] == z and both[1] == z
        rep.add(f"coordinate {a + 1} round trip", ok,
                "" if ok else f"forward o inverse gave {both[0]}, "
                f"inverse o forward gave {both[1]}")

    jac = m.jacobian()
    theta = form.matrix
    bad = []
    for c in range(dim):
        for d in range(dim):
            entry = SparsePoly.zero(dim)
            for a in range(dim):
                for b in range(dim):
                    if theta[a][b].is_zero():
                        continue
                    entry = entry + (jac[a][c] * jac[b][d]).scale(theta[a][b])
            entry = entry - SparsePoly.const(dim, theta[c][d])
            if not entry.is_zero():
                bad.append(f"({c + 1},{d + 1}): {entry}")
    rep.add("Jacobian conjugates the form to itself", not bad,
            "" if not bad else "residual entries " + "; ".join(bad))
    return rep


def psi_map(m: SymplectoMap, F: HbarSeries) -> HbarSeries:
    """Compose every coefficient with the inverse map."""
    if F.arity != m.dim:
        raise ArityError(f"series arity {F.arity} does not match map "
                         f"dimension {m.dim}")
    inv = list(m.inverse)
    return F.map_coeffs(lambda p: p.subst(inv))


def psi_inverse(m: SymplectoMap, F: HbarSeries) -> HbarSeries:
    """Compose every coefficient with the forward map."""
    if F.arity != m.dim:
        raise ArityError(f"series arity {F.arity} does not match map "
                         f"dimension {m.dim}")
    fwd = list(m.forward)
    return F.map_coeffs(lambda p: p.subst(fwd))


def pullback_bracket(m: SymplectoMap, bivector: PoissonBivector,
                     f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """{f o inverse, g o inverse} o forward."""
    inv = list(m.inverse)
    fwd = list(m.forward)
    return bivector.bracket(f.subst(inv), g.subst(inv)).subst(fwd)


def transported_star(m: SymplectoMap, sp: StarProduct, f: SparsePoly,
                     g: SparsePoly, order: int | None = None,
                     verify: bool = True) -> HbarSeries:
    """psi_inverse(psi(f) * psi(g)), after checking the map if asked."""
    if verify:
        gate = check_symplecto(m, form_from_bivector(sp.bivector))
        if not gate.passed:
            first = gate.failures()[0]
            raise InputError(
                f"map rejected: {first.name} failed ({first.detail})")
    if order is None:
        order = sp.order
    F = HbarSeries.from_poly(f, order)
    G = HbarSeries.from_poly(g, order)
    return psi_inverse(m, sp.star_series(psi_map(m, F), psi_map(m, G)))


def verify_transported_dq(m: SymplectoMap, sp: StarProduct, triples,
                          order: int | None = None) -> Report:
    """Axiom suite for the transported product.

    Associativity, unit, and classical limit are checked as usual.  The
    first-order check requires the commutator coefficient to equal i times
    the pullback bracket AND the pullback bracket to equal the reference
    bracket; the second leg is what a non-symplectic map breaks.
    """
    if order is None:
        order = sp.order
    if order < 1:
        raise InputError("axiom checks need order at least 1")
    dim = m.dim

    def star_fn(F, G):
        return psi_inverse(m, sp.star_series(psi_map(m, F), psi_map(m, G)))

    rep = Report("transported deformation quantization axioms")
    one = HbarSeries.from_poly(SparsePoly.const(dim, 1), order)
    ii = ExactComplex(0, 1)
    for idx, (f, g, h) in enumerate(triples):
        F = HbarSeries.from_poly(f, order)
        G = HbarSeries.from_poly(g, order)
        H = HbarSeries.from_poly(h, order)
        fg = star_fn(F, G)
        left = star_fn(fg, H)
        right = star_fn(F, star_fn(G, H))
        rep.add(f"associativity[{idx}]", left == right,
                "" if left == right else f"difference {left - right}")
        unit_ok = star_fn(one, F) == F and star_fn(F, one) == F
        rep.add(f"unit[{idx}]", unit_ok)
        rep.add(f"classical-limit[{idx}]", fg[0] == f * g)
        comm1 = (fg - star_fn(G, F))[1]
        pulled = pullback_bracket(m, sp.bivector, f, g)
        reference = sp.bracket(f, g)
        conj_ok = comm1 == pulled.scale(ii)
        sympl_ok = pulled == reference
        detail = ""
        if not conj_ok:
            detail = f"commutator term {comm1}, pullback bracket {pulled}"
        elif not sympl_ok:
            detail = ("pullback bracket differs from the reference bracket "
                      f"by {pulled - reference}; map does not preserve "
                      "the form")
        rep.add(f"first-order-bracket[{idx}]", conj_ok and sympl_ok, detail)
    return rep
