"""Transport of a star product along a polynomial symplectomorphism.

A map is supplied with an explicit polynomial inverse; nothing here
inverts anything symbolically.  check_symplecto verifies the declaration:
the two compositions must be the identity on coordinates (which extends
to all polynomials, since substitution is a ring homomorphism) and the
symbolic Jacobian must conjugate the reference form to itself exactly.

Conjugation then carries a star product across the map:

    f *' g = psi_inverse( psi(f) * psi(g) ),   psi(f) = f o inverse

applied to every h-coefficient at once, in one substitution that
fixes h.  Conjugation by any invertible polynomial map preserves
associativity, the unit, and the classical limit, and its
first-order commutator always reproduces the pullback bracket

    {f, g}_pulled = {f o inverse, g o inverse} o forward.

What distinguishes a symplectomorphism is that the pullback bracket is
the reference bracket itself.

verify_transported_dq checks the axioms on the images P = psi(f), Q, R
instead of through the compositions.  Once both coordinate round trips
hold, psi and psi_inverse are inverse ring isomorphisms, so
psi(f *' g) = P * Q, and psi_inverse is injective: an identity holds
after mapping back exactly when it holds on the images.  The first-order
term is compared with i psi({f, g}), which holds exactly when the
pullback bracket is the reference bracket.  A bogus inverse would make
every image check pass, so a map whose round trip fails is refused with
InputError.

A map is immutable, so its round trips are run once, on first use, and
the verdict is kept on the map: every later gate, in check_symplecto,
transported_star or verify_transported_dq, reads it back.
"""

from __future__ import annotations

from . import linalg
from .errors import ArityError, Immutable, InputError, load_json
from .moyal import StarProduct, verify_dq_axioms
from .poisson import PoissonBivector, SymplecticForm, form_from_bivector
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex
from .series import HbarSeries, _lift


class SymplectoMap(Immutable):
    """Polynomial coordinate change with a declared polynomial inverse."""

    __slots__ = ("dim", "forward", "inverse", "degree_bound",
                 "_round_trips")

    def __init__(self, forward, inverse, degree_bound: int):
        fwd = tuple(forward)
        inv = tuple(inverse)
        if not fwd or len(fwd) != len(inv):
            raise InputError("forward and inverse need equal, nonzero length")
        if degree_bound < 1:
            raise InputError("degree bound must be at least 1")
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
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "_round_trips", None)

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
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (dim, bound)):
            raise InputError("dim and degree_bound must be integers")
        for key in ("forward", "inverse"):
            comps = data[key]
            if (not isinstance(comps, list)
                    or not all(isinstance(text, str) for text in comps)):
                raise InputError(f"map {key} must be a list of strings")
            if len(comps) != dim:
                raise InputError(f"map declares dim {dim} but {key} has "
                                 f"{len(comps)} components")
        fwd = [parse_poly(text, dim) for text in data["forward"]]
        inv = [parse_poly(text, dim) for text in data["inverse"]]
        return cls(fwd, inv, bound)

    @classmethod
    def from_file(cls, path) -> "SymplectoMap":
        return cls.from_json(load_json(path))

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

    def round_trips(self) -> tuple:
        """(name, ok, detail) for each coordinate's two compositions,
        computed on the first call and kept on the map."""
        if self._round_trips is None:
            fwd = list(self.forward)
            inv = list(self.inverse)
            out = []
            for a in range(self.dim):
                z = SparsePoly.variable(self.dim, a + 1)
                both = (self.forward[a].subst(inv), self.inverse[a].subst(fwd))
                ok = both[0] == z and both[1] == z
                out.append((f"coordinate {a + 1} round trip", ok,
                            "" if ok else f"forward o inverse gave {both[0]}, "
                            f"inverse o forward gave {both[1]}"))
            object.__setattr__(self, "_round_trips", tuple(out))
        return self._round_trips

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
    for name, ok, detail in m.round_trips():
        rep.add(name, ok, detail)

    residual = linalg.congruence_residual(linalg.transpose(m.jacobian()),
                                          form.matrix)
    bad = [f"({c + 1},{d + 1}): {entry}"
           for c, row in enumerate(residual) for d, entry in enumerate(row)
           if not entry.is_zero()]
    rep.add("Jacobian conjugates the form to itself", not bad,
            "" if not bad else "residual entries " + "; ".join(bad))
    return rep


def _compose_coeffs(m: SymplectoMap, F: HbarSeries, gs) -> HbarSeries:
    if F.arity != m.dim:
        raise ArityError(f"series arity {F.arity} does not match map "
                         f"dimension {m.dim}")
    h = SparsePoly.variable(m.dim + 1, m.dim + 1)
    return HbarSeries._of(F.packed.subst([_lift(g) for g in gs] + [h]),
                          F.order)


def psi_map(m: SymplectoMap, F: HbarSeries) -> HbarSeries:
    """Compose every coefficient with the inverse map."""
    return _compose_coeffs(m, F, list(m.inverse))


def psi_inverse(m: SymplectoMap, F: HbarSeries) -> HbarSeries:
    """Compose every coefficient with the forward map."""
    return _compose_coeffs(m, F, list(m.forward))


def pullback_bracket(m: SymplectoMap, bivector: PoissonBivector,
                     f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """{f o inverse, g o inverse} o forward."""
    inv = list(m.inverse)
    fwd = list(m.forward)
    return bivector.bracket(f.subst(inv), g.subst(inv)).subst(fwd)


def _rejected(name: str, detail: str) -> InputError:
    """The refusal of a map whose check name failed with detail."""
    return InputError(f"map rejected: {name} failed ({detail})")


def transported_star(m: SymplectoMap, sp: StarProduct, f: SparsePoly,
                     g: SparsePoly, order: int | None = None,
                     verify: bool = True) -> HbarSeries:
    """psi_inverse(psi(f) * psi(g)), after checking the map if asked."""
    if verify:
        gate = check_symplecto(m, form_from_bivector(sp.bivector))
        if not gate.passed:
            first = gate.failures()[0]
            raise _rejected(first.name, first.detail)
    if order is None:
        order = sp.order
    F = HbarSeries.from_poly(f, order)
    G = HbarSeries.from_poly(g, order)
    return psi_inverse(m, sp.star_series(psi_map(m, F), psi_map(m, G)))


def verify_transported_dq(m: SymplectoMap, sp: StarProduct, triples,
                          order: int | None = None) -> Report:
    """Axiom suite for the transported product, run on the psi-images.

    Raises InputError when the declared inverse does not round-trip.
    """
    if order is None:
        order = sp.order
    for name, ok, detail in m.round_trips():
        if not ok:
            raise _rejected(name, detail)
    inv = list(m.inverse)
    images = []
    carried = {}
    for f, g, h in triples:
        P, Q, R = (p.subst(inv) for p in (f, g, h))
        images.append((P, Q, R))
        carried[P, Q] = sp.bracket(f, g).subst(inv)
    return verify_dq_axioms(sp.star_series, lambda P, Q: carried[P, Q],
                            images, order, m.dim,
                            title="transported deformation quantization "
                                  "axioms")
