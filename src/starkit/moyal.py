"""Star products for constant bivectors, with axiom verifiers.

The product is the exponential series

    f * g = sum over k >= 0 of  h^k (i/2)^k / k!  B_k(f, g)

where B_k applies the bivector k times:

    B_k(f, g) = sum over index tuples a, b of
                pi[a_1][b_1] ... pi[a_k][b_k]
                (d^k f / dz_a1..dz_ak) (d^k g / dz_b1..dz_bk).

B_0 is the plain product and B_1 the Poisson bracket.  For polynomial
inputs B_k vanishes once k exceeds the degree of either factor, so every
truncation below is exact, not an approximation.

All the B_k are evaluated together by one depth-first walk over the
nonzero entries of pi, picked in nondecreasing index order so that each
multiset of k entries is met once.  A multiset with multiplicities m_p
stands for k! / prod(m_p!) ordered index tuples sharing one derivative
pair, so its h^k weight is prod(s_p^m_p) / prod(m_p!), where
s_p = (i/2) pi_p is the step of entry p.  Each step differentiates its
parent's two derivatives once more, and a branch ends as soon as either
is zero, since every further derivative of zero is zero.  A node reads
which variables its two derivatives hold from the OR of their packed
keys, one support mask each, and passes over every entry whose first
variable is missing from the one or whose second is missing from the
other, without differentiating: on a block bivector of a product space
a node's terms touch few copies, so most entries are passed over.  A
derivative holds a subset of its parent's variables, so only the root
tests every entry; a child tests only the entries its parent found
useful, from the one it picked onward.

The walk runs on the polynomials' packed numerators (``starkit._kernel``),
and one walk serves a whole series product, sum_j h^j f_j times
sum_k h^k g_k: each factor is its series' packed form (``starkit.series``),
where h is the last variable, so a product adds h-degrees as it adds
exponents.  Both are read in fields that hold the largest exponent of f
plus that of g, over their denominators Df and Dg.  The steps share one
denominator Ds, twice the bivector's own.  A branch carries the product
of its steps' numerators and the multinomial count k! / prod(m_p!),
which picking entry p for the m-th time at depth k turns into
count * (k + 1) // m, an exact division.  So every term the walk adds at
depth k sits over the one denominator Df Dg Ds^k k!, and depth 0 is the
plain product.  A term of h-degree j at depth k lands on h^(j+k).  Each
branch drops the derivative terms whose h-degree can no longer fit below
the order, so a deep branch does not carry them; when the walk has
finished, each depth k is scaled by Ds^(t-k) t! / k! to the denominator
of the deepest, t, and shifted by k in h's field into one map, what lies
past the order dropped.  With h-terms the depths meet, and the map
is normalized once; without, its content is read the deepest depth
first, until it divides a depth's scale and so every shallower one, and
divided out as the terms move.

On two or more copies of one 2 x 2 block on the pairs (z_2i-1, z_2i),
as on a product space, distinct copies star-commute: for one-body
f = sum_i f_i and g = sum_i g_i, each term in at most copy i,

    f * g = f g + sum over copies i of (f_i * g_i - f_i g_i).

So such factors, as power sums sum_i phi(zeta_i, lambda_i), take the
plain product once, plus for each copy where one has the base variable
and the other the fiber the one-pair walk of their copy parts less
their plain product, its keys shifted into the copy; h's field rides
along in the copy parts.  Equal copy parts are multiplied once per
call.  A scan that stops at the first term in two copies sends all else
to the walk.
"""

from __future__ import annotations

from functools import reduce
from math import factorial, gcd, lcm
from operator import or_

from . import _kernel as K
from . import linalg
from .errors import ArityError, Immutable, InputError
from .poisson import PoissonBivector, SymplecticForm, bivector_from_form
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex
from .series import HbarSeries, _cut


def _support(p: SparsePoly, dim: int) -> tuple:
    """For a series polynomial p in dim variables and h: the largest total
    degree of a term in the dim variables (-1 for p = 0), and the lowest
    and highest h-degrees, read off its least and greatest keys."""
    w, _, terms = p._form
    hshift = dim * w
    lo, hi = (min(terms) >> hshift, max(terms) >> hshift) if terms else (0, 0)
    exps = K.exponents([key & (1 << hshift) - 1 for key in terms] if hi
                       else terms, dim, w)
    return max(map(sum, exps), default=-1), lo, hi


def _by_copy(p: SparsePoly, dim: int):
    """For a series polynomial p in dim variables and h: {i: its terms in
    copy i, keyed as in copy 0, h's field just above the pair}; None at the
    first term in two copies, or past 32-bit fields, which the walk sizes."""
    w, _, terms = p._form
    step, hshift = 2 * w, dim * w
    if step > 64:
        return None
    low, parts = (1 << hshift) - 1, {}
    for key, c in terms.items():
        v = key & low
        if v:
            at = (v.bit_length() - 1) // step * step
            if v >> at << at != v:
                return None
            parts.setdefault(at // step, {})[
                v >> at | key >> hshift << step] = c
    return parts


def _gather(p: SparsePoly, moved: list, order: int, dim: int) -> SparsePoly:
    """The series polynomial p in dim variables and h, without its terms
    past h^order, plus each one-pair series r of moved, (i, r), its keys
    shifted into copy i."""
    p = _cut(SparsePoly._make(dim + 1, *p._form, False), order)
    if not moved:
        return p
    width = max(r._form[0] for _, r in moved)
    den = lcm(*(r._form[1] for _, r in moved))
    acc, hshift, pair = {}, dim * width, (1 << 2 * width) - 1
    for i, r in moved:
        s, at = den // r._form[1], 2 * width * i
        for key, (a, b) in r._at(width).items():
            key = (key & pair) << at | key >> 2 * width << hshift
            x, y = acc.get(key, (0, 0))
            acc[key] = (x + a * s, y + b * s)
    return p + SparsePoly._make(dim + 1, width, den, acc)


class StarProduct(Immutable):
    """Star product attached to a constant Poisson bivector.

    order is the default truncation used when a call does not pass one;
    every truncation of polynomial inputs is exact regardless.
    """

    __slots__ = ("bivector", "dim", "order", "_pairs", "_ds", "_masked",
                 "_copy")

    def __init__(self, bivector: PoissonBivector, order: int = 8):
        if bivector.dim % 2 != 0:
            raise InputError("star products need even dimension")
        if order < 0:
            raise InputError("order must be nonnegative")
        object.__setattr__(self, "bivector", bivector)
        object.__setattr__(self, "dim", bivector.dim)
        object.__setattr__(self, "order", order)
        # each step (i/2) pi_ab over one denominator, from the bivector's
        # own lifting: (x + y i) / D times i/2 is (-y + x i) / 2D.  The
        # first-order axiom compares two separate loops, this walk and the
        # bracket's, and tests check the lifting against sympy.
        object.__setattr__(self, "_pairs", tuple(
            (a, b, -y, x) for a, b, x, y in bivector._pairs))
        object.__setattr__(self, "_ds", 2 * bivector._den)
        # the entries with their field masks, by field width (_entries)
        object.__setattr__(self, "_masked", {})
        # the star of one pair when the bivector is copies of one 2 x 2
        # block on the pairs (z_2i-1, z_2i), else False; found on first use
        object.__setattr__(self, "_copy", None)

    @classmethod
    def from_form(cls, form: SymplecticForm, order: int = 8) -> "StarProduct":
        return cls(bivector_from_form(form), order)

    @classmethod
    def standard(cls, pairs: int, order: int = 8) -> "StarProduct":
        return cls.from_form(SymplecticForm.standard(pairs), order)

    def _check_arity(self, *polys) -> None:
        for p in polys:
            if p.arity != self.dim:
                raise ArityError(
                    f"expected arity {self.dim}, got {p.arity}")

    def bracket(self, f: SparsePoly, g: SparsePoly) -> SparsePoly:
        return self.bivector.bracket(f, g)

    def bidiff_power(self, k: int, f: SparsePoly, g: SparsePoly) -> SparsePoly:
        """B_k(f, g), without the (i/2)^k / k! prefactor."""
        self._check_arity(f, g)
        return self.coefficient(k, f, g).scale(
            factorial(k) * ExactComplex(0, -2) ** k)

    def _bidiff(self, order: int, F: SparsePoly, G: SparsePoly) -> SparsePoly:
        """The product of the series polynomials F and G, h their last
        variable (or absent: the packed form is the same), without its
        terms past h^order, on the one-body path where it applies."""
        if self._copy is None:
            p = self._pairs  # row by row, so a copy's block is p[:2]
            object.__setattr__(self, "_copy", self.dim > 2 and p == tuple(
                (a + i, b + i, x, y) for i in range(0, self.dim, 2)
                for a, b, x, y in p[:2]) and StarProduct(PoissonBivector(
                    [row[:2] for row in self.bivector.matrix[:2]])))
        one = self._copy
        fparts = _by_copy(F, self.dim) if one else None
        gparts = None if fparts is None else _by_copy(G, self.dim)
        if gparts is None:
            return self._walk(order, F, G)
        (wf, df, _), (wg, dg, _) = F._form, G._form
        zf, zg = (1 << wf) - 1, (1 << wg) - 1  # the base fields
        moved, products = [], {}  # products by copy parts, star less plain
        for i in fparts.keys() & gparts.keys():
            fp, gp = fparts[i], gparts[i]
            orf = reduce(or_, fp) & (zf << wf | zf)
            org = reduce(or_, gp) & (zg << wg | zg)
            if not (orf & zf and org > zg or orf > zf and org & zg):
                continue  # copy i commutes
            if (min(fp) >> 2 * wf) + (min(gp) >> 2 * wg) >= order:
                continue  # the product already sits at the last h-power
            key = (frozenset(fp.items()), frozenset(gp.items()))
            r = products.get(key)
            if r is None:
                f, g = (SparsePoly._make(3, wf, df, fp),
                        SparsePoly._make(3, wg, dg, gp))
                r = products[key] = (one._bidiff(order, f, g)
                                     - _cut(f * g, order))
            moved.append((i, r))
        return _gather(F * G, moved, order, self.dim)

    def _walk(self, order: int, F: SparsePoly, G: SparsePoly) -> SparsePoly:
        """_bidiff by the walk of the module docstring, the general product."""
        dim = self.dim
        degf, fmin, fmax = _support(F, dim)
        degg, gmin, gmax = _support(G, dim)
        if degf < 0 or degg < 0 or fmin + gmin > order:
            return SparsePoly.zero(dim + 1)
        top = min(order - fmin - gmin, degf, degg)
        hcaps = fmax or gmax  # else no term is ever past a cap
        (wf, _, pf), (wg, _, pg) = F._form, G._form
        width = max(K.product_width(pf, wf, pg, wg, dim + 1), K.field_width(
            min(order, fmax + gmax + top).bit_length()))
        hshift = dim * width
        lf, lg = F._at(width), G._at(width)
        accs = [K.maddmul({}, lf, lg, 1, 0)] + [{} for _ in range(top)]
        # (depth, the parent's useful entries, the index there of the last
        #  entry picked, its multiplicity, weight numerator, multinomial
        #  count, the two derivatives, their largest h-degrees); the root
        #  picks from every entry
        stack = ([(0, self._entries(width), 0, 0, 1, 0, 1, lf, lg,
                   fmax, gmax)] if top else [])
        while stack:
            (depth, cands, start, mult, wr, wi, cnt, da, db,
             ha, hb) = stack.pop()
            if hcaps:
                # the h-degrees that still fit at the children's depth
                cap = order - depth - 1 - gmin
                if ha > cap:
                    da = {key: c for key, c in da.items()
                          if key >> hshift <= cap}
                    ha = cap
                cap = order - depth - 1 - fmin
                if hb > cap:
                    db = {key: c for key, c in db.items()
                          if key >> hshift <= cap}
                    hb = cap
                if not da or not db:
                    continue
            # a field of the OR of the keys is nonzero exactly when some
            # term has that variable, so its derivative is not zero
            ora = reduce(or_, da, 0)
            orb = reduce(or_, db, 0)
            last = cands[start] if mult else None
            useful = []
            children = []
            for k in range(start, len(cands)):
                entry = cands[k]
                a, b, sr, si, ma, mb = entry
                if not (ora & ma and orb & mb):
                    continue
                useful.append(entry)
                da2 = K.mdiff(da, a, width)
                db2 = K.mdiff(db, b, width)
                m = mult + 1 if entry is last else 1
                nr, ni = wr * sr - wi * si, wr * si + wi * sr
                c = cnt * (depth + 1) // m
                K.maddmul(accs[depth + 1], da2, db2, nr * c, ni * c)
                if depth + 1 < top:
                    children.append((depth + 1, useful, len(useful) - 1, m,
                                     nr, ni, c, da2, db2, ha, hb))
            stack.extend(reversed(children))
        # the scales and the content of the module docstring
        den = F._form[1] * G._form[1] * self._ds ** top * factorial(top)
        g, s = 1 if hcaps else den, 1
        for k in range(top, -1, -1):
            for x, y in accs[k].values() if s % g else ():
                g = gcd(g, s * x, s * y)
            s *= self._ds * k
        out, s = {}, 1
        for k in range(top, -1, -1):
            a, b = s // gcd(g, s), g // gcd(g, s)
            h, end, s = k << hshift, order - k + 1 << hshift, s * self._ds * k
            if not hcaps:
                out.update({key + h: (x // b * a, y // b * a)
                            for key, (x, y) in accs[k].items() if x or y})
                continue
            for key, (x, y) in accs[k].items():
                if key < end:
                    u, v = out.get(key + h, (0, 0))
                    out[key + h] = (u + x * a, v + y * a)
        return SparsePoly._make(dim + 1, width, den // g, out,
                                bool(hcaps) or width > 8)

    def _entries(self, width: int) -> tuple:
        """Each entry (a, b, step re, step im) with the masks of its two
        variables' fields in a key of this width; kept per width."""
        entries = self._masked.get(width)
        if entries is None:
            masks = K.fields(self.dim, width)
            entries = self._masked[width] = tuple(
                (a, b, sr, si, masks[a], masks[b])
                for a, b, sr, si in self._pairs)
        return entries

    def coefficient(self, k: int, f: SparsePoly, g: SparsePoly) -> SparsePoly:
        """The h^k coefficient of f * g."""
        if k < 0:
            raise InputError("bidifferential order must be nonnegative")
        return self.star(f, g, k)[k]

    def star(self, f: SparsePoly, g: SparsePoly,
             order: int | None = None) -> HbarSeries:
        """f * g as a series in h, exact through the given order."""
        self._check_arity(f, g)
        if order is None:
            order = self.order
        if order < 0:
            raise InputError("order must be nonnegative")
        return HbarSeries._of(self._bidiff(order, f, g), order)

    def star_series(self, F: HbarSeries, G: HbarSeries) -> HbarSeries:
        """Star product of two series, truncated at the smaller order."""
        if F.arity != self.dim or G.arity != self.dim:
            raise ArityError(f"expected arity {self.dim}")
        order = min(F.order, G.order)
        return HbarSeries._of(self._bidiff(order, _cut(F.packed, order),
                                           _cut(G.packed, order)), order)

    def commutator(self, f: SparsePoly, g: SparsePoly,
                   order: int | None = None) -> HbarSeries:
        """f * g - g * f through the given order."""
        return self.star(f, g, order) - self.star(g, f, order)

    def invariant_under(self, matrix) -> bool:
        """Whether the linear map preserves the bivector: S pi S^T = pi."""
        S = linalg.as_matrix(matrix)
        if len(S) != self.dim:
            raise ArityError(f"matrix must be {self.dim}x{self.dim}")
        return linalg.is_zero_matrix(
            linalg.congruence_residual(S, self.bivector.matrix))


def translation_equivariance_check(star: StarProduct, f, g, shift,
                                   order: int) -> Report:
    """Translating the inputs commutes with the product, exactly."""
    rep = Report("translation equivariance")
    lhs = star.star(f.translate(shift), g.translate(shift), order)
    rhs = star.star(f, g, order).map_coeffs(lambda p: p.translate(shift))
    rep.add_equal("translate-then-star equals star-then-translate", lhs, rhs)
    return rep


def linear_action_check(star: StarProduct, matrix, cases=None,
                        order: int | None = None, seed: int = 0) -> Report:
    """Composition with a bivector-preserving linear map commutes with
    the product: (f o S) * (g o S) = (f * g) o S.

    Maps that move the bivector are rejected up front rather than
    reported, since the identity is not expected to hold for them.  An
    empty list of cases is refused; cases=None draws five seeded pairs.
    """
    S = linalg.as_matrix(matrix)
    if len(S) != star.dim:
        raise ArityError(f"matrix must be {star.dim}x{star.dim}")
    residual = linalg.congruence_residual(S, star.bivector.matrix)
    if not linalg.is_zero_matrix(residual):
        raise InputError(
            "matrix does not preserve the bivector; residual "
            f"{[[str(x) for x in row] for row in residual]}")
    if order is None:
        order = star.order
    if cases is None:
        from .corpus import random_poly_pairs
        cases = random_poly_pairs(star.dim, count=5, max_degree=3, seed=seed)
    cases = list(cases)
    if not cases:
        raise InputError("linear action checks need at least one pair")
    rep = Report("linear invariance")
    rep.add("map preserves the bivector", True)
    for idx, (f, g) in enumerate(cases):
        lhs = star.star(f.affine_subst(S), g.affine_subst(S), order)
        rhs = star.star(f, g, order).map_coeffs(lambda p: p.affine_subst(S))
        rep.add_equal(f"equivariance[{idx}]", lhs, rhs)
    return rep


def verify_dq_axioms(star_fn, bracket_fn, triples, order: int, arity: int,
                     title: str = "deformation quantization axioms") -> Report:
    """Check the four product axioms on a batch of polynomial triples.

    star_fn takes two HbarSeries of the working order and returns their
    product at that order; bracket_fn takes two polynomials.  Checked per
    triple (f, g, h):

      1. associativity   (f*g)*h = f*(g*h)
      2. unit            1*f = f*1 = f
      3. classical limit (f*g) at h^0 = fg
      4. first order     (f*g - g*f) at h^1 = i {f, g}

    An empty batch is refused: a suite that runs no check proves nothing.
    """
    if order < 1:
        raise InputError("axiom checks need order at least 1")
    triples = list(triples)
    if not triples:
        raise InputError("axiom checks need at least one triple")
    rep = Report(title)
    one = HbarSeries.from_poly(SparsePoly.const(arity, 1), order)
    ii = ExactComplex(0, 1)
    for idx, (f, g, h) in enumerate(triples):
        F, G, H = (HbarSeries.from_poly(p, order) for p in (f, g, h))
        fg = star_fn(F, G)
        rep.add_equal(f"associativity[{idx}]", star_fn(fg, H),
                      star_fn(F, star_fn(G, H)))
        unit_ok = star_fn(one, F) == F and star_fn(F, one) == F
        rep.add(f"unit[{idx}]", unit_ok)
        rep.add(f"classical-limit[{idx}]", fg[0] == f * g)
        comm1 = (fg - star_fn(G, F))[1]
        expected = bracket_fn(f, g).scale(ii)
        rep.add(f"first-order-bracket[{idx}]", comm1 == expected,
                "" if comm1 == expected
                else f"got {comm1}, expected {expected}")
    return rep


def verify_star_axioms(star: StarProduct, triples, order: int) -> Report:
    return verify_dq_axioms(star.star_series, star.bracket, triples,
                            order, star.dim)
