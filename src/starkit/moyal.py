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
sum_k h^k g_k.  One scaling pass puts the f_j over one denominator Df,
and the g_k over Dg, in fields wide enough for the largest exponent of f
plus that of g.  A term of h^j has j in an extra bit field above the
variables' fields, so a product adds h-degrees the way it adds
exponents; an h^0 term has an empty field, and a plain product f * g is
the series case with one coefficient each.  The steps share one denominator Ds, twice
the bivector's own.  A branch carries the product of its steps'
numerators and the multinomial count k! / prod(m_p!), which picking
entry p for the m-th time at depth k turns into count * (k + 1) // m,
an exact division.  So every term the walk adds at depth k sits over
the one denominator Df Dg Ds^k k!, and depth 0 is the plain product.
A term of h-degree j at depth k lands on h^(j+k).  Each branch drops
the derivative terms whose h-degree can no longer fit below the order,
so a deep branch does not carry them; when the walk has finished, the
depths are regrouped by h-power, over the denominator of the deepest
depth that reaches it, what lies past the order is dropped, and each
coefficient is normalized once.

On two or more copies of one 2 x 2 block on the pairs (z_2i-1, z_2i),
as on a product space, distinct copies star-commute: for one-body
f = sum_i f_i and g = sum_i g_i, each term in at most copy i,

    f * g = f g + sum over copies i of (f_i * g_i - f_i g_i).

So such factors, as power sums sum_i phi(zeta_i, lambda_i), take the
plain product once, plus for each copy where one has the base variable
and the other the fiber the depth >= 1 part of the walk on one pair,
its keys shifted into the copy.  Equal copy parts are multiplied once
per call, and a series goes pair of coefficients by pair.  A scan that
stops at the first term in two copies sends all else to the walk.
"""

from __future__ import annotations

from functools import reduce
from math import factorial, lcm
from operator import or_

from . import _kernel as K
from . import linalg
from .errors import ArityError, Immutable, InputError
from .poisson import PoissonBivector, SymplecticForm, bivector_from_form
from .poly import SparsePoly
from .reports import Report
from .scalars import ExactComplex
from .series import HbarSeries


def _support(coeffs, order: int) -> tuple:
    """The h-degrees j <= order of the nonzero coeffs[j], the largest total
    degree among those coefficients, and the largest of their exponents
    and of those j."""
    js, deg, top = [], -1, 0
    for j, p in enumerate(coeffs[:order + 1]):
        if p:
            js.append(j)
            exps = K.exponents(p._form[2], p.arity, p._form[0])
            deg = max(deg, *map(sum, exps))
            top = max(top, j, *map(max, exps))
    return js, deg, top


def _by_h_power(accs, order: int, top: int, ds: int, hshift: int) -> list:
    """Regroup the walk's per-depth maps into the h^n coefficients,
    n = 0..order: the term at depth k with h-degree j goes to h^(k+j),
    over the denominator of depth min(k + j, top), and terms past the
    order are dropped."""
    # rel[k] = Ds^k k!, each depth's denominator over that of depth 0
    rel = [1]
    for k in range(top):
        rel.append(rel[-1] * ds * (k + 1))
    low = (1 << hshift) - 1
    groups = [{} for _ in range(order + 1)]
    for k, acc in enumerate(accs):
        scales = [rel[min(k + j, top)] // rel[k]
                  for j in range(order + 1 - k)]
        for key, (x, y) in acc.items():
            j = key >> hshift
            if j < len(scales):
                s = scales[j]
                dst = groups[k + j]
                key &= low
                old = dst.get(key)
                dst[key] = ((x * s, y * s) if old is None
                            else (old[0] + x * s, old[1] + y * s))
    return groups


def _with_h(coeffs, js, width: int, hshift: int) -> tuple:
    """(p, D): sum over j in js of h^j coeffs[j] packed in fields of this
    width over the lcm D of their denominators; h^j adds j << hshift."""
    if js == [0]:
        return coeffs[0]._at(width), coeffs[0]._form[1]
    den = lcm(*(coeffs[j]._form[1] for j in js))
    out = {}
    for j in js:
        s = den // coeffs[j]._form[1]
        h = j << hshift
        out.update({key + h: (a * s, b * s)
                    for key, (a, b) in coeffs[j]._at(width).items()})
    return out, den


def _by_copy(coeffs, order: int):
    """For each coeffs[j], j <= order, {i: its nonconstant terms in copy i,
    keyed as in copy 0}; None at the first term in two copies, or in fields
    past 32 bits, whose products the walk sizes or refuses."""
    out = []
    for p in coeffs[:order + 1]:
        step, parts = 2 * p._form[0], {}
        if step > 64:
            return None
        for key, c in p._form[2].items():
            if key:
                at = (key.bit_length() - 1) // step * step
                if key >> at << at != key:
                    return None
                parts.setdefault(at // step, {})[key >> at] = c
        out.append(parts)
    return out


def _gather(p: SparsePoly, moved: list) -> SparsePoly:
    """p plus each one-pair polynomial r of moved, (i, r), its keys shifted
    into copy i, over one denominator and normalized once."""
    if not moved:
        return p
    width = max(p._form[0], *(r._form[0] for _, r in moved))
    den = lcm(p._form[1], *(r._form[1] for _, r in moved))
    acc = K.madd(p._at(width), {}, den // p._form[1])
    for i, r in moved:
        s, at = den // r._form[1], 2 * width * i
        for key, (a, b) in r._at(width).items():
            x, y = acc.get(key << at, (0, 0))
            acc[key << at] = (x + a * s, y + b * s)
    return SparsePoly._make(p.arity, width, den, acc)


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
        if k < 0:
            raise InputError("bidifferential order must be nonnegative")
        return self._bidiff(k, (f,), (g,))[k].scale(
            factorial(k) * ExactComplex(0, -2) ** k)

    def _bidiff(self, order: int, fs, gs) -> list:
        """The h^n coefficients, n = 0..order, of the product of the series
        sum_j h^j fs[j] and sum_k h^k gs[k], as polynomials indexed by n:
        on the one-body path of the module docstring where it applies."""
        if self._copy is None:
            p = self._pairs  # row by row, so a copy's block is p[:2]
            object.__setattr__(self, "_copy", self.dim > 2 and p == tuple(
                (a + i, b + i, x, y) for i in range(0, self.dim, 2)
                for a, b, x, y in p[:2]) and StarProduct(PoissonBivector(
                    [row[:2] for row in self.bivector.matrix[:2]])))
        one = self._copy
        fparts = one and _by_copy(fs, order)
        gparts = fparts and _by_copy(gs, order)
        if not gparts:
            return self._walk(order, fs, gs)
        plain = [SparsePoly.zero(self.dim)] * (order + 1)
        moved = [[] for _ in range(order + 1)]
        products = {}  # f_i * g_i by (j, k) and the two copy parts
        for j, f in enumerate(fs[:order + 1]):
            (wf, df, _), fp = f._form, fparts[j]
            for k, g in enumerate(gs[:order + 1 - j]):
                if not (f and g):
                    continue
                (wg, dg, _), gp = g._form, gparts[k]
                fg = f * g
                plain[j + k] = plain[j + k] + fg if plain[j + k] else fg
                zf, zg = (1 << wf) - 1, (1 << wg) - 1  # the base fields
                for i in fp.keys() & gp.keys() if j + k < order else ():
                    orf, org = reduce(or_, fp[i], 0), reduce(or_, gp[i], 0)
                    if not (orf & zf and org > zg or orf > zf and org & zg):
                        continue  # copy i commutes
                    key = (j, k, frozenset(fp[i].items()),
                           frozenset(gp[i].items()))
                    r = products.get(key)
                    if r is None:
                        r = products[key] = one._bidiff(order - j - k, (
                            SparsePoly._make(2, wf, df, fp[i]),), (
                            SparsePoly._make(2, wg, dg, gp[i]),))
                    for m in range(1, len(r)):
                        if r[m]:
                            moved[j + k + m].append((i, r[m]))
        return [_gather(p, parts) for p, parts in zip(plain, moved)]

    def _walk(self, order: int, fs, gs) -> list:
        """_bidiff by the walk of the module docstring, the general product."""
        dim = self.dim
        jf, degf, topf = _support(fs, order)
        jg, degg, topg = _support(gs, order)
        if not jf or not jg or jf[0] + jg[0] > order:
            return [SparsePoly.zero(dim)] * (order + 1)
        fmin, gmin = jf[0], jg[0]
        fmax, gmax = jf[-1], jg[-1]
        top = min(order - fmin - gmin, degf, degg)
        # with no h-terms in either factor no term is ever past a cap
        hcaps = fmax or gmax
        width = K.field_width((topf + topg).bit_length())
        hshift = dim * width
        (lf, df), (lg, dg) = (_with_h(fs, jf, width, hshift),
                              _with_h(gs, jg, width, hshift))
        den = df * dg
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
        if fmax + gmax:
            accs = _by_h_power(accs, order, top, self._ds, hshift)
        # h^n is over Df Dg Ds^m m!, m the largest depth that reaches it
        out = []
        for n, acc in enumerate(accs):
            out.append(SparsePoly._make(dim, width, den, acc))
            if n < top:
                den *= self._ds * (n + 1)
        return out + [SparsePoly.zero(dim)] * (order + 1 - len(out))

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
        return HbarSeries(self._bidiff(order, (f,), (g,)))

    def star_series(self, F: HbarSeries, G: HbarSeries) -> HbarSeries:
        """Star product of two series, truncated at the smaller order."""
        if F.arity != self.dim or G.arity != self.dim:
            raise ArityError(f"expected arity {self.dim}")
        return HbarSeries(self._bidiff(min(F.order, G.order), F.coeffs,
                                       G.coeffs))

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
        F = HbarSeries.from_poly(f, order)
        G = HbarSeries.from_poly(g, order)
        H = HbarSeries.from_poly(h, order)
        fg = star_fn(F, G)
        left = star_fn(fg, H)
        right = star_fn(F, star_fn(G, H))
        rep.add_equal(f"associativity[{idx}]", left, right)
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
