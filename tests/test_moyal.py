from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from starkit import _kernel as K
from starkit.corpus import (random_poly, random_poly_pairs,
                            random_poly_triples, random_sl2_matrices,
                            random_translations)
from starkit.errors import InputError
from starkit import cli, multi
from starkit.moyal import (StarProduct, linear_action_check,
                           translation_equivariance_check, verify_dq_axioms,
                           verify_star_axioms)
from starkit.multi import ProductSpace
from starkit.poisson import PoissonBivector, SymplecticForm
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex
from starkit.series import HbarSeries

from conftest import fixture_path
from oracles import assert_canonical, bivector_to_sympy, poly_to_sympy, \
    ref_bidiff, ref_star, series_to_sympy, symbols_for

seeds = st.integers(0, 10_000)

I = ExactComplex(0, 1)


def sp2(order=8):
    return StarProduct.standard(1, order)


def zvar(i, arity=2):
    return SparsePoly.variable(arity, i)


# -- pinned values -----------------------------------------------------------

def test_star_z1_z2():
    got = sp2().star(zvar(1), zvar(2), 2)
    assert got[0] == zvar(1) * zvar(2)
    assert got[1] == SparsePoly.const(2, 1).scale(I).scale(Fraction(-1, 2))
    assert got[2].is_zero()
    assert str(got) == "z1*z2 - 1/2*i*h"


def test_star_squares():
    f = zvar(1) ** 2
    g = zvar(2) ** 2
    got = sp2().star(f, g, 4)
    assert got[0] == f * g
    assert got[1] == (zvar(1) * zvar(2)).scale(I).scale(-2)
    assert got[2] == SparsePoly.const(2, Fraction(-1, 2))
    assert got[3].is_zero() and got[4].is_zero()


def test_bidiff_powers_of_squares():
    s = sp2()
    f = zvar(1) ** 2
    g = zvar(2) ** 2
    assert s.bidiff_power(1, f, g) == (zvar(1) * zvar(2)).scale(-4)
    assert s.bidiff_power(2, f, g) == SparsePoly.const(2, 4)
    assert s.bidiff_power(3, f, g).is_zero()


def test_canonical_commutator():
    # [z1, z2] = -i h, the sign that fixes every other convention here
    comm = sp2().commutator(zvar(1), zvar(2), 3)
    assert comm[0].is_zero()
    assert comm[1] == SparsePoly.const(2, -1).scale(I)
    assert comm[2].is_zero() and comm[3].is_zero()


def test_star_series_with_h_in_inputs():
    F = HbarSeries.from_poly(zvar(1), 3).shift(1)   # h*z1
    G = HbarSeries.from_poly(zvar(2), 3).shift(1)   # h*z2
    got = sp2().star_series(F, G)
    assert got[2] == zvar(1) * zvar(2)
    assert got[3] == SparsePoly.const(2, Fraction(-1, 2)).scale(I)
    assert got[0].is_zero() and got[1].is_zero()


def test_star_series_cancellation():
    one = SparsePoly.const(2, 1)
    F = HbarSeries.from_poly(one, 4) + HbarSeries.from_poly(zvar(1), 4).shift(1)
    G = HbarSeries.from_poly(one, 4) - HbarSeries.from_poly(zvar(1), 4).shift(1)
    got = sp2().star_series(F, G)
    want = HbarSeries.from_poly(one, 4) \
        - HbarSeries.from_poly(zvar(1) ** 2, 4).shift(2)
    assert got == want


def test_unit_and_constants_are_central():
    s = sp2()
    f = random_poly(2, 4, 77)
    c = SparsePoly.const(2, Fraction(3, 7))
    assert s.star(c, f, 5) == s.star(f, c, 5)
    assert s.commutator(c, f, 5).is_zero()


# -- cross-checks against the tensor-sum reference ---------------------------

@settings(max_examples=15, deadline=None)
@given(seeds, seeds)
def test_star_matches_reference_dim2(s1, s2):
    order = 3
    f = random_poly(2, 3, s1)
    g = random_poly(2, 3, s2)
    s = sp2()
    syms = symbols_for(2)
    h = sympy.Symbol("h")
    got = series_to_sympy(s.star(f, g, order), syms, h)
    want = ref_star(poly_to_sympy(f, syms), poly_to_sympy(g, syms),
                    bivector_to_sympy(s.bivector), syms, order, h)
    assert sympy.simplify(sympy.expand(got - want)) == 0


@settings(max_examples=6, deadline=None)
@given(seeds, seeds)
def test_star_matches_reference_dim4(s1, s2):
    order = 2
    f = random_poly(4, 2, s1)
    g = random_poly(4, 2, s2)
    s = StarProduct.standard(2, order)
    syms = symbols_for(4)
    h = sympy.Symbol("h")
    got = series_to_sympy(s.star(f, g, order), syms, h)
    want = ref_star(poly_to_sympy(f, syms), poly_to_sympy(g, syms),
                    bivector_to_sympy(s.bivector), syms, order, h)
    assert sympy.simplify(sympy.expand(got - want)) == 0


def test_bidiff_matches_reference_tensor_sum():
    s = StarProduct.standard(2)
    f = random_poly(4, 3, 5)
    g = random_poly(4, 3, 6)
    syms = symbols_for(4)
    pi = bivector_to_sympy(s.bivector)
    for k in range(4):
        got = poly_to_sympy(s.bidiff_power(k, f, g), syms)
        want = ref_bidiff(k, poly_to_sympy(f, syms), poly_to_sympy(g, syms),
                          pi, syms)
        assert sympy.simplify(sympy.expand(got - want)) == 0


# the Pfaffian-3 Gaussian form of test_poisson: every row of pi has
# three nonzero entries
GAUSSIAN_FORM = SymplecticForm([
    [0, 1, I, 2],
    [-1, 0, Fraction(1, 2), -I],
    [-I, Fraction(-1, 2), 0, 3],
    [-2, I, -3, 0],
])


def test_walk_matches_reference_on_non_block_form():
    # the squares force repeated picks
    s = StarProduct.from_form(GAUSSIAN_FORM)
    z1, z2, z3, z4 = (SparsePoly.variable(4, i) for i in range(1, 5))
    f = random_poly(4, 3, 12) + z1 ** 2 * z3 ** 2
    g = random_poly(4, 3, 13) + z2 ** 3 * z4.scale(I)
    syms = symbols_for(4)
    h = sympy.Symbol("h")
    pi = bivector_to_sympy(s.bivector)
    fs, gs = poly_to_sympy(f, syms), poly_to_sympy(g, syms)
    for k in range(5):
        got = poly_to_sympy(s.bidiff_power(k, f, g), syms)
        assert sympy.expand(got - ref_bidiff(k, fs, gs, pi, syms)) == 0
    got = series_to_sympy(s.star(f, g, 4), syms, h)
    assert sympy.expand(got - ref_star(fs, gs, pi, syms, 4, h)) == 0


# a rational form with no block structure: the bivector's entries, and
# so the walk's steps, have denominators other than 2
RATIONAL_FORM = SymplecticForm([
    [0, 2, Fraction(1, 3), 1],
    [-2, 0, 1, Fraction(-1, 5)],
    [Fraction(-1, 3), -1, 0, Fraction(3, 7)],
    [-1, Fraction(1, 5), Fraction(-3, 7), 0],
])


def small_polys(arity):
    part = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
    coeff = st.builds(ExactComplex, part, part)
    exps = st.tuples(*[st.integers(0, 2)] * arity)
    return st.dictionaries(exps, coeff, min_size=1, max_size=3).map(
        lambda terms: SparsePoly(arity, terms))


def assert_normalized(series):
    assert_canonical(series.packed)
    for coeff in series.coeffs:
        assert_canonical(coeff)


@settings(max_examples=10, deadline=None)
@given(small_polys(4), small_polys(4))
def test_integer_walk_matches_reference_with_rational_denominators(f, g):
    s = StarProduct.from_form(RATIONAL_FORM)
    assert s._ds != 2
    got = s.star(f, g, 2)
    assert_normalized(got)
    syms = symbols_for(4)
    h = sympy.Symbol("h")
    want = ref_star(poly_to_sympy(f, syms), poly_to_sympy(g, syms),
                    bivector_to_sympy(s.bivector), syms, 2, h)
    assert sympy.expand(series_to_sympy(got, syms, h) - want) == 0


@pytest.mark.parametrize("pairs", [1, 19])
def test_packed_fields_hold_the_exponent_sums(pairs):
    # exponents 64 and 65 in one variable: f alone fits 7-bit fields, the
    # product's 129 needs 8; the last pair sits in the top fields
    n = 2 * pairs
    s = StarProduct.standard(pairs, 3)
    z = [None] + [SparsePoly.variable(n, i) for i in range(1, n + 1)]
    f = z[1] ** 64 * z[2] + z[n - 1] ** 64 * z[n]
    g = z[1] ** 65 + z[n - 1] ** 65
    got = s.star(f, g)
    assert_normalized(got)
    # g has no fiber variable, and f is linear in each, so B_k = 0 for k > 1
    assert got == HbarSeries([f * g, s.bracket(f, g).scale(I / 2),
                              SparsePoly.zero(n), SparsePoly.zero(n)])
    # f * g and the bracket size their own fields by the same rule; the
    # expected maps are literals, not products

    def mono(coeff, **exps):
        e = [0] * n
        for var, k in exps.items():
            e[int(var[1:]) - 1] = k
        return SparsePoly(n, {tuple(e): coeff})

    if pairs == 1:
        # both summands coincide: f = 2 z1^64 z2 and g = 2 z1^65
        assert got[0] == f * g == mono(4, z1=129, z2=1)
        assert got[1] == mono(I * 130, z1=128)
        assert s.bracket(f, g) == mono(260, z1=128)
    else:
        assert f * g == (mono(1, z1=129, z2=1) + mono(1, z37=129, z38=1)
                         + mono(1, z1=64, z2=1, z37=65)
                         + mono(1, z1=65, z37=64, z38=1))
        assert s.bracket(f, g) == mono(65, z1=128) + mono(65, z37=128)
    assert_normalized(HbarSeries([f * g, s.bracket(f, g)]))
    # 128 + 128 needs 9 bits, so the fields widen from 8 to 16
    f, g = z[1] ** 128, z[1] ** 128 * z[2]
    assert f._form[0] == g._form[0] == 8 and (f * g)._form[0] == 16
    assert s.star(f, g) == HbarSeries([mono(1, z1=256, z2=1),
                                       mono(I * -64, z1=255),
                                       SparsePoly.zero(n), SparsePoly.zero(n)])


def test_deep_walk_closed_form():
    # z1^N * z2^N has one walk path of depth N, so a recursive walk would
    # overflow the stack; B_k = (-1)^k (N!/(N-k)!)^2 z1^(N-k) z2^(N-k)
    n = 1500
    got = sp2().star(zvar(1) ** n, zvar(2) ** n, n)
    for k in (0, 1, 2, 3, 750, n - 1, n):
        falling = factorial(n) // factorial(n - k)
        coeff = (I / 2) ** k * Fraction((-1) ** k * falling ** 2, factorial(k))
        want = (zvar(1) ** (n - k) * zvar(2) ** (n - k)).scale(coeff)
        assert got[k] == want


def test_walk_narrows_the_fields_it_widened():
    # the walk sizes its fields for 200 + 100, but no term of the product
    # has an exponent past 200: the product is stored in 8-bit fields
    got = sp2().star(zvar(1) ** 200, zvar(2) ** 100, 3)
    assert_normalized(got)
    assert got.packed._form[0] == 8
    for k in range(4):
        count = (factorial(200) // factorial(200 - k)
                 * factorial(100) // factorial(100 - k))
        coeff = (I / 2) ** k * Fraction((-1) ** k * count, factorial(k))
        want = (zvar(1) ** (200 - k) * zvar(2) ** (100 - k)).scale(coeff)
        assert got[k] == want


# -- axioms ------------------------------------------------------------------

def test_axioms_on_seeded_triples_dim2():
    s = sp2()
    triples = random_poly_triples(2, 8, 4, seed=3)
    rep = verify_star_axioms(s, triples, order=6)
    assert rep.passed, rep.failures()


def test_axiom_suite_refuses_an_empty_batch():
    # zero triples would be a pass with no check run
    with pytest.raises(InputError, match="at least one triple"):
        verify_star_axioms(StarProduct.standard(1), [], 3)
    with pytest.raises(InputError, match="at least one triple"):
        verify_dq_axioms(sp2().star_series, sp2().bracket, iter(()), 3, 2)


def test_axioms_on_seeded_triples_dim6():
    s = StarProduct.standard(3)
    triples = random_poly_triples(6, 3, 2, seed=4)
    rep = verify_star_axioms(s, triples, order=4)
    assert rep.passed, rep.failures()


def test_truncation_consistency():
    # low-order results are prefixes of high-order ones
    s = sp2()
    f = random_poly(2, 4, 21)
    g = random_poly(2, 4, 22)
    low = s.star(f, g, 2)
    high = s.star(f, g, 9)
    assert high.truncate(2) == low
    assert high.truncate(0) == s.star(f, g, 0)
    # beyond min(deg f, deg g) every coefficient vanishes
    top = min(f.degree(), g.degree())
    assert all(high[k].is_zero() for k in range(top + 1, 10))


# -- mutants must fail -------------------------------------------------------

def _per_pair_star(sp, keep_factorial=True):
    """A series-level product summed from single products, one pair
    (F[j], G[k]) of coefficients at a time; without keep_factorial the
    1/m! prefactor of h^m is dropped."""
    def star_fn(F, G):
        order = min(F.order, G.order)
        coeffs = [SparsePoly.zero(sp.dim) for _ in range(order + 1)]
        for j in range(order + 1):
            if F[j].is_zero():
                continue
            for k in range(order + 1 - j):
                if G[k].is_zero():
                    continue
                top = min(order - j - k, F[j].degree(), G[k].degree())
                for m in range(max(top, 0) + 1):
                    term = sp.coefficient(m, F[j], G[k])
                    if not keep_factorial:
                        term = term.scale(factorial(m))
                    if not term.is_zero():
                        coeffs[j + k + m] = coeffs[j + k + m] + term
        return HbarSeries(coeffs)
    return star_fn


def seeded_series(arity, degrees, seed):
    """sum_j h^j f_j with f_j seeded of max degree degrees[j]; None is a
    zero coefficient."""
    return HbarSeries([SparsePoly.zero(arity) if d is None
                       else random_poly(arity, d, seed + j)
                       for j, d in enumerate(degrees)])


@pytest.mark.parametrize("form, f_degrees, g_degrees", [
    # h-terms in both factors, equal orders
    (SymplecticForm.standard(1), [3, 2, None, 4, 1], [2, None, 3, 2, None]),
    # unequal orders: the product stops at the smaller
    (SymplecticForm.standard(1), [3, 3, 2, 4, 1, 2], [3, 1, 2]),
    # leading zero coefficients, and a high-h coefficient of high degree
    # that meets the other factor only at low depths
    (SymplecticForm.standard(1), [None, 3, None, 5], [None, 4, 2, None]),
    # the lowest h-degrees already pass the order: the product is zero
    (SymplecticForm.standard(1), [None, None, 3], [None, None, 2]),
    # order 0
    (SymplecticForm.standard(1), [3], [2, 3, 1]),
    (SymplecticForm.standard(2), [2, 2, None, 1], [2, 1, 2, 2]),
    (GAUSSIAN_FORM, [2, 2, 1], [3, None, 2]),
], ids=["both-h", "unequal-orders", "zero-coefficients", "all-past-order",
        "order-0", "dim4-standard", "dim4-gaussian"])
@pytest.mark.parametrize("seed", [1, 2])
def test_star_series_is_the_per_pair_sum(form, f_degrees, g_degrees, seed):
    s = StarProduct.from_form(form)
    F = seeded_series(form.dim, f_degrees, 100 * seed)
    G = seeded_series(form.dim, g_degrees, 100 * seed + 50)
    got = s.star_series(F, G)
    assert got.order == min(F.order, G.order)
    assert_normalized(got)
    assert got == _per_pair_star(s)(F, G)


def copy_supported(arity, variables, degree, seed):
    """A seeded polynomial of the given degree in the listed variables
    (1-based) only, as a polynomial of the given arity."""
    return random_poly(len(variables), degree, seed).subst(
        [SparsePoly.variable(arity, v) for v in variables])


def supported_series(arity, supports, seed):
    """sum_j h^j f_j with f_j seeded in the variables supports[j]; None is
    a zero coefficient."""
    return HbarSeries([SparsePoly.zero(arity) if v is None
                       else copy_supported(arity, v, 2, seed + j)
                       for j, v in enumerate(supports)])


# copy i holds z_(2i-1) and z_2i; each support misses whole copies, and
# some miss one variable of a copy they touch
@pytest.mark.parametrize("f_supports, g_supports", [
    # f in copies 1-2, g in copies 2-3
    ([(1, 2, 3), None, (2, 4), (1,)], [(3, 4, 6), (4, 5), (3, 4, 5, 6)]),
    # f in copy 1, g in copy 3: no entry meets both, the product is f g
    ([(1, 2), (2,)], [(5, 6), (5,)]),
    # one variable each, of one pair
    ([(3,), (3,)], [(4,), None, (4,)]),
], ids=["overlapping-copies", "disjoint-copies", "one-pair"])
@pytest.mark.parametrize("copies", [3, 4, 5, 6])
def test_star_series_on_copy_supports_is_the_per_pair_sum(copies, f_supports,
                                                          g_supports):
    s = StarProduct.standard(copies, 4)
    n = 2 * copies
    F = supported_series(n, f_supports, 10 * copies)
    G = supported_series(n, g_supports, 10 * copies + 5)
    got = s.star_series(F, G)
    assert_normalized(got)
    assert got == _per_pair_star(s)(F, G)


def test_walk_differentiates_only_where_a_derivative_is_not_zero(monkeypatch):
    ps = ProductSpace(5, 6)
    z, lam = ps.zeta, ps.lam
    f = z(1) ** 2 * lam(1) + z(2) * lam(2) ** 2 + z(3) ** 3 + lam(5)
    g = lam(1) ** 2 + z(2) * lam(2) * z(3) + lam(3) ** 2 + z(4)
    F = HbarSeries([f, lam(2), z(1) * lam(3)] + [SparsePoly.zero(10)] * 4)
    G = HbarSeries([g, z(3) ** 2, lam(1) * z(2)] + [SparsePoly.zero(10)] * 4)
    results = []
    inside = []
    mdiff, bidiff, bracket = K.mdiff, StarProduct._bidiff, \
        PoissonBivector.bracket

    def traced_mdiff(p, var, width):
        out = mdiff(p, var, width)
        if inside:
            results.append(out)
        return out

    def scoped(fn):
        def run(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(K, "mdiff", traced_mdiff)
    monkeypatch.setattr(StarProduct, "_bidiff", scoped(bidiff))
    monkeypatch.setattr(PoissonBivector, "bracket", scoped(bracket))
    walks = count_walks(monkeypatch)
    ps.star.star(f, g)
    ps.star.star_series(F, G)
    ps.star.bracket(f, g)
    # the walk and the bracket did differentiate, and never to zero
    assert len(results) > 20
    assert all(results)
    # g's term z2 lambda2 z3 lies in copies 2 and 3, so both products
    # took the walk on the whole product space, not the one-body path
    assert walks == [10, 10]


# -- the one-body path on copies of one pair ----------------------------------

def packed(coeffs) -> SparsePoly:
    """The packed form of the series sum_j h^j coeffs[j], h last."""
    return HbarSeries(coeffs).packed


def count_walks(monkeypatch) -> list:
    """The dimension of every star whose walk runs from now on."""
    dims = []
    walk = StarProduct._walk

    def counted(self, *args):
        dims.append(self.dim)
        return walk(self, *args)

    monkeypatch.setattr(StarProduct, "_walk", counted)
    return dims


def polarized_sum(ps, a, b, c=1):
    """c P_{a,b} = c sum_i zeta_i^a lambda_i^b."""
    return sum((ps.zeta(i) ** a * ps.lam(i) ** b
                for i in range(1, ps.copies + 1)),
               SparsePoly.zero(ps.dim)).scale(c)


gauss_parts = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
gauss = st.builds(ExactComplex, gauss_parts, gauss_parts)


@st.composite
def one_body(draw, copies):
    """A polynomial whose every term lies in at most one copy: one block
    repeated in every copy (symmetric) or blocks in some copies, with or
    without a constant; exponents past 255 widen the fields to 16 bits."""
    top = draw(st.sampled_from([3, 300]))
    block = st.dictionaries(st.tuples(st.integers(0, top),
                                      st.integers(0, top)),
                            gauss, min_size=1, max_size=3)
    if draw(st.booleans()):
        parts = dict.fromkeys(range(copies), draw(block))
    else:
        parts = draw(st.dictionaries(st.integers(0, copies - 1), block,
                                     max_size=copies))
    terms = {}
    for i, part in parts.items():
        for (x, y), c in part.items():
            e = [0] * (2 * copies)
            e[2 * i], e[2 * i + 1] = x, y
            terms[tuple(e)] = c
    if draw(st.booleans()):
        terms[(0,) * (2 * copies)] = draw(gauss)
    return SparsePoly(2 * copies, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_body_path_matches_the_walk(data):
    copies = data.draw(st.integers(2, 4), label="copies")
    order = data.draw(st.sampled_from([0, 1, 8]), label="order")
    # one coefficient each is a plain product; more make series factors
    fs = tuple(data.draw(st.lists(one_body(copies), min_size=1, max_size=3),
                         label="fs"))
    gs = tuple(data.draw(st.lists(one_body(copies), min_size=1, max_size=3),
                         label="gs"))
    s = StarProduct.standard(copies)
    got = s._bidiff(order, packed(fs), packed(gs))
    want = s._walk(order, packed(fs), packed(gs))
    assert got._form == want._form


def test_copy_parts_repeated_across_h_powers_match_the_walk():
    # equal numerators at several h-powers, over denominators 1 and 3: a
    # one-pair product reused by its copy parts alone would be truncated
    # at another order or read over another denominator
    ps = ProductSpace(3)
    u = polarized_sum(ps, 4, 4)
    third = u.scale(Fraction(1, 3))
    fs, gs = (u, third, u), (u, third)
    got = ps.star._bidiff(8, packed(fs), packed(gs))
    want = ps.star._walk(8, packed(fs), packed(gs))
    assert got._form == want._form


def test_symmetric_product_runs_one_one_pair_walk(monkeypatch):
    ps = ProductSpace(10)
    f = polarized_sum(ps, 2, 3, ExactComplex(Fraction(1, 2), 2))
    g = polarized_sum(ps, 3, 2, ExactComplex(-2, Fraction(1, 3)))
    want = HbarSeries._of(ps.star._walk(8, packed([f]), packed([g])), 8)
    assert ps.star._copy is None  # nothing is looked for before first use
    walks = count_walks(monkeypatch)
    assert ps.star.star(f, g) == want
    assert walks == [2]
    # fiber power sums star-commute copy by copy: no walk at all
    del walks[:]
    p3, p5 = multi.power_sum(ps, 3), multi.power_sum(ps, 5)
    assert ps.star.star(p3, p5) == HbarSeries.from_poly(p3 * p5, 8)
    assert multi.hitchin_commutation_check(ps, 3, 5).passed
    # at order 0 no copy can reach depth 1
    assert ps.star.star(f, g, 0) == HbarSeries([f * g])
    assert walks == []


def test_other_factors_take_the_walk(monkeypatch):
    ps = ProductSpace(3)
    z, lam = ps.zeta, ps.lam
    one = z(1) ** 2 * lam(1) + lam(3) ** 2 - 2
    two_body = one + z(1) * lam(2)
    gauss4 = StarProduct.from_form(
        cli._load_form(fixture_path("form_gauss4.json")))
    single = StarProduct.standard(1)
    zero = SparsePoly.zero(6)
    cases = [
        (ps.star, HbarSeries.from_poly(two_body, 4),
         HbarSeries.from_poly(one, 4)),
        (gauss4, HbarSeries.from_poly(random_poly(4, 3, 5), 4),
         HbarSeries.from_poly(random_poly(4, 3, 6), 4)),
        (single, HbarSeries.from_poly(random_poly(2, 3, 7), 4),
         HbarSeries.from_poly(random_poly(2, 3, 8), 4)),
        # a series whose h^1 coefficient has a term in copies 1 and 2
        (ps.star, HbarSeries([one, z(1) * lam(2), zero, zero, zero]),
         HbarSeries([one, lam(1), zero, zero, zero])),
    ]
    wants = [s._walk(4, F.packed, G.packed) for s, F, G in cases]
    walks = count_walks(monkeypatch)
    for (s, F, G), want in zip(cases, wants):
        assert s.star_series(F, G) == HbarSeries._of(want, 4)
        assert walks == [s.dim]
        del walks[:]
    assert single._copy is False and gauss4._copy is False


def test_one_body_fields_past_64_bits_are_refused_as_by_the_walk():
    ps = ProductSpace(2)
    big = 2 ** 63
    f = SparsePoly(4, {(big, 1, 0, 0): 1, (0, 0, 0, 1): 2})
    g = SparsePoly(4, {(0, 0, big, 0): 1})
    for fs, gs in (((f,), (g,)), ((f, f), (g,))):
        with pytest.raises(InputError) as caught:
            ps.star._bidiff(2, packed(fs), packed(gs))
        assert str(caught.value) == (
            "exponents need 65-bit fields; the kernel packs at most 64")
        with pytest.raises(InputError) as walked:
            ps.star._walk(2, packed(fs), packed(gs))
        assert str(walked.value) == str(caught.value)


def test_star_series_of_zero_series_is_zero():
    s = sp2()
    F = seeded_series(2, [3, 2], 7)
    assert s.star_series(F, HbarSeries.zero(2, 3)) == HbarSeries.zero(2, 1)
    assert s.star_series(HbarSeries.zero(2, 1), F) == HbarSeries.zero(2, 1)


def test_mutant_without_factorial_breaks_associativity():
    s = sp2()
    triples = random_poly_triples(2, 6, 3, seed=9)
    rep = verify_dq_axioms(_per_pair_star(s, keep_factorial=False),
                           s.bracket, triples,
                           order=6, arity=2)
    assert not rep.passed
    bad = [e for e in rep.failures() if e.name.startswith("associativity")]
    # the detail is the residual that should have been zero
    assert bad and all(e.detail.startswith("difference ") for e in bad)


def test_mutant_with_flipped_bivector_breaks_the_bracket_axiom():
    s = sp2()
    from starkit import linalg
    flipped = StarProduct(PoissonBivector(linalg.mat_neg(s.bivector.matrix)))
    triples = random_poly_triples(2, 6, 3, seed=10)
    rep = verify_dq_axioms(flipped.star_series, s.bracket, triples,
                           order=6, arity=2)
    assert not rep.passed
    bad = [e.name for e in rep.failures()]
    # a flipped bivector still gives an associative star; only the
    # normalization against the reference bracket can notice it
    assert all(name.startswith("first-order-bracket") for name in bad)
    assert bad


# -- symmetry ----------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seeds, seeds)
def test_translation_equivariance(s1, s2):
    s = sp2()
    f = random_poly(2, 4, s1)
    g = random_poly(2, 4, s2)
    shift = random_translations(2, 1, s1 + s2)[0]
    rep = translation_equivariance_check(s, f, g, shift, order=6)
    assert rep.passed, rep.failures()


def test_translate_poly_matches_substitution():
    f = zvar(1) ** 2
    got = f.translate([ExactComplex(1), ExactComplex(0)])
    want = (zvar(1) + SparsePoly.const(2, 1)) ** 2
    assert got == want


def test_linear_invariance_for_seeded_sl2():
    s = sp2(order=4)
    for S in random_sl2_matrices(6, seed=12):
        rep = linear_action_check(s, S, order=4, seed=3)
        assert rep.passed, rep.failures()


def test_non_invariant_matrix_is_rejected():
    s = sp2()
    assert not s.invariant_under([[2, 0], [0, 1]])
    with pytest.raises(InputError, match="residual"):
        linear_action_check(s, [[2, 0], [0, 1]])


def test_linear_action_check_refuses_no_cases():
    # a report holding only the precondition would pass with no
    # equivariance checked
    s = sp2()
    with pytest.raises(InputError, match="at least one pair"):
        linear_action_check(s, [[1, 0], [0, 1]], cases=[], order=3)
    with pytest.raises(InputError, match="at least one pair"):
        linear_action_check(s, [[1, 0], [0, 1]], cases=iter(()), order=3)
    rep = linear_action_check(s, [[1, 0], [0, 1]], order=3)
    assert [e.name for e in rep.entries] == (
        ["map preserves the bivector"]
        + [f"equivariance[{k}]" for k in range(5)])
    assert rep.passed


def test_determinant_one_is_invariant_in_dim2():
    s = sp2()
    assert s.invariant_under([[2, 0], [0, Fraction(1, 2)]])
    assert s.invariant_under([[1, 5], [0, 1]])
    rep = linear_action_check(s, [[2, 0], [0, Fraction(1, 2)]], order=4)
    assert rep.passed
