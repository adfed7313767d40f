from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from starkit.corpus import random_poly, random_translations
from starkit.errors import ArityError, InputError
from starkit.parsing import parse_poly
from starkit.poly import SparsePoly, grlex_key
from starkit.scalars import ExactComplex

from oracles import assert_canonical, poly_to_sympy, symbols_for


def v(i, arity=2):
    return SparsePoly.variable(arity, i)


def c(value, arity=2):
    return SparsePoly.const(arity, Fraction(value))


seeds = st.integers(0, 10_000)


def test_zero_and_degree():
    z = SparsePoly.zero(3)
    assert z.is_zero()
    assert z.degree() == -1
    assert c(5).degree() == 0
    assert (v(1) * v(2) ** 2).degree() == 3


def test_grlex_term_order():
    f = v(1) + v(2) ** 2 + c(1) + v(1) * v(2)
    exps = [e for e, _ in f.terms()]
    assert exps == [(1, 1), (0, 2), (1, 0), (0, 0)]
    assert exps == sorted(exps, key=grlex_key, reverse=True)


def test_arity_mismatch_raises():
    with pytest.raises(ArityError):
        v(1, arity=2) + v(1, arity=4)
    with pytest.raises(ArityError):
        v(1, arity=2) * SparsePoly.zero(3)


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, seeds)
def test_ring_axioms_via_sympy(s1, s2, s3):
    f = random_poly(2, 3, s1)
    g = random_poly(2, 3, s2)
    h = random_poly(2, 3, s3)
    assert (f + g) * h == f * h + g * h
    assert f * (g * h) == (f * g) * h
    assert f - f == SparsePoly.zero(2)
    syms = symbols_for(2)
    got = poly_to_sympy(f * g, syms)
    want = sympy.expand(poly_to_sympy(f, syms) * poly_to_sympy(g, syms))
    assert sympy.simplify(got - want) == 0


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_diff_matches_sympy(s):
    f = random_poly(3, 4, s)
    syms = symbols_for(3)
    for k in range(1, 4):
        got = poly_to_sympy(f.diff(k), syms)
        want = sympy.diff(poly_to_sympy(f, syms), syms[k - 1])
        assert sympy.simplify(got - want) == 0


def test_diff_of_constant_and_leibniz():
    assert c(7).diff(1).is_zero()
    f = v(1) ** 2 * v(2)
    g = v(2) ** 3 + v(1)
    lhs = (f * g).diff(2)
    rhs = f.diff(2) * g + f * g.diff(2)
    assert lhs == rhs


def test_subst_composition():
    f = v(1) ** 2 + v(2)
    # z1 -> z1 + z2, z2 -> z1 * z2
    gs = [v(1) + v(2), v(1) * v(2)]
    got = f.subst(gs)
    want = (v(1) + v(2)) ** 2 + v(1) * v(2)
    assert got == want


def _sympy_subst(f, gs):
    old = symbols_for(f.arity)
    new = symbols_for(gs[0].arity)
    return sympy.expand(poly_to_sympy(f, old).subs(
        {z: poly_to_sympy(g, new) for z, g in zip(old, gs)},
        simultaneous=True))


def _parsed(texts, arity):
    return [parse_poly(t, arity) for t in texts]


@pytest.mark.parametrize("arity, degree, gs", [
    # g_j over different denominators, one Gaussian
    (3, 3, _parsed(["1/3*z1 + 2/5*z2^2", "(1/2 + 3/7*i)*z1*z2 - 1/11",
                    "z2 - 5/6*i"], 2)),
    # a constant and a zero g_j
    (3, 4, _parsed(["7/2", "0", "2/3*z1^2 - z2"], 2)),
    # every g_j constant: the result is a constant
    (2, 3, _parsed(["1/2", "-3*i"], 2)),
    # the arity grows
    (2, 3, _parsed(["z1*z4 - 1/3*z3", "1/5*z2^2 + i*z3"], 4)),
])
@pytest.mark.parametrize("seed", [3, 4])
def test_subst_matches_sympy(arity, degree, gs, seed):
    f = random_poly(arity, degree, seed)
    got = f.subst(gs)
    assert got.arity == gs[0].arity
    assert_canonical(got)
    want = _sympy_subst(f, gs)
    assert sympy.expand(poly_to_sympy(got, symbols_for(got.arity))
                        - want) == 0


def test_subst_into_zero_and_constant():
    gs = _parsed(["1/3*z1 + z2", "z1^2"], 2)
    assert SparsePoly.zero(2).subst(gs).is_zero()
    assert c(Fraction(4, 9)).subst(gs) == c(Fraction(4, 9))


@pytest.mark.parametrize("top", [256, 70_000, 2 ** 70])
def test_subst_ignores_the_exponents_of_unused_polynomials(top):
    # only the g_j of variables that occur in self size the packed
    # fields, so a g_j of any degree for an absent variable is harmless
    w = SparsePoly.variable(1, 1)
    wide = SparsePoly(1, {(top,): 3})
    assert SparsePoly.zero(1).subst([wide]).is_zero()
    assert SparsePoly.const(1, 5).subst([wide]) == SparsePoly.const(1, 5)
    f = v(1) ** 2 - Fraction(1, 3) * v(1) + 2
    assert f.subst([w, wide]) == w ** 2 - Fraction(1, 3) * w + 2
    if 2 * top < 2 ** 64:
        assert f.subst([wide, w]) == (
            SparsePoly(1, {(2 * top,): 9, (top,): -1, (0,): 2}))
    else:
        # used, the same g_j needs fields past 64 bits
        with pytest.raises(InputError, match="64"):
            f.subst([wide, w])


@settings(max_examples=20)
@given(seeds)
def test_subst_identity_is_noop(s):
    f = random_poly(3, 4, s)
    ident = [SparsePoly.variable(3, k) for k in (1, 2, 3)]
    assert f.subst(ident) == f


def test_affine_subst_matches_manual():
    f = v(1) * v(2)
    # A = [[1, 1], [0, 1]], shift (2, 0): f(z1+z2+2, z2)
    got = f.affine_subst([[1, 1], [0, 1]], [2, 0])
    want = (v(1) + v(2) + c(2)) * v(2)
    assert got == want


def _shifted_variables(shift):
    m = len(shift)
    return [SparsePoly.variable(m, j + 1) + SparsePoly.const(m, x)
            for j, x in enumerate(shift)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), seeds, st.integers(0, 4))
def test_translate_matches_substitution(arity, s, zeroed):
    # zeroed picks one shift component to set to zero (none when past
    # the last), so the one-pass-per-nonzero-component skip is covered
    f = random_poly(arity, 5, s)
    shift = list(random_translations(arity, 1, s)[0])
    if zeroed < arity:
        shift[zeroed] = ExactComplex(0)
    assert f.translate(shift) == f.subst(_shifted_variables(shift))


@pytest.mark.parametrize("shift", [
    (ExactComplex(Fraction(2, 3), -1), ExactComplex(0)),
    (ExactComplex(0), ExactComplex(-1, Fraction(1, 2))),
    (ExactComplex(3), ExactComplex(0, 1)),
])
def test_translate_drops_cancelled_terms(shift):
    # (z - c)^3 translated by c is z^3 exactly, stored as a single term
    back = [-x for x in shift]
    f = SparsePoly.const(2, 1)
    for z in _shifted_variables(back):
        f = f * z ** 3
    got = f.translate(shift)
    assert got == v(1) ** 3 * v(2) ** 3
    assert len(got) == 1
    assert all(not x.is_zero() for _, x in got.terms())


def test_translate_needs_one_shift_per_variable():
    with pytest.raises(ArityError, match="shift must have length 2"):
        v(1).translate([1])


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_affine_subst_with_matrix_and_shift_matches_substitution(s):
    # f(A v + c) with a non-identity A and a nonzero c: the shift goes
    # inside the linear part, not after it
    f = random_poly(2, 4, s)
    matrix = [[ExactComplex(1, 1), ExactComplex(Fraction(1, 2))],
              [ExactComplex(-2), ExactComplex(0, Fraction(-1, 3))]]
    shift = [ExactComplex(Fraction(3, 2), -1), ExactComplex(0, 2)]
    gs = [v(1).scale(row[0]) + v(2).scale(row[1]) + SparsePoly.const(2, x)
          for row, x in zip(matrix, shift)]
    assert f.affine_subst(matrix, shift) == f.subst(gs)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_eval_agrees_with_sympy(s):
    f = random_poly(2, 4, s)
    syms = symbols_for(2)
    point = [Fraction(1, 2), Fraction(-3)]
    got = f.eval_at(point)
    want = poly_to_sympy(f, syms).subs(
        {syms[0]: sympy.Rational(1, 2), syms[1]: -3})
    assert sympy.Rational(got.re.numerator, got.re.denominator) \
        + sympy.I * sympy.Rational(got.im.numerator, got.im.denominator) \
        == sympy.simplify(want)


@settings(max_examples=20)
@given(seeds)
def test_hash_consistent_with_eq(s):
    f = random_poly(2, 3, s)
    g = f + c(1) - c(1)
    assert f == g
    assert hash(f) == hash(g)


def test_pow():
    assert v(1) ** 0 == c(1)
    assert (v(1) + v(2)) ** 2 == v(1) ** 2 + 2 * v(1) * v(2) + v(2) ** 2


# -- one canonical packed form ----------------------------------------------

parts = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8))
gaussians = st.builds(ExactComplex, parts, parts)


def polys(arity, top=3):
    exps = st.tuples(*[st.integers(0, top)] * arity)
    return st.dictionaries(exps, gaussians, max_size=5).map(
        lambda terms: SparsePoly(arity, terms))


def assert_same(p, q):
    """Built two ways, one polynomial: equal, hashed alike, printed alike,
    and both in the canonical form."""
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert_canonical(p)
    assert_canonical(q)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_products_associate_to_one_form(f, g, h):
    assert_same((f * g) * h, f * (g * h))


@settings(max_examples=60, deadline=None)
@given(polys(2), st.tuples(gaussians, gaussians))
def test_translating_back_gives_the_same_form(f, shift):
    back = f.translate(shift).translate([-x for x in shift])
    assert_same(back, f)


@settings(max_examples=60, deadline=None)
@given(polys(3))
def test_substituting_the_coordinates_gives_the_same_form(f):
    assert_same(f.subst([v(k, 3) for k in (1, 2, 3)]), f)


@settings(max_examples=60, deadline=None)
@given(polys(3))
def test_parsing_the_printed_text_gives_the_same_form(f):
    assert_same(parse_poly(str(f), 3), f)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), st.integers(256, 70_000),
       gaussians.filter(lambda z: not z.is_zero()))
def test_cancelling_the_wide_terms_narrows_the_fields(p, q, top, coeff):
    # only q has an exponent above 255, so p + q needs 16- or 32-bit
    # fields, and (p + q) - q is p again, in p's 8-bit fields
    q = q + SparsePoly(2, {(top, 1): coeff})
    assert p._form[0] == 8 and q._form[0] > 8
    assert (p + q)._form[0] == q._form[0]
    assert_same((p + q) - q, p)


def test_constants_hash_like_the_scalars_they_equal():
    # equal values hash alike, so a constant finds its scalar's entry
    for value in (1, 0, -3, Fraction(1, 2), Fraction(-7, 3)):
        for x in (SparsePoly.const(2, value), ExactComplex(value)):
            assert x == value and hash(x) == hash(value)
            assert {value: "x"}.get(x) == "x"
    assert {1: "x"}.get(SparsePoly.const(2, 1)) == "x"
    assert hash(SparsePoly.zero(3)) == hash(0)
    # a constant that is not real hashes as its ExactComplex
    z = ExactComplex(Fraction(1, 2), 3)
    assert SparsePoly.const(2, z) == z
    assert hash(SparsePoly.const(2, z)) == hash(z)


def test_coefficient_reads_a_present_and_an_absent_monomial():
    f = SparsePoly(2, {(1, 2): ExactComplex(Fraction(1, 2), -3), (0, 0): 4})
    assert f.coefficient((1, 2)) == ExactComplex(Fraction(1, 2), -3)
    assert f.coefficient([0, 0]) == 4
    absent = f.coefficient((2, 1))
    assert isinstance(absent, ExactComplex) and absent.is_zero()
