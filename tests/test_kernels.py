"""The term-map kernel against Fraction arithmetic and sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import starkit
from starkit import _kernel as K


def norm_coeff(raw):
    rn, rd = K.qnorm(raw[0], raw[1])
    jn, jd = K.qnorm(raw[2], raw[3])
    return rn, rd, jn, jd


coeffs = st.tuples(
    st.integers(-30, 30), st.integers(1, 12),
    st.integers(-30, 30), st.integers(1, 12),
).map(norm_coeff)

nonzero_coeffs = coeffs.filter(lambda c: c[0] != 0 or c[2] != 0)

exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

term_maps = st.dictionaries(exps, nonzero_coeffs, max_size=6)


def as_fraction_pair(c):
    return Fraction(c[0], c[1]), Fraction(c[2], c[3])


def test_qnorm_normalizes():
    assert K.qnorm(0, 7) == (0, 1)
    assert K.qnorm(2, -4) == (-1, 2)
    assert K.qnorm(-6, -9) == (2, 3)
    assert K.qnorm(5, 1) == (5, 1)


@given(st.integers(-200, 200), st.integers(-50, 50).filter(lambda d: d != 0))
def test_qnorm_agrees_and_matches_fraction(n, d):
    f = Fraction(n, d)
    assert K.qnorm(n, d) == (f.numerator, f.denominator)


@given(coeffs, coeffs)
def test_cmul_matches_fraction_arithmetic(a, b):
    ar, ai = as_fraction_pair(a)
    br, bi = as_fraction_pair(b)
    want_r = ar * br - ai * bi
    want_i = ar * bi + ai * br
    got = K.cmul(a, b)
    assert as_fraction_pair(got) == (want_r, want_i)
    # products of normalized coefficients come back normalized
    assert K.qnorm(got[0], got[1]) == (got[0], got[1])
    assert K.qnorm(got[2], got[3]) == (got[2], got[3])


@settings(max_examples=40)
@given(term_maps, term_maps, term_maps, nonzero_coeffs)
def test_maddmul_agrees_and_accumulates(acc, t1, t2, c):
    # the fused kernel agrees with add, scale and multiply done apart
    want = K.madd(acc, K.mscale(K.mmul(t1, t2), c))
    got = dict(acc)
    K.maddmul(got, t1, t2, c)
    assert got == want


@settings(max_examples=40)
@given(term_maps, term_maps)
def test_mmul_commutes_and_has_no_zero_entries(t1, t2):
    p = K.mmul(t1, t2)
    q = K.mmul(t2, t1)
    assert p == q
    assert all(c[0] != 0 or c[2] != 0 for c in p.values())
    # denominators stay positive and in lowest terms
    for c in p.values():
        assert c[1] > 0 and c[3] > 0


@settings(max_examples=40)
@given(term_maps, term_maps, st.integers(-5, 5), st.integers(-5, 5))
def test_packed_kernels_agree_with_term_maps(t1, t2, wr, wi):
    # exponents reach 3 in each map, so 3-bit fields hold every product
    width = 3
    p1, d1 = K.lift(t1, width)
    p2, d2 = K.lift(t2, width)
    assert K.lower(p1, d1, 2, width) == t1
    for var in (0, 1):
        assert K.lower(K.pdiff(p1, var, width), d1, 2, width) \
            == K.mdiff(t1, var)
    got = K.lower(K.paddmul({}, p1, p2, wr, wi), d1 * d2, 2, width)
    assert got == K.mscale(K.mmul(t1, t2), (wr, 1, wi, 1))


def _map_to_sympy(t, x, y):
    total = sympy.Integer(0)
    for (e1, e2), (rn, rd, jn, jd) in t.items():
        total += (sympy.Rational(rn, rd) + sympy.I * sympy.Rational(jn, jd)) \
            * x ** e1 * y ** e2
    return sympy.expand(total)


def test_mmul_against_sympy():
    x, y = sympy.symbols("x y")
    t1 = {(2, 0): (1, 2, 0, 1), (0, 1): (0, 1, -3, 1), (1, 1): (2, 3, 1, 5)}
    t2 = {(0, 2): (4, 1, 0, 1), (1, 0): (-1, 3, 1, 2), (0, 0): (0, 1, 1, 1)}
    got = _map_to_sympy(K.mmul(t1, t2), x, y)
    want = sympy.expand(_map_to_sympy(t1, x, y) * _map_to_sympy(t2, x, y))
    assert sympy.simplify(got - want) == 0


def test_mdiff_against_sympy():
    x, y = sympy.symbols("x y")
    t = {(3, 1): (1, 1, 0, 1), (0, 2): (5, 2, -1, 3), (1, 0): (0, 1, 2, 1)}
    for var, s in ((0, x), (1, y)):
        got = _map_to_sympy(K.mdiff(t, var), x, y)
        want = sympy.expand(sympy.diff(_map_to_sympy(t, x, y), s))
        assert sympy.simplify(got - want) == 0


def test_zero_polynomial_is_empty_dict():
    t = {(1, 0): (1, 1, 0, 1)}
    assert K.msub(t, t) == {}
    assert K.mmul(t, {}) == {}
    assert K.mscale(t, (0, 1, 0, 1)) == {}


def test_backend_is_the_python_kernel():
    assert starkit.BACKEND == "python"
