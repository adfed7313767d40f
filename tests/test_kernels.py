"""The packed kernel against Fraction arithmetic and sympy."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import starkit
from starkit import _kernel as K
from starkit.errors import InputError


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


# -- references that share no code with the kernel --------------------------
#
# A Fraction map sends an exponent tuple to a (real, imaginary) pair of
# Fractions; a packed key is decoded field by field here, not by the kernel.

def as_fraction_map(t):
    return {e: as_fraction_pair(c) for e, c in t.items()}


def ref_product(t1, t2, w=(1, 0)):
    """w * t1 * t2 by the schoolbook loop over pairs of terms."""
    wr, wi = Fraction(w[0]), Fraction(w[1])
    out = {}
    for e1, (x, y) in as_fraction_map(t1).items():
        for e2, (u, v) in as_fraction_map(t2).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            pr, pi = x * u - y * v, x * v + y * u
            old = out.get(e, (0, 0))
            out[e] = (old[0] + wr * pr - wi * pi, old[1] + wr * pi + wi * pr)
    return nonzero(out)


def ref_diff(t, var):
    out = {}
    for e, (x, y) in as_fraction_map(t).items():
        k = e[var]
        if k:
            out[e[:var] + (k - 1,) + e[var + 1:]] = (k * x, k * y)
    return out


def nonzero(fmap):
    return {e: c for e, c in fmap.items() if c != (0, 0)}


def pack(e, width):
    return sum(k << (width * j) for j, k in enumerate(e))


def unpack(p, den, width, arity=2):
    """The Fraction map of a packed map over den, zero terms dropped."""
    fields = [[(key >> (width * j)) % (1 << width) for j in range(arity)]
              for key in p]
    return nonzero({tuple(e): (Fraction(a, den), Fraction(b, den))
                    for e, (a, b) in zip(fields, p.values())})


def lcm_of_denominators(t):
    return math.lcm(*(d for c in t.values() for d in (c[1], c[3])))


def narrowest(bits):
    return min(w for w in (8, 16, 32, 64) if w >= bits)


def packed_pair(t1, t2):
    """The numerators of t1 and t2 in the fields of their product, with
    the product's denominator and field width."""
    (w1, d1, p1), (w2, d2, p2) = K.lift(t1), K.lift(t2)
    width = K.field_width((K.top(p1, 2, w1) + K.top(p2, 2, w2)).bit_length())
    return (K.repack(p1, 2, w1, width), K.repack(p2, 2, w2, width), d1 * d2,
            width)


@settings(max_examples=40)
@given(term_maps, term_maps)
def test_lift_then_lower_gives_back_the_map(t1, t2):
    for t in (t1, t2):
        width, den, p = K.lift(t)
        # the canonical form: den is the lcm of the denominators and is
        # coprime to the numerators, and the fields are the narrowest of
        # 8, 16, 32 and 64 bits that hold the largest exponent
        assert den == lcm_of_denominators(t)
        assert math.gcd(den, *(x for c in p.values() for x in c)) == 1
        top = max(map(max, t), default=0)
        assert K.top(p, 2, width) == top
        assert width == narrowest(top.bit_length())
        assert K.lower(p, den, 2, width) == t
        assert unpack(p, den, width) == as_fraction_map(t)
        assert K.normal(dict(p), den, 2, width) == (width, den, p)
    # a product's fields hold the sum of the two maps' largest exponents
    need = (max(map(max, t1), default=0)
            + max(map(max, t2), default=0)).bit_length()
    assert packed_pair(t1, t2)[3] == narrowest(need)


@pytest.mark.parametrize("arity", [20, 128])
@pytest.mark.parametrize("top, width", [(255, 8), (256, 16), (70_000, 32),
                                        (2 ** 40, 64)])
def test_lift_then_lower_gives_back_wide_maps(arity, top, width):
    # the largest exponent sits in the first, a middle and the last
    # variable, beside small and zero exponents
    t = {}
    for j, var in enumerate((0, arity // 2, arity - 1)):
        e = [(v * 7 + j) % 5 for v in range(arity)]
        e[var] = top
        t[tuple(e)] = (2 * j + 1, j + 2, -j, 1)
    t[(0,) * arity] = (0, 1, 1, 3)
    t = {e: norm_coeff(c) for e, c in t.items()}
    w, den, p = K.lift(t)
    assert w == width
    assert K.top(p, arity, w) == top
    assert K.lower(p, den, arity, w) == t
    assert unpack(p, den, w, arity) == as_fraction_map(t)
    # repacked to the widest fields and back, the keys are the same
    assert K.repack(K.repack(p, arity, w, 64), arity, 64, w) == p
    assert unpack(K.repack(p, arity, w, 64), den, 64, arity) == \
        as_fraction_map(t)


def test_keys_past_64_bit_fields_are_refused():
    # a product whose fields would pass 64 bits is refused
    with pytest.raises(InputError, match="64"):
        K.field_width(65)
    half = starkit.SparsePoly(2, {(2 ** 63, 1): 1})
    assert half._form[0] == 64
    with pytest.raises(InputError, match="64"):
        half * half
    big = starkit.SparsePoly(2, {(2 ** 63, 0): 1})
    with pytest.raises(InputError, match="64"):
        big * big
    # a polynomial itself is stored past 64 bits in whole 64-bit words
    t = {(2 ** 64, 0): (1, 1, 0, 1), (3, 2 ** 70): (1, 2, 0, 1)}
    width, den, p = K.lift(t)
    assert (width, K.top(p, 2, width)) == (128, 2 ** 70)
    assert K.lower(p, den, 2, width) == t
    wide = starkit.SparsePoly(2, {e: 1 for e in t})
    for other in (starkit.SparsePoly.variable(2, 1), wide):
        with pytest.raises(InputError, match="64"):
            wide * other


@settings(max_examples=40)
@given(term_maps, st.sampled_from([0, 1]))
def test_mdiff_matches_fraction_loop(t, var):
    width, den, p = K.lift(t)
    got = K.mdiff(p, var, width)
    assert unpack(got, den, width) == ref_diff(t, var)
    assert K.lower(got, den, 2, width) == {
        e: norm_coeff((x.numerator, x.denominator, y.numerator, y.denominator))
        for e, (x, y) in ref_diff(t, var).items()}


@pytest.mark.parametrize("with_step", [False, True])
@pytest.mark.parametrize("top, width", [(7, 8), (300, 16)])
@settings(max_examples=40)
@given(data=st.data())
def test_mdiff_divisors_leave_binomial_coefficients(data, top, width,
                                                    with_step):
    # k derivatives in turn, the m-th divided by m, as the Moyal walk
    # takes one entry k times: each term c z^e becomes C(e, k) c z^(e-k),
    # every division exact
    exp = st.integers(0, top)
    t = data.draw(st.dictionaries(st.tuples(exp, exp), nonzero_coeffs,
                                  max_size=6))
    t[(top, top)] = norm_coeff((1, 1, 1, 2))  # pins the field width
    var = data.draw(st.sampled_from([0, 1]))
    k = data.draw(st.integers(1, 7))
    w, den, p = K.lift(t)
    assert w == width
    step = (1 << var * width) - (1 << 2 * width) if with_step else None
    for m in range(1, k + 1):
        p = K.mdiff(p, var, width, step, m)
    want = {}
    for e, (x, y) in as_fraction_map(t).items():
        c = math.comb(e[var], k)
        if c:
            e = e[:var] + (e[var] - k,) + e[var + 1:]
            want[e + (k,) * with_step] = (c * x, c * y)
    assert unpack(p, den, width, 2 + with_step) == want


@settings(max_examples=40)
@given(term_maps, st.sampled_from([0, 1]))
def test_mdiff_key_step_moves_each_derivative_key(t, var):
    # a step of one in var's field less one in a third field, as the
    # Moyal walk takes h: each term of the derivative gains that field
    width, den, p = K.lift(t)
    h = 1 << 2 * width
    got = K.mdiff(p, var, width, (1 << var * width) - h)
    assert got == {key + h: c for key, c in K.mdiff(p, var, width).items()}
    assert K.lower(got, den, 3, width) == {
        e + (1,): norm_coeff((x.numerator, x.denominator,
                              y.numerator, y.denominator))
        for e, (x, y) in ref_diff(t, var).items()}


packed_numerators = st.dictionaries(
    exps, st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=6)


@settings(max_examples=60)
@given(term_maps, term_maps, packed_numerators, st.integers(-5, 5),
       st.integers(-5, 5))
def test_maddmul_agrees_and_accumulates(t1, t2, start, wr, wi):
    p1, p2, den, width = packed_pair(t1, t2)
    # a non-empty start over the product's denominator, inside the fields
    # sized for t1 * t2
    start = {e: ab for e, ab in start.items() if max(e) < 1 << width}
    acc = {pack(e, width): ab for e, ab in start.items()}
    assert K.maddmul(acc, p1, p2, wr, wi) is acc
    want = {e: (Fraction(a, den), Fraction(b, den))
            for e, (a, b) in start.items()}
    for e, (x, y) in ref_product(t1, t2, (wr, wi)).items():
        old = want.get(e, (0, 0))
        want[e] = (old[0] + x, old[1] + y)
    assert unpack(acc, den, width) == nonzero(want)


@settings(max_examples=40)
@given(term_maps, term_maps)
def test_mmul_commutes_and_has_no_zero_entries(t1, t2):
    p1, p2, den, width = packed_pair(t1, t2)
    p = K.mmul(p1, p2)
    assert p == K.mmul(p2, p1)
    assert unpack(p, den, width) == ref_product(t1, t2)
    # normalized once, the product is canonical: no zero entries, and
    # positive denominators in lowest terms
    w, d, q = K.normal(p, den, 2, width)
    assert all(a or b for a, b in q.values())
    assert d > 0 and math.gcd(d, *(x for c in q.values() for x in c)) == 1
    assert w == narrowest(K.top(q, 2, w).bit_length())
    assert unpack(q, d, w) == ref_product(t1, t2)
    for c in K.lower(q, d, 2, w).values():
        assert c == norm_coeff(c) and c[1] > 0 and c[3] > 0


@settings(max_examples=60)
@given(st.dictionaries(exps, nonzero_coeffs, min_size=1, max_size=1),
       term_maps)
def test_mmul_by_one_term_is_the_packed_product(t1, t2):
    # a one-term factor only shifts and scales the other; the result is
    # the same map, in the same order, as the loop over pairs gives
    p1, p2, _, _ = packed_pair(t1, t2)
    want = K.maddmul({}, p1, p2, 1, 0)
    for p in (K.mmul(p1, p2), K.mmul(p2, p1)):
        assert list(p.items()) == list(want.items())
        assert all(a or b for a, b in p.values())


def _map_to_sympy(t, x, y):
    total = sympy.Integer(0)
    for (e1, e2), (rn, rd, jn, jd) in t.items():
        total += (sympy.Rational(rn, rd) + sympy.I * sympy.Rational(jn, jd)) \
            * x ** e1 * y ** e2
    return sympy.expand(total)


T1 = {(2, 0): (1, 2, 0, 1), (0, 1): (0, 1, -3, 1), (1, 1): (2, 3, 1, 5)}
T2 = {(0, 2): (4, 1, 0, 1), (1, 0): (-1, 3, 1, 2), (0, 0): (0, 1, 1, 1)}


def test_mmul_against_sympy():
    x, y = sympy.symbols("x y")
    p1, p2, den, width = packed_pair(T1, T2)
    got = _map_to_sympy(K.lower(K.mmul(p1, p2), den, 2, width), x, y)
    want = sympy.expand(_map_to_sympy(T1, x, y) * _map_to_sympy(T2, x, y))
    assert sympy.simplify(got - want) == 0


def test_maddmul_against_sympy():
    x, y = sympy.symbols("x y")
    p1, p2, den, width = packed_pair(T1, T2)
    assert den == 30 * 6
    # start from 7/den x^3 y - 2i/den, then add (2 - 3i) T1 T2
    acc = {pack((3, 1), width): (7, 0), 0: (0, -2)}
    K.maddmul(acc, p1, p2, 2, -3)
    got = _map_to_sympy(K.lower(acc, den, 2, width), x, y)
    want = sympy.expand(
        sympy.Rational(7, den) * x ** 3 * y - 2 * sympy.I / den
        + (2 - 3 * sympy.I) * _map_to_sympy(T1, x, y)
        * _map_to_sympy(T2, x, y))
    assert sympy.simplify(got - want) == 0


def test_mdiff_against_sympy():
    x, y = sympy.symbols("x y")
    t = {(3, 1): (1, 1, 0, 1), (0, 2): (5, 2, -1, 3), (1, 0): (0, 1, 2, 1)}
    width, den, p = K.lift(t)
    for var, s in ((0, x), (1, y)):
        got = _map_to_sympy(K.lower(K.mdiff(p, var, width), den, 2, width),
                            x, y)
        want = sympy.expand(sympy.diff(_map_to_sympy(t, x, y), s))
        assert sympy.simplify(got - want) == 0


def test_zero_polynomial_is_empty_dict():
    width, den, p = K.lift({(1, 0): (1, 1, 0, 1)})
    zero = (8, 1, {})
    assert K.normal(K.madd(p, p, 1, -1), den, 2, width) == zero
    assert K.mmul(p, {}) == {}
    assert K.normal(K.mmul(p, {0: (0, 0)}), den, 2, width) == zero
    assert starkit.SparsePoly.zero(2)._form == zero


def test_backend_is_the_python_kernel():
    assert starkit.BACKEND == "python"
