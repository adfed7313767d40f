from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from starkit.atlas import ChartMap
from starkit.corpus import random_poly
from starkit.errors import ArityError, InputError
from starkit.moyal import StarProduct
from starkit.parsing import parse_series
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex
from starkit.series import HbarSeries

from oracles import (assert_canonical, ref_add, ref_mul, ref_parse_series,
                     ref_scale, ref_series, ref_shift, ref_star_series,
                     ref_truncate, series_to_sympy, symbols_for)

seeds = st.integers(0, 10_000)


def make_series(arity, order, seed):
    # one independent polynomial coefficient per power of h
    F = HbarSeries.zero(arity, order)
    for k in range(order + 1):
        F = F + HbarSeries.from_poly(random_poly(arity, 2, seed + 31 * k),
                                     order).shift(k)
    return F


def test_from_poly_puts_everything_at_h0():
    p = SparsePoly.variable(2, 1)
    F = HbarSeries.from_poly(p, 3)
    assert F.coeffs[0] == p
    assert all(F.coeffs[k].is_zero() for k in (1, 2, 3))


def test_shift_moves_coefficients_and_truncates():
    p = SparsePoly.variable(2, 1)
    F = HbarSeries.from_poly(p, 2).shift(1)
    assert F.coeffs[0].is_zero()
    assert F.coeffs[1] == p
    # shifting past the truncation order loses the term entirely
    assert F.shift(2).is_zero()


def test_truncate_drops_high_orders():
    F = make_series(2, 4, seed=5)
    G = F.truncate(2)
    assert G.order == 2
    assert G.coeffs == F.coeffs[:3]


def test_mixed_orders_truncate_to_the_shorter():
    F = make_series(2, 4, seed=1)
    G = make_series(2, 2, seed=2)
    assert (F + G).order == 2
    assert (F * G).order == 2


@pytest.mark.parametrize("make", [
    lambda: HbarSeries.zero(2, -1),
    lambda: HbarSeries.from_poly(SparsePoly.variable(2, 1), -1),
    lambda: make_series(2, 2, seed=3).truncate(-1),
    lambda: parse_series("z1 + h", 2, -1),
], ids=["zero", "from_poly", "truncate", "parse_series"])
def test_negative_order_is_refused(make):
    # an order -1 series would hold no coefficient at all, which
    # HbarSeries(coeffs) itself refuses
    with pytest.raises(InputError, match="order must be nonnegative"):
        make()


def test_arity_mismatch_raises():
    F = HbarSeries.zero(2, 3)
    G = HbarSeries.zero(4, 3)
    with pytest.raises(ArityError):
        F + G


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_product_matches_sympy_mod_h(s1, s2):
    order = 3
    F = make_series(2, order, s1)
    G = make_series(2, order, s2)
    syms = symbols_for(2)
    h = sympy.Symbol("h")
    got = series_to_sympy(F * G, syms, h)
    full = sympy.expand(series_to_sympy(F, syms, h)
                        * series_to_sympy(G, syms, h))
    # agreement holds modulo h^(order+1)
    want = full.series(h, 0, order + 1).removeO()
    assert sympy.simplify(sympy.expand(got - want)) == 0


@settings(max_examples=20)
@given(seeds, seeds, seeds)
def test_series_ring_identities(s1, s2, s3):
    order = 3
    F = make_series(2, order, s1)
    G = make_series(2, order, s2)
    H = make_series(2, order, s3)
    assert (F + G) * H == F * H + G * H
    assert (F * G) * H == F * (G * H)
    assert (F - F).is_zero()


def test_scale_by_rational():
    F = make_series(2, 2, seed=9)
    G = F.scale(Fraction(1, 3)).scale(3)
    assert G == F


def test_map_coeffs():
    F = make_series(2, 2, seed=4)
    G = F.map_coeffs(lambda p: p + p)
    assert G == F + F


# -- the packed series against the coefficient-tuple oracle -------------------

parts = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
gauss = st.builds(ExactComplex, parts, parts)


@st.composite
def coefficient(draw, arity, wide):
    """A polynomial, often zero; exponents past 255 widen it to 16 bits."""
    top = 300 if wide else 3
    exps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, top)),
                    min_size=arity, max_size=arity).map(tuple)
    return SparsePoly(arity, draw(st.one_of(
        st.just({}), st.dictionaries(exps, gauss, max_size=4))))


@st.composite
def coefficient_lists(draw, arity=None, order=None, wide=None):
    """The coefficients of a series of order 0-8 in 1-6 variables, with
    zero coefficients inside and at the end, in 8- or 16-bit fields."""
    arity = draw(st.integers(1, 6)) if arity is None else arity
    order = draw(st.integers(0, 8)) if order is None else order
    wide = draw(st.booleans()) if wide is None else wide
    coeffs = [draw(coefficient(arity, wide)) for _ in range(order + 1)]
    trailing = draw(st.integers(0, order))
    return coeffs[:order + 1 - trailing] + [SparsePoly.zero(arity)] * trailing


def assert_series(F, arity, coeffs):
    """F is canonical and holds exactly these coefficients."""
    assert_canonical(F.packed)
    assert (F.arity, F.order) == (arity, len(coeffs) - 1)
    assert ref_series(F) == (arity, tuple(coeffs))
    assert [F[k] for k in range(F.order + 1)] == list(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_arithmetic_matches_the_coefficient_oracle(data):
    fs = data.draw(coefficient_lists(), label="fs")
    arity = fs[0].arity
    gs = data.draw(coefficient_lists(arity), label="gs")
    F, G = HbarSeries(fs), HbarSeries(gs)
    assert_series(F, arity, fs)
    assert_series(F + G, arity, ref_add(fs, gs))
    assert_series(F - G, arity, ref_add(fs, gs, -1))
    value = data.draw(gauss, label="value")
    assert_series(F.scale(value), arity, ref_scale(fs, value))
    j = data.draw(st.integers(0, 10), label="j")
    assert_series(F.shift(j), arity, ref_shift(fs, j))
    order = data.draw(st.integers(0, 10), label="order")
    assert_series(F.truncate(order), arity, ref_truncate(fs, order))
    if not data.draw(st.booleans(), label="wide product"):
        # the kernel refuses products past 64-bit fields alike both ways
        assert_series(F * G, arity, ref_mul(fs, gs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_with_a_polynomial_or_scalar_operand_matches_the_oracle(data):
    # the other operand is the series of order F.order with it at h^0
    fs = data.draw(coefficient_lists(), label="fs")
    arity, order = fs[0].arity, len(fs) - 1
    p = data.draw(coefficient(arity, data.draw(st.booleans(), label="wide")),
                  label="p")
    F = HbarSeries(fs)
    zeros = [SparsePoly.zero(arity)] * order
    one = [SparsePoly.const(arity, 1)] + zeros
    assert_series(F + 1, arity, ref_add(fs, one))
    assert_series(1 - F, arity, ref_add(one, fs, -1))
    assert_series(2 * F, arity, ref_scale(fs, 2))
    assert_series(-F, arity, ref_scale(fs, -1))
    assert_series(F + p, arity, ref_add(fs, [p] + zeros))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_equality_and_hash_match_the_coefficient_oracle(data):
    fs = data.draw(coefficient_lists(), label="fs")
    gs = data.draw(coefficient_lists(fs[0].arity, len(fs) - 1), label="gs")
    F, G = HbarSeries(fs), HbarSeries(gs)
    # equal exactly when the coefficient tuples are, whatever the path
    assert (F == G) == (tuple(fs) == tuple(gs))
    again = (F + G - G).truncate(F.order)
    assert again == F and hash(again) == hash(F)
    same = HbarSeries(list(F.coeffs))
    assert same == F and hash(same) == hash(F)
    assert F.truncate(F.order + 2) != F


@settings(max_examples=60, deadline=None)
@given(coefficient_lists(wide=False), st.integers(0, 10))
def test_parse_series_matches_the_coefficient_oracle(fs, order):
    # "^" stops at degree 64, so the text holds 8-bit exponents only
    F = HbarSeries(fs)
    text = str(F)
    got = parse_series(text, F.arity, order)
    assert_series(got, F.arity, ref_parse_series(text, F.arity, order))
    assert got == F.truncate(order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_star_series_matches_the_coefficient_oracle(data):
    pairs = data.draw(st.integers(1, 3), label="pairs")
    star = StarProduct.standard(pairs)
    fs = data.draw(coefficient_lists(2 * pairs, data.draw(
        st.integers(0, 4), label="f order")), label="fs")
    gs = data.draw(coefficient_lists(2 * pairs, data.draw(
        st.integers(0, 4), label="g order")), label="gs")
    got = star.star_series(HbarSeries(fs), HbarSeries(gs))
    assert_series(got, 2 * pairs, ref_star_series(star, fs, gs))


@settings(max_examples=40, deadline=None)
@given(coefficient_lists(2), gauss, gauss)
def test_translated_series_matches_the_pull_of_each_coefficient(fs, c, d):
    F = HbarSeries(fs)
    for chart_map in (ChartMap.translation(c), ChartMap([[1, 0], [0, 1]],
                                                        [c, d])):
        got = chart_map.pull(F)
        assert_series(got, 2, F.map_coeffs(chart_map.pull).coeffs)
