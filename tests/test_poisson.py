"""Bracket sign conventions and the bracket axioms.

The fixed convention: for the standard form on one pair, {z1, z2} = -1.
Everything downstream (the first-order star asymmetry, transported
brackets, chart brackets) inherits signs from here, so these oracles are
pinned as literal values.
"""

import json
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from starkit.corpus import random_poly
from starkit.errors import InputError
from starkit.moyal import StarProduct
from starkit.parsing import parse_scalar
from starkit.poisson import (PoissonBivector, SymplecticForm,
                             antisymmetry_residual, bilinearity_residual,
                             bivector_from_form, form_from_bivector,
                             jacobi_residual, leibniz_residual,
                             standard_bivector)
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex

from conftest import fixture_path
from oracles import bivector_to_sympy, poly_to_sympy, ref_bracket, symbols_for

seeds = st.integers(0, 10_000)


def test_standard_form_matrix():
    form = SymplecticForm.standard(1)
    want = [[ExactComplex(0), ExactComplex(-1)],
            [ExactComplex(1), ExactComplex(0)]]
    assert [list(r) for r in form.matrix] == want


def test_standard_bracket_sign():
    biv = standard_bivector(1)
    z1 = SparsePoly.variable(2, 1)
    z2 = SparsePoly.variable(2, 2)
    assert biv.bracket(z1, z2) == SparsePoly.const(2, -1)
    assert biv.bracket(z2, z1) == SparsePoly.const(2, 1)


def gaussian_form():
    """A non-block Gaussian form with Pfaffian 3."""
    i = ExactComplex(0, 1)
    return SymplecticForm([
        [0, 1, i, 2],
        [-1, 0, Fraction(1, 2), -i],
        [-i, Fraction(-1, 2), 0, 3],
        [-2, i, -3, 0],
    ])


def test_bivector_from_form_matches_inverse_transpose():
    # pi pinned as literals
    form = gaussian_form()
    biv = bivector_from_form(form)
    assert [[str(x) for x in row] for row in biv.matrix] == [
        ["0", "1", "1/3*i", "1/6"],
        ["-1", "0", "2/3", "-1/3*i"],
        ["-1/3*i", "-2/3", "0", "1/3"],
        ["-1/6", "1/3*i", "-1/3", "0"],
    ]
    from starkit import linalg
    assert (linalg.mat_mul(biv.matrix, linalg.transpose(form.matrix))
            == linalg.identity(4))


def test_form_bivector_round_trip():
    for pairs in (1, 2, 3):
        form = SymplecticForm.standard(pairs)
        assert form_from_bivector(bivector_from_form(form)) == form


def test_nonstandard_form_round_trip():
    # a valid non-block form: antisymmetric, invertible
    form = SymplecticForm([
        [0, 2, 0, 0],
        [-2, 0, 0, 0],
        [0, 0, 0, Fraction(-1, 3)],
        [0, 0, Fraction(1, 3), 0],
    ])
    assert form_from_bivector(bivector_from_form(form)) == form


@pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5, 6, 19])
def test_standard_form_inverse_is_closed_form(pairs):
    # standard() goes through the general constructor, which eliminates;
    # each block squares to -1, so the inverse it finds is -T
    from starkit import linalg
    form = SymplecticForm.standard(pairs)
    assert form.inverse == linalg.mat_inv(form.matrix)
    assert form.inverse == linalg.mat_neg(form.matrix)
    general = SymplecticForm(form.matrix)
    assert general == form and hash(general) == hash(form)


def test_form_validation():
    with pytest.raises(InputError):
        SymplecticForm([[0, 1], [1, 0]])  # symmetric
    with pytest.raises(InputError):
        SymplecticForm([[0]])  # odd dimension
    with pytest.raises(InputError):
        SymplecticForm([[0, 0], [0, 0]])  # degenerate


# the Gaussian form's pi has denominators 3 and 6 and imaginary entries,
# so the bracket's entries do not sit over denominator 1
@pytest.mark.parametrize("biv", [
    standard_bivector(2), bivector_from_form(gaussian_form()),
], ids=["standard", "gaussian"])
@settings(max_examples=30, deadline=None)
@given(seeds, seeds)
def test_bracket_matches_sympy(biv, s1, s2):
    f = random_poly(4, 3, s1)
    g = random_poly(4, 3, s2)
    syms = symbols_for(4)
    got = poly_to_sympy(biv.bracket(f, g), syms)
    want = ref_bracket(poly_to_sympy(f, syms), poly_to_sympy(g, syms),
                       bivector_to_sympy(biv), syms)
    assert sympy.simplify(got - want) == 0


@settings(max_examples=25)
@given(seeds, seeds, seeds)
def test_bracket_axioms_on_random_inputs(s1, s2, s3):
    biv = standard_bivector(1)
    f = random_poly(2, 4, s1)
    g = random_poly(2, 4, s2)
    h = random_poly(2, 4, s3)
    assert antisymmetry_residual(biv, f, g).is_zero()
    assert leibniz_residual(biv, f, g, h).is_zero()
    assert jacobi_residual(biv, f, g, h).is_zero()
    assert bilinearity_residual(biv, f, g, h,
                                ExactComplex(Fraction(2, 3), 1)).is_zero()


def test_bracket_axioms_in_dim_four():
    biv = standard_bivector(2)
    f = random_poly(4, 3, 1)
    g = random_poly(4, 3, 2)
    h = random_poly(4, 3, 3)
    assert antisymmetry_residual(biv, f, g).is_zero()
    assert leibniz_residual(biv, f, g, h).is_zero()
    assert jacobi_residual(biv, f, g, h).is_zero()


def test_bracket_of_constants_vanishes():
    biv = standard_bivector(1)
    one = SparsePoly.const(2, 1)
    f = random_poly(2, 3, 17)
    assert biv.bracket(one, f).is_zero()
    assert biv.bracket(f, one).is_zero()


def test_block_structure_makes_distant_pairs_commute():
    biv = standard_bivector(2)
    z1 = SparsePoly.variable(4, 1)
    z4 = SparsePoly.variable(4, 4)
    assert biv.bracket(z1, z4).is_zero()


# -- pinned values of the standard and Gaussian structures --------------------

def gauss4_form():
    rows = json.loads(pathlib.Path(fixture_path("form_gauss4.json"))
                      .read_text(encoding="utf-8"))
    return SymplecticForm([[parse_scalar(x) for x in row] for row in rows])


STANDARD_2 = ("[['0', '-1', '0', '0'], ['1', '0', '0', '0'], "
              "['0', '0', '0', '-1'], ['0', '0', '1', '0']]")
PINNED_STRUCTURES = {
    "form-standard-2": (lambda: SymplecticForm.standard(2),
                        f"SymplecticForm({STANDARD_2})"),
    "bivector-standard-2": (lambda: standard_bivector(2),
                            f"PoissonBivector({STANDARD_2})"),
    "form-gauss4": (gauss4_form, (
        "SymplecticForm([['0', '2/3', '1/2+i', '-1/5*i'], "
        "['-2/3', '0', '3/4', '1-2/7*i'], "
        "['-1/2-i', '-3/4', '0', '-5/2'], "
        "['1/5*i', '-1+2/7*i', '5/2', '0']])")),
    "bivector-gauss4": (lambda: bivector_from_form(gauss4_form()), (
        "PoissonBivector([['0', '1081500/1239829-444150/1239829*i', "
        "'381840/1239829-301260/1239829*i', "
        "'-324450/1239829+133245/1239829*i'], "
        "['-1081500/1239829+444150/1239829*i', '0', "
        "'35532/1239829+86520/1239829*i', "
        "'393960/1239829+343770/1239829*i'], "
        "['-381840/1239829+301260/1239829*i', "
        "'-35532/1239829-86520/1239829*i', '0', "
        "'-288400/1239829+118440/1239829*i'], "
        "['324450/1239829-133245/1239829*i', "
        "'-393960/1239829-343770/1239829*i', "
        "'288400/1239829-118440/1239829*i', '0']])")),
}


@pytest.mark.parametrize("name", sorted(PINNED_STRUCTURES))
def test_structures_print_compare_and_hash_by_their_matrix(name):
    build, text = PINNED_STRUCTURES[name]
    value = build()
    assert repr(value) == text
    again = type(value)(value.matrix)
    assert value == again and hash(value) == hash(again)
    assert hash(value) == hash(value.matrix)
    # a form and a bivector are never equal, even on the same matrix
    other = (PoissonBivector if isinstance(value, SymplecticForm)
             else SymplecticForm)(value.matrix)
    assert value != other and other != value
    assert value != value.matrix


@pytest.mark.parametrize("build, message", [
    (lambda: SymplecticForm([[0, 1], [1, 0]]),
     "a symplectic form must be antisymmetric"),
    (lambda: PoissonBivector([[0, 1], [1, 0]]),
     "a bivector must be antisymmetric"),
    (lambda: SymplecticForm([[1, 0], [0, 0]]),
     "a symplectic form must be antisymmetric"),
    (lambda: PoissonBivector([[0, 0], [0, 1]]),
     "a bivector must be antisymmetric"),
    (lambda: SymplecticForm.standard(0), "need at least one coordinate pair"),
    (lambda: standard_bivector(0), "need at least one coordinate pair"),
], ids=["form-symmetric", "bivector-symmetric", "form-diagonal",
        "bivector-diagonal", "form-no-pairs", "bivector-no-pairs"])
def test_structure_refusals_are_pinned(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("pairs", [1, 2, 3, 10])
def test_standard_star_steps_match_the_standard_forms(pairs):
    want = StarProduct.from_form(SymplecticForm.standard(pairs))
    assert StarProduct.standard(pairs)._pairs == want._pairs
