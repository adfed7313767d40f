import hashlib
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import poly_to_sympy, symbols_for

from starkit.corpus import random_poly
from starkit.errors import ArityError, ParseError
from starkit.parsing import (MAX_TERMS, parse_expr, parse_poly, parse_scalar,
                             parse_series, poly_to_str, series_to_str)
from starkit.poly import SparsePoly


def test_precedence_and_power():
    f = parse_poly("z1 + z2 * z1^2", 2)
    want = (SparsePoly.variable(2, 1)
            + SparsePoly.variable(2, 2) * SparsePoly.variable(2, 1) ** 2)
    assert f == want


def test_unary_minus_binds_below_power():
    # -z1^2 means -(z1^2)
    f = parse_poly("-z1^2", 2)
    assert f == -(SparsePoly.variable(2, 1) ** 2)


def test_parenthesized_groups():
    f = parse_poly("(z1 + z2)^2", 2)
    g = parse_poly("z1^2 + 2*z1*z2 + z2^2", 2)
    assert f == g


def test_imaginary_unit():
    f = parse_poly("i*z1 - i^2", 2)
    assert str(f) == "i*z1 + 1"


def test_qp_aliases():
    assert parse_poly("q1", 4) == parse_poly("z1", 4)
    assert parse_poly("p1", 4) == parse_poly("z2", 4)
    assert parse_poly("q2*p2", 4) == parse_poly("z3*z4", 4)


def test_division_by_constant_only():
    f = parse_poly("z1/2", 2)
    assert str(f) == "1/2*z1"
    with pytest.raises(ParseError, match="constant"):
        parse_poly("z1/z2", 2)
    with pytest.raises(ParseError, match="zero"):
        parse_poly("z1/(2-2)", 2)


def test_float_rejected_with_hint():
    with pytest.raises(ParseError, match="exact rational like 1/2"):
        parse_poly("0.5*z1", 2)


def test_error_columns_are_one_based():
    with pytest.raises(ParseError) as exc:
        parse_poly("z1 + $", 2)
    assert exc.value.column == 6
    with pytest.raises(ParseError) as exc:
        parse_poly("z9", 2)
    assert exc.value.column == 1


def test_h_allowed_only_in_series():
    with pytest.raises(ParseError):
        parse_poly("h*z1", 2)
    F = parse_series("z1 + i*h^2", 2, order=3)
    assert F.coeffs[0] == SparsePoly.variable(2, 1)
    assert str(F.coeffs[2]) == "i"


def test_series_truncates_high_powers():
    F = parse_series("z1*h^5", 2, order=3)
    assert F.is_zero()


def test_unbounded_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("z1 z2", 2)
    with pytest.raises(ParseError):
        parse_poly("", 2)
    with pytest.raises(ParseError):
        parse_poly("(z1", 2)


def test_arity_is_enforced():
    with pytest.raises(ParseError):
        parse_poly("z3", 2)
    parse_poly("z3", 4)


def test_parse_scalar():
    c = parse_scalar("1/2 - 3*i")
    assert str(c) == "1/2-3*i"
    with pytest.raises(ParseError):
        parse_scalar("z1")


def test_canonical_star_output_form():
    # the exact shape other tools match on
    F = parse_series("z1*z2 - 1/2*i*h", 2, order=3)
    assert series_to_str(F) == "z1*z2 - 1/2*i*h"


def test_printer_parenthesizes_mixed_coefficients():
    f = parse_poly("(1 + 1/2*i)*z1", 2)
    assert str(f) == "(1+1/2*i)*z1"
    assert parse_poly(str(f), 2) == f


def test_printer_orders_terms_grlex_descending():
    f = parse_poly("1 + z2 + z1 + z2^2", 2)
    assert str(f) == "z2^2 + z1 + z2 + 1"


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_poly_round_trip(seed, pairs):
    arity = 2 * pairs
    f = random_poly(arity, 4, seed)
    assert parse_poly(poly_to_str(f), arity) == f


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_series_round_trip(seed):
    from starkit.series import HbarSeries
    order = 3
    F = HbarSeries.zero(2, order)
    for k in range(order + 1):
        F = F + HbarSeries.from_poly(random_poly(2, 3, seed + 7 * k),
                                     order).shift(k)
    assert parse_series(series_to_str(F), 2, order) == F


def test_parse_expr_picks_series_when_order_given():
    F = parse_expr("z1 + h", 2, order=2)
    assert F.order == 2
    f = parse_expr("z1", 2)
    assert isinstance(f, SparsePoly)


TWELVE = "(" + "+".join(f"z{i}" for i in range(1, 13)) + ")"


def test_term_limit_counts_monomials_when_smaller():
    # 15 terms to the 8th are C(22, 8) = 319770 multisets, over the limit,
    # but two variables hold only C(34, 2) = 561 monomials of degree <= 32
    f = parse_poly("((1+z1+z2)^4)^8", 2)
    assert len(f) == 561
    assert f == parse_poly("(1+z1+z2)^32", 2)
    # 78 times 364 term products, but C(17, 5) = 6188 monomials
    g = parse_poly(f"{TWELVE}^2*{TWELVE}^3", 12)
    assert g == parse_poly(f"{TWELVE}^5", 12)


def test_term_limit_refuses_products_and_powers():
    with pytest.raises(ParseError, match=f"up to 31824 terms is over the "
                                         f"limit of {MAX_TERMS}"):
        parse_poly(f"{TWELVE}^7", 12)
    # 364 times 1365 term products, C(19, 7) monomials of degree 7 or less
    with pytest.raises(ParseError, match="up to 50388 terms"):
        parse_poly(f"{TWELVE}^3*{TWELVE}^4", 12)


# -- the text layer against sympy ------------------------------------------

ARITY = 18
SYMS = symbols_for(ARITY)
# sympy reads our text with "^" as "**", q<k>/p<k> as z<2k-1>/z<2k> and
# i as the imaginary unit
SYMPY_NAMES = {"i": sympy.I,
               **{f"z{k}": SYMS[k - 1] for k in range(1, ARITY + 1)},
               **{f"q{k}": SYMS[2 * k - 2] for k in range(1, ARITY // 2 + 1)},
               **{f"p{k}": SYMS[2 * k - 1] for k in range(1, ARITY // 2 + 1)}}
PRODUCT_NAMES = tuple(f"{c}{k}" for k in range(1, ARITY // 2 + 1)
                      for c in "qp")


def sympy_reads(text: str) -> sympy.Expr:
    return sympy.expand(sympy.parse_expr(text.replace("^", "**"),
                                         local_dict=SYMPY_NAMES))


_ATOMS = st.one_of(
    st.integers(1, ARITY).map(lambda k: f"z{k}"),
    st.integers(1, ARITY // 2).map(lambda k: f"q{k}"),
    st.integers(1, ARITY // 2).map(lambda k: f"p{k}"),
    st.integers(0, 12).map(str),
    st.just("i"))
# nonzero constants, as "/" allows
_DIVISORS = st.sampled_from(["2", "3", "7", "i", "(1+i)", "(2 - 3*i)",
                             "(1/2)", "-5"])


@st.composite
def expression_texts(draw, depth=3):
    """Expression text of nesting at most depth; degree at most 24."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        atom = draw(_ATOMS)
        k = draw(st.integers(0, 3))
        return atom if k == 1 else f"{atom}^{k}"
    kind = draw(st.sampled_from(["+", "-", "*", "/", "()", "^", "neg"]))
    a = draw(expression_texts(depth - 1))
    if kind in ("+", "-", "*"):
        b = draw(expression_texts(depth - 1))
        return f"{a} {kind} {b}"
    if kind == "/":
        return f"{a}/{draw(_DIVISORS)}"
    if kind == "()":
        return f"({a})"
    if kind == "^":
        return f"({a})^{draw(st.integers(0, 2))}"
    return f"-{a}"


@settings(max_examples=150, deadline=None)
@given(expression_texts())
def test_parser_agrees_with_sympy(text):
    f = parse_poly(text, ARITY)
    assert poly_to_sympy(f, SYMS) == sympy_reads(text), text


@settings(max_examples=100, deadline=None)
@given(st.one_of(expression_texts().map(lambda t: parse_poly(t, ARITY)),
                 st.integers(0, 10_000).map(
                     lambda seed: random_poly(ARITY, 4, seed))),
       st.sampled_from([None, PRODUCT_NAMES]))
def test_sympy_reads_the_printed_text(f, names):
    text = poly_to_str(f, names)
    assert sympy_reads(text) == poly_to_sympy(f, SYMS), text


def _token_soup(count: int, seed: int) -> list:
    """Seeded texts over the tokenizer's alphabet: digits, names, operators,
    i and h, a float point, a stray letter and whitespace with newlines."""
    rng = random.Random(seed)
    alphabet = "z1 2q p3+-*/^()ih.x 09\n"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 16)))
            for _ in range(count)]


def _outcome(text: str) -> str:
    """The parsed series of text, or its error message with the column."""
    try:
        return series_to_str(parse_series(text, 3, 2))
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_token_soup_results_are_pinned():
    # SHA-256 of each text's outcome, recorded once trailing whitespace
    # was read as nothing (988 texts that end in whitespace changed then)
    digest = hashlib.sha256()
    for text in _token_soup(20_000, seed=24):
        digest.update(_outcome(text).encode() + b"\0")
    assert digest.hexdigest() == (
        "9425420720feb2cefca8321a817b3563b3bb41469a0ab47bc86c67f76b8e7683")


def test_trailing_whitespace_changes_no_outcome():
    # a text gives the result, or the error message and column, of the
    # same text without its trailing whitespace
    texts = _token_soup(20_000, seed=24)
    texts += ["z1 ", "z1\t", "z1 \n", "z1\n ", "z1 + \t", "(z1 ", "1. "]
    for text in texts:
        if text != text.rstrip():
            assert _outcome(text) == _outcome(text.rstrip()), repr(text)
    assert _outcome("z1 +\t ") == _outcome("z1 +") == (
        "ParseError: syntax error at column 5: expected an operand")
