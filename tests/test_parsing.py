import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import poly_to_sympy, ref_pieces, symbols_for

from starkit.corpus import random_poly
from starkit.errors import ArityError, ParseError
from starkit.parsing import (MAX_TERMS, _join, parse_expr, parse_poly,
                             parse_scalar, parse_series, poly_to_str,
                             series_to_str)
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex
from starkit.series import HbarSeries


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


_LITERALS = ["0", "1", "2", "3", "7", "12", "255", "1000", "65537", "i"]
_OPERANDS = _LITERALS + ["h", "z1", "z2", "z3", "z4", "q1", "p1", "q2", "p2"]
_OPERATORS = ["+", "-", "*", "/", " + ", " - ", "*"]
_POWERS = ["^0", "^1", "^2", "^3", "^5", "^13", "^70"]
_STRAY = _OPERANDS + _OPERATORS + ["(", ")", "^", " ", "z0", "p3", "2.5"]


def _long_soup(count: int, seed: int) -> list:
    """Seeded texts of up to 60 characters: operands and operators in
    turn, with powers, parentheses and unary signs, a literal after each
    "/", and one token in twenty drawn from the whole alphabet."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        limit = rng.randrange(1, 61)
        text, depth, operand = "", 0, True
        while True:
            r = rng.random()
            if r < 0.05:
                tok = rng.choice(_STRAY)
            elif operand:
                tok = ("-" if r < 0.15 else "(" if r < 0.35 else rng.choice(
                    _LITERALS if text.endswith("/") else _OPERANDS))
            else:
                tok = (rng.choice(_POWERS) if r < 0.25
                       else ")" if r < 0.45 and depth
                       else rng.choice(_OPERATORS))
            if len(text) + len(tok) + depth + (tok == "(") > limit:
                break
            text += tok
            depth = max(depth + (tok == "(") - (tok == ")"), 0)
            if tok.strip():
                operand = tok.strip() in ("+", "-", "*", "/", "(")
        out.append(text + ")" * depth)
    return out


def test_long_token_soup_results_are_pinned():
    # about one text in five parses, most of those with a power, a
    # parenthesized group or a division
    digest = hashlib.sha256()
    for text in _long_soup(20_000, seed=29):
        try:
            out = series_to_str(parse_series(text, 4, 3))
        except ParseError as exc:
            out = f"ParseError: {exc}"
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == (
        "ef281bfe21c253ea14016cd528d6441244508bdc799b45ffee053fbeaaf84443")


# four 1000-digit literals multiply to about 13,300 bits
LONG_PRODUCT = "*".join(["9" * 1000] * 4)

# constant texts with their outcome at arity 3: zero is no term and has no
# coefficient bits, a nonzero constant's bits count its denominator too
SCALAR_OUTCOMES = [
    ("7", "7"),
    ("-3/4 + 2*i", "(-3/4+2*i)"),
    ("0^20000", "0"),
    ("(1-1)^20000", "0"),
    ("(0*z1)^65", "0"),
    ("(z1-z1)^5", "0"),
    ("--0", "0"),
    ("0/5", "0"),
    ("0*z1", "0"),
    ("z1^0", "1"),
    ("0^0", "1"),
    ("(z1+h)^0", "1"),
    ("(2*z1)^0", "1"),
    ("i^4", "1"),
    ("i^2", "-1"),
    ("2^64", "18446744073709551616"),
    ("(1/2)^3", "1/8"),
    ("(2*i)/(1+i)", "(1+i)"),
    ("1^10000", "1"),
    ("1^10001", "ParseError: syntax error at column 3: coefficients of "
     "about 10001 bits are over the limit of 10000"),
    ("1^20000", "ParseError: syntax error at column 3: coefficients of "
     "about 20000 bits are over the limit of 10000"),
    ("2^5001", "ParseError: syntax error at column 3: coefficients of "
     "about 10002 bits are over the limit of 10000"),
    ("(1/3)^6000", "ParseError: syntax error at column 7: coefficients of "
     "about 12000 bits are over the limit of 10000"),
    ("i^10001", "ParseError: syntax error at column 3: coefficients of "
     "about 10001 bits are over the limit of 10000"),
    ("1/0", "ParseError: syntax error at column 2: division by zero"),
    ("z1/0", "ParseError: syntax error at column 3: division by zero"),
    ("1/(z1-z1)", "ParseError: syntax error at column 2: division by zero"),
    ("(z1+1)/z1", "ParseError: syntax error at column 7: division is only "
     "defined by nonzero constants"),
    ("z1^65", "ParseError: syntax error at column 4: degree 65 is over "
     "the limit of 64"),
    ("h^70", "ParseError: syntax error at column 3: degree 70 is over "
     "the limit of 64"),
    pytest.param(f"({LONG_PRODUCT})^1", "ParseError: syntax error at column "
                 "4007: coefficients of about 13288 bits are over the limit "
                 "of 10000", id="long-product^1"),
]


@pytest.mark.parametrize("text, outcome", SCALAR_OUTCOMES)
def test_scalar_outcomes(text, outcome):
    assert _outcome(text) == outcome


def test_scalar_forms():
    # a nonzero constant is one term of degree 0; zero is no term
    for text in ("7", "-3/4 + 2*i", LONG_PRODUCT, "i^3/5"):
        f = parse_poly(text, 4)
        assert (len(f), f.degree(), f.is_constant()) == (1, 0, True)
        assert f == SparsePoly.const(4, f.constant_value())
    for text in ("0", "0^20000", "(0*z1)^65", "1 - 1", "0/7"):
        f = parse_poly(text, 4)
        assert (len(f), f.degree(), f.is_zero()) == (0, -1, True)
        assert f == SparsePoly.zero(4)
    assert parse_poly("z1^0", 4) == SparsePoly.const(4, 1)


_PARTS = st.fractions(min_value=-7, max_value=7, max_denominator=6)
# real, imaginary, unit and mixed coefficients
_COEFFS = st.one_of(
    _PARTS.filter(bool).map(ExactComplex),
    _PARTS.filter(bool).map(lambda y: ExactComplex(0, y)),
    st.sampled_from([ExactComplex(1), ExactComplex(-1), ExactComplex(0, 1),
                     ExactComplex(0, -1)]),
    st.tuples(_PARTS, _PARTS).map(lambda c: ExactComplex(*c)))


@st.composite
def wide_polys(draw, arity=None):
    """Polynomials of arity 1 to 40 whose largest exponent needs 8-, 16-,
    32- or 64-bit fields or more, most fields zero, with constants, and
    terms of one degree whose fields differ in their high bytes only."""
    if arity is None:
        arity = draw(st.integers(1, 40))
    top = draw(st.sampled_from([3, 255, 256, 65_535, 65_536, 2 ** 32 - 1,
                                2 ** 32, 2 ** 64 - 1, 2 ** 64]))
    near = [x for x in (1, 2, 255, 256, 257, 511, 65_535, 65_536, 65_537,
                        2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1) if x <= top]
    field = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(1, 3),
                      st.integers(0, top), st.just(top), st.sampled_from(near))
    exps = st.lists(field, min_size=arity, max_size=arity).map(tuple)
    terms = draw(st.dictionaries(exps, _COEFFS, max_size=12))
    # the same exponents in other variables: a term of the same degree
    for e in list(terms):
        if draw(st.booleans()):
            terms[e[::-1]] = draw(_COEFFS)
        if draw(st.booleans()):
            terms[e[1:] + e[:1]] = draw(_COEFFS)
    if draw(st.booleans()):
        terms[(0,) * arity] = draw(_COEFFS)
    return SparsePoly(arity, terms)


@settings(max_examples=100, deadline=None)
@given(wide_polys(), st.booleans())
def test_printer_matches_the_unpacking_oracle(f, product_names):
    names = (tuple(f"v{j}" for j in range(1, f.arity + 1)) if product_names
             else None)
    got = poly_to_str(f, names)
    names = names or tuple(f"z{j}" for j in range(1, f.arity + 1))
    want = (_join(ref_pieces(f, names, {}, {})) if not f.is_zero()
            else "0")
    assert got == want


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(wide_polys(n), min_size=1, max_size=4)))
def test_series_printer_matches_the_unpacking_oracle(coeffs):
    series = HbarSeries(coeffs)
    got = series_to_str(series)
    # the same text with the oracle in the printer's place
    import starkit.parsing as parsing
    saved = parsing._pieces
    parsing._pieces = ref_pieces
    try:
        want = series_to_str(series)
    finally:
        parsing._pieces = saved
    assert got == want


def test_parsing_folds_constants(monkeypatch):
    # the coefficient group folds to one scalar and each "^1" is one key;
    # before folding this text made 13 mmul and 26 _make calls
    import starkit._kernel as K
    calls = {"mmul": 0, "make": 0}
    mmul, make = K.mmul, SparsePoly._make.__func__

    def counted_mmul(*args):
        calls["mmul"] += 1
        return mmul(*args)

    def counted_make(cls, *args, **kwargs):
        calls["make"] += 1
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(K, "mmul", counted_mmul)
    monkeypatch.setattr(SparsePoly, "_make", classmethod(counted_make))
    f = parse_poly("(1/3+(-3/2)*i)*p1^1*p2^1*q3^1", 14)
    assert calls == {"mmul": 3, "make": 7}
    assert f == SparsePoly(14, {(0, 1, 0, 1, 1) + (0,) * 9:
                                ExactComplex(Fraction(1, 3),
                                             Fraction(-3, 2))})
