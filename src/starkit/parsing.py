"""Canonical text form: tokenizer, parser, and printer.

Grammar (EBNF, whitespace insignificant):

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = { "-" | "+" } , power ;
    power    = atom , [ "^" , integer ] ;
    atom     = integer | "i" | "h" | variable | "(" , expr , ")" ;
    variable = ("z" | "q" | "p") , integer ;
    integer  = digit , { digit } ;

Precedence is ^ above unary minus above * and / above + and -.  Exact
rationals are written p/q ("/" divides, and the divisor must be a nonzero
constant); floating-point literals are rejected.  "q<k>"/"p<k>" alias the
base/fiber pair "z<2k-1>"/"z<2k>".  The symbol "h" is the deformation
parameter and is only accepted where a series is expected.  Exponents are
nonnegative integer literals.

The parser's values are packed polynomials (``SparsePoly``) in arity + 1
variables, the last standing for h, combined by their own sums, products
and powers; ``parse_poly`` and ``parse_series`` split off h's field.

The printer emits one canonical form: terms in descending graded
lexicographic order, series coefficients in ascending powers of h, and
``parse(print(x)) == x`` exactly.  Within one call it formats each
variable power, and reduces each distinct coefficient, once.
"""

from __future__ import annotations

import re as _re
from functools import reduce
from math import comb
from operator import or_

from . import _kernel as K
from .errors import ParseError
from .poly import SparsePoly
from .scalars import ExactComplex, format_complex, format_ratio
from .series import HbarSeries

# parentheses recurse through five methods per level; deeper text is
# refused before it can exhaust the interpreter's recursion limit
MAX_NESTING = 100
# "^k" is refused when it would raise the degree past this, before the
# power is expanded; it bounds degree, not the term count in many variables
MAX_DEGREE = 64
# coefficients are read and printed in decimal, and Python refuses int/str
# conversions past 4300 digits: longer integer literals are refused before
# int() reads them, and "^k" is refused when k times the bit length of the
# base's largest coefficient part would pass the coefficient cap
MAX_LITERAL_DIGITS = 1000
MAX_COEFF_BITS = 10_000
# neither limit bounds the number of terms, which grows as C(t+k-1, k)
# for a k-th power of t terms: "*" and "^k" are refused when an upper
# bound on the result's term count passes this, before expanding
MAX_TERMS = 20_000

# the digits take a following "." so that a float is refused at its digits
_TOKEN_RE = _re.compile(r"\s*(?:(?P<int>\d+\.?)|(?P<name>[zqp]\d+)|"
                        r"(?P<sym>[ih])|(?P<op>[-+*/^()])|(?P<bad>.))")
_NO_FLOATS = "float literals are not supported; use an exact rational like 1/2"


def _check_literal(digits: str, col: int) -> None:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"integer literal of {len(digits)} digits is over "
                         f"the limit of {MAX_LITERAL_DIGITS}", col)


def _tokenize(text: str):
    text = text.rstrip()  # so trailing whitespace changes no result or error
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        col = m.start(kind) + 1
        if kind == "int":
            _check_literal(value.rstrip("."), col)
            if value[-1] == ".":
                raise ParseError(_NO_FLOATS, col)
            tokens.append(("int", value, col))
        elif kind == "name":
            _check_literal(value[1:], col)
            tokens.append(("name", value, col))
        elif kind != "bad":
            tokens.append((value, value, col))
        elif value == ".":
            raise ParseError(_NO_FLOATS, col)
        else:
            raise ParseError(f"unexpected character {value!r}", col)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _check_terms(bound: int, factors, power: int, col: int) -> None:
    """Refuse the product of the factors (polynomials), raised to power,
    when it could have over MAX_TERMS terms.

    bound counts the products of terms.  The result, of degree d at most
    power times the sum of the factors' degrees, in the v variables the
    factors use, also has at most C(v + d, v) terms; that is counted
    only when bound passes the limit.
    """
    if bound <= MAX_TERMS:
        return
    used = {j for t in factors
            for j, mask in enumerate(K.fields(t.arity, t._form[0]))
            if reduce(or_, t._form[2], 0) & mask}
    degree = power * sum(t.degree() for t in factors)
    bound = min(bound, comb(len(used) + degree, len(used)))
    if bound > MAX_TERMS:
        raise ParseError(f"up to {bound} terms is over the limit of "
                         f"{MAX_TERMS}", col)


class _Parser:
    """Recursive-descent parser producing a polynomial in arity+1
    variables, the last variable standing for h."""

    def __init__(self, text: str, arity: int, allow_h: bool):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.arity = arity
        self.allow_h = allow_h
        self.vars = arity + 1
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse(self) -> SparsePoly:
        value = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", col)
        return value

    def expr(self) -> SparsePoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> SparsePoly:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, col = self.take()
            rhs = self.unary()
            if op == "*":
                _check_terms(len(value) * len(rhs), (value, rhs), 1, col)
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError(
                        "division is only defined by nonzero constants", col)
                if rhs.is_zero():
                    raise ParseError("division by zero", col)
                value = value.scale(1 / rhs.constant_value())
        return value

    def unary(self) -> SparsePoly:
        sign = 1
        while self.peek()[0] in ("-", "+"):
            op, _, _ = self.take()
            if op == "-":
                sign = -sign
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> SparsePoly:
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text, col = self.peek()
            if kind == "-":
                raise ParseError("exponents must be nonnegative integers", col)
            if kind != "int":
                raise ParseError("exponent must be an integer literal", col)
            self.take()
            k = int(text)
            degree = value.degree() * k
            if degree > MAX_DEGREE:
                raise ParseError(f"degree {degree} is over the limit of "
                                 f"{MAX_DEGREE}", col)
            # the bits of the coefficients' reduced parts
            bits = k * max((x.bit_length() for c in value._items().values()
                            for x in c), default=0)
            if bits > MAX_COEFF_BITS:
                raise ParseError(f"coefficients of about {bits} bits are "
                                 f"over the limit of {MAX_COEFF_BITS}", col)
            # a k-th power's terms are products of k of the t base terms,
            # a multiset: at most C(t + k - 1, k) of them
            _check_terms(comb(max(len(value) + k - 1, 0), k), (value,), k,
                         col)
            value = value ** k
        return value

    def atom(self) -> SparsePoly:
        kind, text, col = self.take()
        if kind == "int":
            return SparsePoly.const(self.vars, int(text))
        if kind == "i":
            return SparsePoly.const(self.vars, ExactComplex(0, 1))
        if kind == "h":
            if not self.allow_h:
                raise ParseError(
                    "'h' is only allowed where a series is expected", col)
            return SparsePoly.variable(self.vars, self.vars)
        if kind == "name":
            return SparsePoly.variable(self.vars, self._var_index(text, col))
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING} levels", col)
            value = self.expr()
            kind2, text2, col2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", col2)
            self.depth -= 1
            return value
        if kind == "end":
            raise ParseError("expected an operand", col)
        raise ParseError(f"unexpected {text!r}", col)

    def _var_index(self, name: str, col: int) -> int:
        letter, k = name[0], int(name[1:])
        if k < 1:
            raise ParseError(f"unknown variable {name!r}", col)
        if letter == "z":
            idx = k
        elif letter == "q":
            idx = 2 * k - 1
        else:
            idx = 2 * k
        if idx > self.arity:
            raise ParseError(
                f"unknown variable {name!r} (arity {self.arity})", col)
        return idx


def parse_poly(text: str, arity: int) -> SparsePoly:
    """Parse a polynomial in z1..z<arity>; 'h' is rejected."""
    # h's field is empty, so the packed form is the same in arity variables
    width, den, p = _Parser(text, arity, allow_h=False).parse()._form
    return SparsePoly._make(arity, width, den, p, False)


def parse_series(text: str, arity: int, order: int) -> HbarSeries:
    """Parse a series in z1..z<arity> and h, truncated at the given order."""
    width, den, p = _Parser(text, arity, allow_h=True).parse()._form
    # a term of h^k keys on its exponents plus k in the field above them
    shift = arity * width
    low = (1 << shift) - 1
    coeffs = [{} for _ in range(order + 1)]
    for key, c in p.items():
        k = key >> shift
        if k <= order:
            coeffs[k][key & low] = c
    return HbarSeries([SparsePoly._make(arity, width, den, t)
                       for t in coeffs])


def parse_expr(text: str, arity: int, order: int | None = None):
    """Parse to a SparsePoly, or to an HbarSeries when order is given."""
    if order is None:
        return parse_poly(text, arity)
    return parse_series(text, arity, order)


def parse_scalar(text: str) -> ExactComplex:
    """Parse a constant expression such as "-1/2+3*i"."""
    value = parse_poly(text, 1)
    if not value.is_constant():
        raise ParseError("expected a constant expression")
    return value.constant_value()


# -- printing ---------------------------------------------------------------


def _default_names(arity: int):
    return tuple(f"z{k}" for k in range(1, arity + 1))


def _coefficient(c, has_monomial: bool) -> tuple[int, str]:
    """(sign, prefix) for kernel coefficient c: the text that goes before
    a monomial (ending in "*", or empty for a unit real), or the whole
    constant term; mixed coefficients keep sign +1."""
    rn, rd, jn, jd = c
    if jn == 0:
        if has_monomial and rn in (1, -1) and rd == 1:
            return rn, ""
        sign, text = (1 if rn > 0 else -1), format_ratio(abs(rn), rd)
    elif rn == 0:
        sign = 1 if jn > 0 else -1
        if jn in (1, -1) and jd == 1:
            text = "i"
        else:
            text = f"{format_ratio(abs(jn), jd)}*i"
    else:
        sign, text = 1, f"({format_complex(c)})"
    return sign, f"{text}*" if has_monomial else text


def _join(pieces) -> str:
    out = []
    for k, (sign, body) in enumerate(pieces):
        if k == 0:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def _pieces(p: SparsePoly, names, powers: dict, prefixes: dict) -> list:
    """(sign, body) per term, in descending graded lexicographic order.

    powers maps (variable, exponent) to its text and prefixes maps
    (a, b, den, has monomial) to _coefficient's result; both are filled
    as pieces are first met, so a caller reduces and formats each once.
    """
    width, den, terms = p._form
    rows = K.exponents(terms, p.arity, width)
    out = []
    for _, exps, (a, b) in sorted(zip(map(sum, rows), rows, terms.values()),
                                  reverse=True):
        parts = []
        for j, e in enumerate(exps):
            if e:
                text = powers.get((j, e))
                if text is None:
                    text = powers[j, e] = (names[j] if e == 1
                                           else f"{names[j]}^{e}")
                parts.append(text)
        mono = "*".join(parts)
        key = (a, b, den, bool(parts))
        piece = prefixes.get(key)
        if piece is None:
            piece = prefixes[key] = _coefficient(
                K.qnorm(a, den) + K.qnorm(b, den), key[3])
        out.append((piece[0], piece[1] + mono))
    return out


def poly_to_str(p: SparsePoly, names=None) -> str:
    if p.is_zero():
        return "0"
    names = names or _default_names(p.arity)
    return _join(_pieces(p, names, {}, {}))


def series_to_str(s: HbarSeries, names=None) -> str:
    names = names or _default_names(s.arity)
    powers: dict = {}
    prefixes: dict = {}
    pieces = []
    for k in range(s.order + 1):
        p = s.coeffs[k]
        if p.is_zero():
            continue
        if k == 0:
            pieces.extend(_pieces(p, names, powers, prefixes))
            continue
        hpow = "h" if k == 1 else f"h^{k}"
        if len(p) == 1:
            ((sign, body),) = _pieces(p, names, powers, prefixes)
            pieces.append((sign, hpow if body == "1" else f"{body}*{hpow}"))
        else:
            body = _join(_pieces(p, names, powers, prefixes))
            pieces.append((1, f"({body})*{hpow}"))
    if not pieces:
        return "0"
    return _join(pieces)
