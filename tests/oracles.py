"""Independent reference implementations used only by the tests.

Everything here goes through sympy and full tensor sums, deliberately
avoiding the multiset enumeration and kernel arithmetic of the package
under test.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import sympy


def symbols_for(arity: int):
    return sympy.symbols(f"z1:{arity + 1}")


def exact_to_sympy(c) -> sympy.Expr:
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def poly_to_sympy(f, syms) -> sympy.Expr:
    total = sympy.Integer(0)
    for exps, coeff in f.terms():
        mono = sympy.Integer(1)
        for s, e in zip(syms, exps):
            mono *= s ** e
        total += exact_to_sympy(coeff) * mono
    return sympy.expand(total)


def series_to_sympy(F, syms, h) -> sympy.Expr:
    total = sympy.Integer(0)
    for k, coeff in enumerate(F.coeffs):
        total += poly_to_sympy(coeff, syms) * h ** k
    return sympy.expand(total)


def bivector_to_sympy(biv):
    return [[exact_to_sympy(entry) for entry in row] for row in biv.matrix]


def ref_bracket(fs, gs, pi, syms) -> sympy.Expr:
    total = sympy.Integer(0)
    for a, sa in enumerate(syms):
        for b, sb in enumerate(syms):
            if pi[a][b] == 0:
                continue
            total += pi[a][b] * sympy.diff(fs, sa) * sympy.diff(gs, sb)
    return sympy.expand(total)


def ref_bidiff(k: int, fs, gs, pi, syms) -> sympy.Expr:
    """k-th bidifferential power as a plain sum over index sequences."""
    if k == 0:
        return sympy.expand(fs * gs)
    d = len(syms)
    total = sympy.Integer(0)
    # cache iterated derivatives keyed by the sorted sequence
    dcache_f: dict = {(): fs}
    dcache_g: dict = {(): gs}

    def deriv(cache, base, seq):
        key = tuple(sorted(seq))
        if key not in cache:
            prev = deriv(cache, base, key[:-1])
            cache[key] = sympy.diff(prev, syms[key[-1]])
        return cache[key]

    for aseq in product(range(d), repeat=k):
        fa = deriv(dcache_f, fs, aseq)
        if fa == 0:
            continue
        for bseq in product(range(d), repeat=k):
            w = sympy.Integer(1)
            for a, b in zip(aseq, bseq):
                w *= pi[a][b]
                if w == 0:
                    break
            if w == 0:
                continue
            total += w * fa * deriv(dcache_g, gs, bseq)
    return sympy.expand(total)


def ref_star(fs, gs, pi, syms, order: int, h) -> sympy.Expr:
    total = sympy.Integer(0)
    for k in range(order + 1):
        term = ref_bidiff(k, fs, gs, pi, syms)
        if term == 0:
            continue
        total += (sympy.I / 2) ** k / sympy.factorial(k) * h ** k * term
    return sympy.expand(total)


def frac(text) -> Fraction:
    return Fraction(text)


def _cross(a, b) -> Fraction:
    return a.re * b.im - a.im * b.re


def _dot(a, b) -> Fraction:
    return a.re * b.re + a.im * b.im


def segments_conflict(a1, a2, b1, b2, shared) -> bool:
    """Whether segments [a1,a2] and [b1,b2] of ExactComplex points meet
    anywhere besides shared, by solving for the crossing in Fractions."""
    d1 = a2 - a1
    d2 = b2 - b1
    w = b1 - a1
    denom = _cross(d1, d2)
    if denom != 0:
        s = _cross(w, d2) / denom
        t = _cross(w, d1) / denom
        if 0 <= s <= 1 and 0 <= t <= 1:
            point = a1 + d1 * s
            return shared is None or point != shared
        return False
    if _cross(w, d1) != 0:
        return False
    # collinear: compare parameter intervals along d1
    dd = _dot(d1, d1)
    t0 = _dot(b1 - a1, d1) / dd
    t1 = _dot(b2 - a1, d1) / dd
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return False
    if lo < hi:
        return True
    point = a1 + d1 * lo
    return shared is None or point != shared


def backtracks(incoming, outgoing) -> bool:
    """Whether an ExactComplex edge exactly reverses its predecessor."""
    return _cross(incoming, outgoing) == 0 and _dot(incoming, outgoing) < 0


def corner_steps(incoming, outgoing):
    """The interior wedge at a corner between ExactComplex edges, split
    into ccw steps of angle <= pi; a negative cross product is a reflex
    wedge, a collinear pair a straight corner."""
    a, b = outgoing, -incoming
    cr = _cross(a, b)
    if cr > 0:
        return [(a, b)]
    if cr < 0:
        return [(a, -a), (-a, b)]
    return [(a, b)]


def step_crossings(a, b) -> int:
    """Positive-x-axis crossings of one ccw step of angle in (0, pi]."""
    if b.im == 0 and b.re > 0:
        return 1
    if a.im < 0 and b.im > 0:
        return 1
    return 0


def assert_canonical(p):
    """p's packed form (width, den, {key: (a, b)}) is canonical, decoded
    here field by field: den > 0, gcd(den, every a and b) = 1, no zero
    term, the narrowest of 8, 16, 32 and 64 bits that holds the largest
    exponent; and it is what terms() reads, every coefficient there
    normalized."""
    width, den, packed = p._form
    assert den > 0
    assert all(a or b for a, b in packed.values())
    assert gcd(den, *(x for c in packed.values() for x in c)) == 1
    field = (1 << width) - 1
    decoded = {tuple(key >> width * j & field for j in range(p.arity)):
               (Fraction(a, den), Fraction(b, den))
               for key, (a, b) in packed.items()}
    assert decoded == {e: (c.re, c.im) for e, c in p.terms()}
    assert len(decoded) == len(packed) == len(p)
    top = max((max(e) for e in decoded), default=0)
    assert width == min(w for w in (8, 16, 32, 64) if top >> w == 0)
    for _, c in p.terms():
        rn, rd, jn, jd = c.to_kernel()
        assert (rn or jn) and rd > 0 and jd > 0
        assert gcd(rn, rd) == 1 and gcd(jn, jd) == 1


def ref_pieces(p, names, powers: dict, prefixes: dict) -> list:
    """The printer's (sign, body) per term as it was before it sorted on
    packed bytes: every key unpacked to its exponent tuple, the tuples
    sorted by (degree, tuple), and every field of a term scanned."""
    from starkit import _kernel as K
    from starkit.parsing import _coefficient

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


# -- the series as a tuple of coefficients ------------------------------------
#
# The coefficient-tuple arithmetic HbarSeries ran on before it held one
# packed polynomial: a series of order K is K + 1 SparsePoly coefficients,
# and every operation goes coefficient by coefficient.

def ref_series(F) -> tuple:
    """(arity, coefficients) of an HbarSeries, read through its public
    coefficient API."""
    return F.arity, tuple(F.coeffs)


def ref_add(fs, gs, sign=1) -> tuple:
    """fs + sign * gs, truncated at the shorter."""
    return tuple(a + b if sign > 0 else a - b for a, b in zip(fs, gs))


def ref_mul(fs, gs) -> tuple:
    """The Cauchy product in h, truncated at the shorter."""
    from starkit.poly import SparsePoly
    zero = SparsePoly.zero(fs[0].arity)
    return tuple(sum((fs[j] * gs[k - j] for j in range(k + 1)), zero)
                 for k in range(min(len(fs), len(gs))))


def ref_scale(fs, value) -> tuple:
    return tuple(c.scale(value) for c in fs)


def ref_shift(fs, j) -> tuple:
    """h^j times the series, keeping its order."""
    from starkit.poly import SparsePoly
    zeros = [SparsePoly.zero(fs[0].arity)] * min(j, len(fs))
    return tuple((zeros + list(fs))[:len(fs)])


def ref_truncate(fs, order) -> tuple:
    from starkit.poly import SparsePoly
    pad = [SparsePoly.zero(fs[0].arity)] * (order + 1 - len(fs))
    return tuple((list(fs) + pad)[:order + 1])


def ref_parse_series(text: str, arity: int, order: int) -> tuple:
    """The parser's packed value in arity + 1 variables, h last, split into
    the coefficients of h^0..h^order, each normalized on its own."""
    from starkit.parsing import _Parser
    from starkit.poly import SparsePoly
    width, den, p = _Parser(text, arity, allow_h=True).parse()._form
    shift = arity * width
    low = (1 << shift) - 1
    coeffs = [{} for _ in range(order + 1)]
    for key, c in p.items():
        if key >> shift <= order:
            coeffs[key >> shift][key & low] = c
    return tuple(SparsePoly._make(arity, width, den, t) for t in coeffs)


def ref_star_series(star, fs, gs) -> tuple:
    """sum over j, k of h^(j+k) fs[j] * gs[k], each pair starred alone as
    polynomials, truncated at the shorter series."""
    from starkit.poly import SparsePoly
    order = min(len(fs), len(gs)) - 1
    out = [SparsePoly.zero(star.dim)] * (order + 1)
    for j, f in enumerate(fs[:order + 1]):
        for k, g in enumerate(gs[:order + 1 - j]):
            for m, c in enumerate(star.star(f, g, order - j - k).coeffs):
                out[j + k + m] = out[j + k + m] + c
    return tuple(out)
