"""The benchmark's own references, in plain Fraction arithmetic.

Nothing here imports starkit.  A polynomial is a dict from exponent
tuples to Gaussian rationals, each a pair (re, im) of Fractions; the
zero coefficient is never stored.  A series in h is a list of such
dicts, index k holding the h^k coefficient.

The conventions are the ones the paper's charts use: on each
(zeta, lambda) pair the form is dz_2 ^ dz_1, so the bivector has
pi[1][2] = -1 and pi[2][1] = +1 and {zeta, lambda} = -1.  Coordinates of
an n-fold product interleave as (zeta_1, lambda_1, ..., zeta_n,
lambda_n).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

ONE = (Fraction(1), Fraction(0))
I = (Fraction(0), Fraction(1))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gscale(a, q):
    return (a[0] * q, a[1] * q)


def accumulate(acc: dict, exps: tuple, c) -> None:
    """acc[exps] += c, dropping the entry when it cancels to zero."""
    old = acc.get(exps)
    if old is not None:
        c = (old[0] + c[0], old[1] + c[1])
    if c[0] == 0 and c[1] == 0:
        acc.pop(exps, None)
    else:
        acc[exps] = c


def from_sparse(p) -> dict:
    """Read a starkit polynomial through its public term iterator."""
    return {exps: (c.re, c.im) for exps, c in p.terms()}


def from_series(s) -> list:
    return [from_sparse(c) for c in s.coeffs]


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            accumulate(out, tuple(x + y for x, y in zip(e1, e2)), gmul(c1, c2))
    return out


def poly_scale(f: dict, c) -> dict:
    out: dict = {}
    for e, a in f.items():
        accumulate(out, e, gmul(a, c))
    return out


def diff(f: dict, var: int) -> dict:
    out: dict = {}
    for e, c in f.items():
        k = e[var]
        if k:
            accumulate(out, e[:var] + (k - 1,) + e[var + 1:], gscale(c, k))
    return out


def bracket(f: dict, g: dict, pairs: int) -> dict:
    """{f, g} = sum over pairs of -f_zeta g_lambda + f_lambda g_zeta."""
    out: dict = {}
    for i in range(pairs):
        z, lam = 2 * i, 2 * i + 1
        for e, c in poly_mul(diff(f, z), diff(g, lam)).items():
            accumulate(out, e, (-c[0], -c[1]))
        for e, c in poly_mul(diff(f, lam), diff(g, z)).items():
            accumulate(out, e, c)
    return out


# -- the closed-form Moyal product ------------------------------------------


def _falling(x: int, m: int) -> int:
    """x (x-1) ... (x-m+1); zero once m exceeds x."""
    if m > x:
        return 0
    return factorial(x) // factorial(x - m)


def _half_i_power(k: int):
    """(i/2)^k / k!."""
    q = Fraction(1, (2 ** k) * factorial(k))
    return [(q, Fraction(0)), (Fraction(0), q), (-q, Fraction(0)),
            (Fraction(0), -q)][k % 4]


def moyal_pair(a: int, b: int, c: int, d: int, order: int) -> dict:
    """(zeta^a lambda^b) * (zeta^c lambda^d) on one pair, in closed form.

    Returns {k: coefficient}; the h^k term multiplies the single monomial
    zeta^(a+c-k) lambda^(b+d-k).  With j of the k bivector factors equal
    to pi[1][2] = -1 and the rest to pi[2][1] = +1, the h^k coefficient is

        (i/2)^k / k!  sum_j C(k, j) (-1)^j [a]_j [b]_(k-j) [d]_j [c]_(k-j)

    where [x]_m is the falling factorial.
    """
    out = {}
    for k in range(min(order, a + c, b + d) + 1):
        total = 0
        for j in range(k + 1):
            total += (comb(k, j) * (-1) ** j * _falling(a, j)
                      * _falling(b, k - j) * _falling(d, j)
                      * _falling(c, k - j))
        if total:
            out[k] = gscale(_half_i_power(k), total)
    return out


def product_star(f: dict, g: dict, pairs: int, order: int) -> list:
    """f * g on `pairs` interleaved copies, through h^order.

    The bivector is block diagonal, so the product of two monomials is
    the product over copies of the one-pair closed form above; copies
    where one side is constant contribute their plain product.  Extends
    to polynomials by bilinearity.
    """
    out = [dict() for _ in range(order + 1)]
    for m, cm in f.items():
        for n, cn in g.items():
            # partial results: (k, exponents so far) -> coefficient
            partial = {(0, ()): gmul(cm, cn)}
            for i in range(pairs):
                a, b = m[2 * i], m[2 * i + 1]
                c, d = n[2 * i], n[2 * i + 1]
                if (a == b == 0) or (c == d == 0):
                    partial = {(k, e + (a + c, b + d)): v
                               for (k, e), v in partial.items()}
                    continue
                pair = moyal_pair(a, b, c, d, order)
                nxt: dict = {}
                for (k, e), v in partial.items():
                    for j, w in pair.items():
                        if k + j <= order:
                            exps = e + (a + c - j, b + d - j)
                            accumulate(nxt, (k + j, exps), gmul(v, w))
                partial = nxt
            for (k, e), v in partial.items():
                accumulate(out[k], e, v)
    return out


def power_sum(pairs: int, a: int, b: int) -> dict:
    """P_{a,b} = sum over copies of zeta_i^a lambda_i^b."""
    out = {}
    for i in range(pairs):
        e = [0] * (2 * pairs)
        e[2 * i], e[2 * i + 1] = a, b
        out[tuple(e)] = ONE
    return out


def moduli_copies(rank: int, genus: int) -> int:
    """delta = r^2 (g - 1) + 1, the copies of T*X in the paper's product."""
    return rank * rank * (genus - 1) + 1


# -- the symmetric-group average --------------------------------------------


def _blocks(exps: tuple) -> list:
    return [exps[2 * i:2 * i + 2] for i in range(len(exps) // 2)]


def _arrangements(blocks: list):
    """Every distinct ordering of a multiset of blocks, each once."""
    counts: dict = {}
    for blk in blocks:
        counts[blk] = counts.get(blk, 0) + 1
    keys = sorted(counts)
    n = len(blocks)
    current: list = []

    def walk():
        if len(current) == n:
            yield tuple(x for blk in current for x in blk)
            return
        for key in keys:
            if counts[key]:
                counts[key] -= 1
                current.append(key)
                yield from walk()
                current.pop()
                counts[key] += 1

    yield from walk()


def orbit_average(f: dict) -> dict:
    """Average of f over all relabellings of the (zeta_i, lambda_i) pairs.

    Each monomial is spread evenly over its orbit, which is the set of
    distinct arrangements of its blocks, so the n! sum never runs.
    """
    out: dict = {}
    for exps, c in f.items():
        orbit = list(_arrangements(_blocks(exps)))
        share = gscale(c, Fraction(1, len(orbit)))
        for image in orbit:
            accumulate(out, image, share)
    return out


def swap_copies(f: dict, i: int, j: int) -> dict:
    """Exchange copies i and j (0-based) in every monomial."""
    out = {}
    for exps, c in f.items():
        e = list(exps)
        e[2 * i:2 * i + 2], e[2 * j:2 * j + 2] = (e[2 * j:2 * j + 2],
                                                   e[2 * i:2 * i + 2])
        out[tuple(e)] = c
    return out


def fixed_by_adjacent_swaps(f: dict, copies: int) -> bool:
    return all(swap_copies(f, i, i + 1) == f for i in range(copies - 1))


# -- reading the canonical text form ------------------------------------------

_SPLIT = re.compile(r" ([+-]) ")
_MIXED = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(?:(\d+(?:/\d+)?)\*)?i$")
_VAR = re.compile(r"^([zqp])(\d+)(?:\^(\d+))?$")


def _factors(body: str) -> list:
    out, depth, start = [], 0, 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            out.append(body[start:pos])
            start = pos + 1
    out.append(body[start:])
    return out


def read_poly(text: str, arity: int) -> dict:
    """Parse the printer's canonical polynomial text (z, or q/p names)."""
    out: dict = {}
    if text == "0":
        return out
    pieces = _SPLIT.split(text)
    signed = [("-", pieces[0][1:]) if pieces[0].startswith("-")
              else ("+", pieces[0])]
    signed += list(zip(pieces[1::2], pieces[2::2]))
    for sign, body in signed:
        coeff = ONE
        exps = [0] * arity
        for factor in _factors(body):
            var = _VAR.match(factor)
            if factor.startswith("("):
                mixed = _MIXED.match(factor[1:-1])
                if mixed is None:
                    raise ValueError(f"unreadable coefficient {factor!r}")
                im = Fraction(mixed.group(3) or 1)
                if mixed.group(2) == "-":
                    im = -im
                coeff = gmul(coeff, (Fraction(mixed.group(1)), im))
            elif factor == "i":
                coeff = gmul(coeff, I)
            elif var is not None:
                k = int(var.group(2))
                idx = {"z": k - 1, "q": 2 * k - 2, "p": 2 * k - 1}
                exps[idx[var.group(1)]] += int(var.group(3) or 1)
            else:
                coeff = gscale(coeff, Fraction(factor))
        if sign == "-":
            coeff = (-coeff[0], -coeff[1])
        accumulate(out, tuple(exps), coeff)
    return out


def format_poly(f: dict, names) -> str:
    """Input text for starkit's parser; any valid expression will do."""
    terms = []
    for exps, (re_, im) in sorted(f.items()):
        mono = "*".join(f"{n}^{e}" for n, e in zip(names, exps) if e)
        coeff = f"({re_}+({im})*i)"
        terms.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(terms) if terms else "0"


# -- translation-surface strata, worked by hand ------------------------------

# (genus, zero orders in descending order) of each polygon gluing:
#   square, hexagon: every corner glues into one point of cone angle 2pi,
#     so there is no zero and chi = 1 - 2 + 1 = 0 (square) or
#     2 - 3 + 1 = 0 (hexagon, two vertex classes of three corners each).
#   octagon: all eight corners meet in one point of angle 6pi, a zero of
#     order 2; chi = 1 - 4 + 1 = -2, so g = 2.
#   decagon: the corners split into two classes of five, each of angle
#     4pi, two simple zeros; chi = 2 - 5 + 1 = -2, so g = 2.
#   lshape: one vertex class of angle 6pi, a double zero, over the four
#     glued pairs; chi = 1 - 4 + 1 = -2, so g = 2.
# In every case the orders sum to 2g - 2.
STRATA = {
    "square": (1, []),
    "hexagon": (1, []),
    "octagon": (2, [2]),
    "decagon": (2, [1, 1]),
    "lshape": (2, [2]),
}
