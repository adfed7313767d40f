"""Packed polynomial kernels.

These pure-Python functions are the hot inner loops of the whole package.
A polynomial in n variables is held in one packed form, the integer form
every computation keeps from start to end:

    (width, den, p)    p = dict[key, (a, b)]     t[e] = (a + b*i) / den
    key = sum of e[j] << (width * j)             one bit field per variable

The form is canonical: den > 0, the gcd of den and every a and b is 1,
no term is zero, and a field is the narrowest of 8, 16, 32 and 64 bits
(past those, whole 64-bit words) that holds the largest exponent.  ``normal`` brings a result there once:
it drops cancelled terms, divides by one running gcd that stops at 1,
and repacks (``repack``) only when the fields narrow.

A product adds keys, so its operands are repacked to the fields that hold
the sum of their largest exponents (``product_width``); fields past 64
bits are an ``InputError``.  Every field is whole bytes, so a key is the
little-endian bytes of its exponent tuple, and one ``struct.Struct`` per
(arity, width), built once and kept, packs or unpacks a term in one C
call.  ``fields`` gives the mask of each variable's field, so a caller
learns which variables a map holds from the OR of its keys.

``maddmul`` is the one loop over pairs of terms; ``mmul`` is a product,
in which a factor of one term only shifts and scales the other; ``madd``
adds two maps under integer scales; ``mdiff`` multiplies numerators by
the exponent and keeps den.  The denominators are the caller's to track.
``lift`` and ``lower`` convert between the packed form and a map from
exponent tuples to normalized Gaussian rationals (rn, rd, jn, jd), at
the edges only, such as the public constructor and ``terms()``.
``qnorm``, ``cadd``, ``csub`` and ``cmul`` are ``ExactComplex``'s
arithmetic on those tuples.

Callers reach these functions as attributes of this module (``K.mmul``),
so a tracer that rebinds an attribute sees every call from outside.
"""

from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from struct import Struct
from types import SimpleNamespace

from ..errors import InputError

def qnorm(n, d):
    """Normalize the rational n/d. d must be nonzero."""
    if n == 0:
        return 0, 1
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        return n // g, d // g
    return n, d


def cadd(a, b):
    rn, rd = qnorm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])
    jn, jd = qnorm(a[2] * b[3] + b[2] * a[3], a[3] * b[3])
    return rn, rd, jn, jd


def csub(a, b):
    rn, rd = qnorm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])
    jn, jd = qnorm(a[2] * b[3] - b[2] * a[3], a[3] * b[3])
    return rn, rd, jn, jd


def cmul(a, b):
    # (x + yi)(u + vi) = (xu - yv) + (xv + yu)i
    xn, xd, yn, yd = a
    un, ud, vn, vd = b
    rn, rd = qnorm(xn * un * yd * vd - yn * vn * xd * ud, xd * ud * yd * vd)
    jn, jd = qnorm(xn * vn * yd * ud + yn * un * xd * vd, xd * vd * yd * ud)
    return rn, rd, jn, jd


# each field width with its struct code (standard size, little-endian)
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def field_width(bits, stored=False):
    """The narrowest of 8, 16, 32 and 64 bits that holds bits.  Past 64
    bits the fields of a product are refused, and those a polynomial is
    stored in (stored=True) are whole 64-bit words."""
    for width in _CODES:
        if bits <= width:
            return width
    if stored:
        return -(-bits // 64) * 64
    raise InputError(
        f"exponents need {bits}-bit fields; the kernel packs at most 64")


@lru_cache(maxsize=64)
def _struct(arity, width):
    """The Struct that packs a key of arity fields of this width; past 64
    bits, where no struct code reaches, the same bytes field by field."""
    if width <= 64:
        return Struct(f"<{arity}{_CODES[width]}")
    n = width // 8
    return SimpleNamespace(
        pack=lambda *e: b"".join(x.to_bytes(n, "little") for x in e),
        unpack=lambda data: tuple(int.from_bytes(data[k:k + n], "little")
                                  for k in range(0, len(data), n)))


@lru_cache(maxsize=64)
def fields(arity, width):
    """The mask of each variable's field in a key, by variable: a key, or
    an OR of keys, holds variable j exactly where it meets fields[j]."""
    field = (1 << width) - 1
    return tuple(field << j * width for j in range(arity))


def lift(t):
    """The canonical (width, den, p) of a map from exponent tuples of one
    length to normalized nonzero coefficients: den is the lcm of their
    denominators, which leaves the numerators coprime to it."""
    width = field_width(max(map(max, t), default=0).bit_length(), True)
    den = lcm(*{x for c in t.values() for x in (c[1], c[3])})
    pack = _struct(len(next(iter(t), ())), width).pack
    return width, den, {int.from_bytes(pack(*e), "little"):
                        (rn * (den // rd), jn * (den // jd))
                        for e, (rn, rd, jn, jd) in t.items()}


def exponents(p, arity, width):
    """The exponent tuple of each key of p, in p's order."""
    size = arity * width // 8
    unpack = _struct(arity, width).unpack
    return [unpack(key.to_bytes(size, "little")) for key in p]


def lower(p, den, arity, width):
    """The map from exponent tuples to the normalized coefficients of p /
    den, den positive; zero terms are dropped."""
    out = {}
    for e, (a, b) in zip(exponents(p, arity, width), p.values()):
        if a or b:
            # gcd(0, den) = den, so a zero part comes out as 0/1
            ga = gcd(a, den)
            gb = gcd(b, den)
            out[e] = (a // ga, den // ga, b // gb, den // gb)
    return out


def top(p, arity, width):
    """The largest exponent in the keys of p, 0 for no keys."""
    return max(map(max, exponents(p, arity, width)), default=0)


@lru_cache(maxsize=64)
def _high(arity, width):
    """The top bit of every field of a key."""
    return sum(1 << width * j + width - 1 for j in range(arity))


def product_width(p1, w1, p2, w2, arity):
    """The fields of the product of canonical maps p1 and p2 (in fields of
    w1 and w2 bits): the narrowest that hold the sum of their largest
    exponents, which fits w1 = w2 <= 64 when no key sets a field's top bit."""
    if w1 == w2 <= 64 and not (reduce(or_, p1, 0) | reduce(or_, p2, 0)) & _high(
            arity, w1):
        return w1
    return field_width((top(p1, arity, w1) + top(p2, arity, w2)).bit_length())


def repack(p, arity, width, new):
    """p with every field of its keys moved from width to new bits."""
    if new == width:
        return p
    size = arity * width // 8
    unpack = _struct(arity, width).unpack
    pack = _struct(arity, new).pack
    return {int.from_bytes(pack(*unpack(key.to_bytes(size, "little"))),
                           "little"): c for key, c in p.items()}


def normal(p, den, arity, width):
    """The canonical (width, den, p) of the packed map p over den > 0."""
    if (0, 0) in p.values():
        p = {key: c for key, c in p.items() if c != (0, 0)}
    if not p:
        return 8, 1, {}
    g = den
    for a, b in p.values():
        g = gcd(g, a, b)
        if g == 1:
            break
    else:
        den //= g
        p = {key: (a // g, b // g) for key, (a, b) in p.items()}
    if width > 8:
        new = field_width(top(p, arity, width).bit_length(), True)
        p = repack(p, arity, width, new)
        width = new
    return width, den, p


def madd(p1, p2, s1=1, s2=1):
    """s1 * p1 + s2 * p2 for integers s1 and s2, cancelled terms kept."""
    out = ({key: (a * s1, b * s1) for key, (a, b) in p1.items()}
           if s1 != 1 else dict(p1))
    get = out.get
    for key, (a, b) in p2.items():
        old = get(key)
        out[key] = ((a * s2, b * s2) if old is None
                    else (old[0] + a * s2, old[1] + b * s2))
    return out


def mdiff(p, var, width):
    """Packed partial derivative in variable var (0-based), over the same
    denominator."""
    shift = var * width
    mask = (1 << width) - 1
    one = 1 << shift
    out = {}
    for key, (a, b) in p.items():
        k = key >> shift & mask
        if k:
            out[key - one] = (a * k, b * k)
    return out


def maddmul(acc, p1, p2, wr, wi):
    """acc += (wr + wi*i) * p1 * p2 on packed maps, mutating acc in place;
    the denominators multiply and are the caller's to track. Returns acc."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    get = acc.get
    for k1, (x, y) in p1.items():
        xr = wr * x - wi * y
        xi = wr * y + wi * x
        for k2, (u, v) in p2.items():
            key = k1 + k2
            r = xr * u - xi * v
            i = xr * v + xi * u
            old = get(key)
            if old is None:
                acc[key] = (r, i)
            else:
                acc[key] = (old[0] + r, old[1] + i)
    return acc


def mmul(p1, p2):
    """p1 * p2 on packed maps whose fields hold the sum of their largest
    exponents.  When either map has a single term c z^e, the product is
    the other map shifted by e with each numerator times c; the keys stay
    distinct and, the Gaussian integers having no zero divisors, the
    numerators nonzero."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    if len(p1) != 1:
        return maddmul({}, p1, p2, 1, 0)
    ((k1, (x, y)),) = p1.items()
    return {k1 + key: (x * u - y * v, x * v + y * u)
            for key, (u, v) in p2.items()}
