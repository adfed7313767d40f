"""Term-map kernels.

These pure-Python functions are the hot inner loops of the whole package.
A term map is how a sparse multivariate polynomial is stored:

    map  =  dict[exponents, coeff]
    exponents = tuple[int, ...]            one entry per variable
    coeff = (rn, rd, jn, jd)               exact Gaussian rational rn/rd + (jn/jd)*i

Coefficients are kept normalized at all times: denominators positive and
coprime to their numerators, zero parts stored as (0, 1).  Zero coefficients
are never stored in a map; the zero polynomial is the empty dict.

Sums and scaling work on term maps.  Every product and derivative works
on packed maps, the integer form a computation keeps from start to end:

    packed = dict[key, (a, b)]             t[e] = (a + b*i) / D
    key    = sum of e[j] << (width * j)    one bit field per variable

``lift`` puts each map's Gaussian-integer numerators over the lcm D of
its denominators, and owns the width rule: a field is 8, 16, 32 or 64
bits wide, the narrowest of these that holds the sum of the maps'
largest exponents, so a product, which adds keys, never carries one
field into the next.  A caller that forms longer products (powers, a
substitution) passes the bit length its largest key needs, and lift
rounds it up the same way; a key that would need fields wider than 64
bits is an ``InputError``.  Since every field is whole bytes, a key is
the little-endian bytes of its exponent tuple, so lift packs a term and
``lower`` unpacks it in one C call each, whatever the number of
variables, through one ``struct.Struct`` of the map's arity and field
width, built once per (arity, width) and kept.  ``lower`` takes the
width lift returned, and ``fields`` gives the mask of each variable's
field, so a caller learns which variables a packed map holds from the
OR of its keys without knowing the layout.
``maddmul`` is the one loop over pairs of terms, ``mdiff`` multiplies
numerators by the exponent and keeps D, and ``lower`` divides by the
positive denominator the caller tracked, with one gcd per part,
dropping cancelled terms.  ``mmul`` is the three, except that a factor
of one term only shifts and scales the other, and ``mpow`` squares and
multiplies through ``mmul``.

Callers reach these functions as attributes of this module (``K.mmul``),
so a tracer that rebinds an attribute sees every call from outside.
"""

from functools import lru_cache
from math import gcd, lcm
from operator import add
from struct import Struct

from ..errors import InputError

CZERO = (0, 1, 0, 1)
CONE = (1, 1, 0, 1)


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


def madd(t1, t2):
    if not t1:
        return dict(t2)
    if not t2:
        return dict(t1)
    out = dict(t1)
    for e, c in t2.items():
        old = out.get(e)
        if old is None:
            out[e] = c
        else:
            s = cadd(old, c)
            if s[0] == 0 and s[2] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def msub(t1, t2):
    out = dict(t1)
    for e, c in t2.items():
        old = out.get(e)
        if old is None:
            out[e] = (-c[0], c[1], -c[2], c[3])
        else:
            s = csub(old, c)
            if s[0] == 0 and s[2] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def mneg(t):
    return {e: (-c[0], c[1], -c[2], c[3]) for e, c in t.items()}


def mscale(t, c):
    if c[0] == 0 and c[2] == 0:
        return {}
    out = {}
    for e, a in t.items():
        p = cmul(a, c)
        if p[0] != 0 or p[2] != 0:
            out[e] = p
    return out


# each field width with its struct code (standard size, little-endian)
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _field_width(bits):
    """The narrowest of 8, 16, 32 and 64 bits that holds bits."""
    for width in _CODES:
        if bits <= width:
            return width
    raise InputError(
        f"exponents need {bits}-bit fields; the kernel packs at most 64")


def lift(*maps, width=None):
    """(packed maps, product of their denominators, width), the width
    being the field that holds the sum of each map's largest exponent,
    or the bit length the caller gives for every key it will form,
    rounded up to 8, 16, 32 or 64.  The keys of one map share a length."""
    if width is None:
        width = sum(max(map(max, t), default=0) for t in maps).bit_length()
    width = _field_width(width)
    from_bytes = int.from_bytes
    packed = []
    den = 1
    for t in maps:
        d = lcm(*{x for c in t.values() for x in (c[1], c[3])})
        pack = _struct(len(next(iter(t), ())), width).pack
        packed.append({from_bytes(pack(*e), "little"):
                       (rn * (d // rd), jn * (d // jd))
                       for e, (rn, rd, jn, jd) in t.items()})
        den *= d
    return packed, den, width


@lru_cache(maxsize=64)
def _struct(arity, width):
    """The Struct that packs a key of arity fields of this width."""
    return Struct(f"<{arity}{_CODES[width]}")


@lru_cache(maxsize=64)
def fields(arity, width):
    """The mask of each variable's field in a key, by variable: a key, or
    an OR of keys, holds variable j exactly where it meets fields[j]."""
    field = (1 << width) - 1
    return tuple(field << j * width for j in range(arity))


def lower(p, den, arity, width):
    """The normalized term map of p / den, den positive; zero terms are
    dropped.  width is the one lift returned."""
    if not p:
        return {}
    size = arity * width // 8
    unpack = _struct(arity, width).unpack
    out = {}
    for key, (a, b) in p.items():
        if a or b:
            # gcd(0, den) = den, so a zero part comes out as 0/1
            ga = gcd(a, den)
            gb = gcd(b, den)
            out[unpack(key.to_bytes(size, "little"))] = (
                a // ga, den // ga, b // gb, den // gb)
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


def mmul(t1, t2):
    """The normalized term map of t1 * t2.

    When either map has a single term c z^e, the product is the other
    map shifted by e with each coefficient times c: no lift, no lower.
    The keys stay distinct and, the Gaussian rationals having no zero
    divisors, the coefficients nonzero.  Lift's width rule still
    applies, so a product past 64-bit fields is refused either way.
    """
    if not t1 or not t2:
        return {}
    if len(t1) == 1 or len(t2) == 1:
        if len(t1) > 1:
            t1, t2 = t2, t1
        _field_width(sum(max(map(max, t)) for t in (t1, t2)).bit_length())
        ((e1, c1),) = t1.items()
        return {tuple(map(add, e1, e)): cmul(c1, c) for e, c in t2.items()}
    (p1, p2), den, width = lift(t1, t2)
    return lower(maddmul({}, p1, p2, 1, 0), den, len(next(iter(t1))), width)


def mpow(t, k, arity):
    """The normalized term map of t^k, k >= 0, on arity variables, by
    repeated squaring through mmul."""
    out = {(0,) * arity: CONE}
    while k:
        if k & 1:
            out = mmul(out, t)
        t = mmul(t, t) if k > 1 else t
        k >>= 1
    return out
