"""Seeded input generators for checks and acceptance runs.

Identical (generator, seed) pairs must produce identical values across
runs and platforms, so everything funnels through one string-seeded PRNG
and the version tag below changes whenever the sampling logic does.

The coefficient and polynomial draws (``_rational``, ``_poly``), which
every seeded check makes, take their integers from ``_below``.  It
repeats what ``randint`` and ``randrange`` do underneath
(``Random._randbelow_with_getrandbits``) without their argument
handling, so it consumes the generator exactly as they do and every
stream, including those that mix it with ``randint`` on one generator,
is unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import _kernel as K
from . import linalg
from .multi import Permutation
from .poly import SparsePoly
from .scalars import ExactComplex
from .transport import SymplectoMap

CORPUS_VERSION = 2


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"starkit:{CORPUS_VERSION}:{tag}:{seed}")


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n), n > 0, drawn the same way: getrandbits of n's
    bit length, again while the draw is n or more."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _rational(rng: random.Random, zero_ok: bool = True) -> tuple:
    """A drawn rational as a normalized kernel pair (num, den)."""
    num = _below(rng, 9) - 4
    if not zero_ok:
        while num == 0:
            num = _below(rng, 9) - 4
    return K.qnorm(num, _below(rng, 3) + 1)


def _coeff(rng: random.Random, zero_ok: bool = False) -> tuple:
    """A drawn Gaussian rational as a kernel coefficient, redrawn while
    zero unless zero_ok."""
    while True:
        c = _rational(rng) + _rational(rng)
        if zero_ok or c[0] or c[2]:
            return c


def _scalar(rng: random.Random, zero_ok: bool = False) -> ExactComplex:
    return ExactComplex.from_kernel(_coeff(rng, zero_ok))


def _poly(rng: random.Random, arity: int, max_degree: int) -> SparsePoly:
    terms = {}
    for _ in range(_below(rng, 4) + 1):
        degree = _below(rng, max_degree + 1)
        exps = [0] * arity
        for _ in range(degree):
            exps[_below(rng, arity)] += 1
        terms[tuple(exps)] = _coeff(rng)
    return SparsePoly._make(arity, *K.lift(terms), False)


def random_poly(arity: int, max_degree: int, seed: int) -> SparsePoly:
    return _poly(_rng("poly", seed), arity, max_degree)


def random_poly_pairs(arity: int, count: int, max_degree: int,
                      seed: int) -> list:
    rng = _rng("pairs", seed)
    return [(_poly(rng, arity, max_degree), _poly(rng, arity, max_degree))
            for _ in range(count)]


def random_poly_triples(arity: int, count: int, max_degree: int,
                        seed: int) -> list:
    rng = _rng("triples", seed)
    return [tuple(_poly(rng, arity, max_degree) for _ in range(3))
            for _ in range(count)]


def random_translations(arity: int, count: int, seed: int) -> list:
    rng = _rng("translations", seed)
    return [tuple(_scalar(rng, zero_ok=True) for _ in range(arity))
            for _ in range(count)]


def random_sl2_matrices(count: int, seed: int) -> list:
    """Exact determinant-one 2x2 matrices, as shear/diagonal words."""
    rng = _rng("sl2", seed)
    out = []
    for _ in range(count):
        mat = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        for _ in range(rng.randint(2, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                a = Fraction(*_rational(rng, zero_ok=False))
                factor = [[Fraction(1), a], [Fraction(0), Fraction(1)]]
            elif kind == 1:
                b = Fraction(*_rational(rng, zero_ok=False))
                factor = [[Fraction(1), Fraction(0)], [b, Fraction(1)]]
            else:
                c = rng.choice([Fraction(2), Fraction(3), Fraction(1, 2),
                                Fraction(1, 3), Fraction(-1)])
                factor = [[c, Fraction(0)], [Fraction(0), 1 / c]]
            mat = linalg.mat_mul(mat, factor)
        out.append(mat)
    return out


def random_permutations(n: int, count: int, seed: int) -> list:
    rng = _rng("perm", seed)
    out = []
    for _ in range(count):
        imgs = list(range(n))
        rng.shuffle(imgs)
        out.append(Permutation(imgs))
    return out


def _univariate(rng: random.Random, max_degree: int) -> SparsePoly:
    """Nonconstant polynomial in one variable (arity 1)."""
    terms = {}
    top = rng.randint(1, max_degree)
    terms[(top,)] = _scalar(rng)
    for d in range(top):
        if rng.random() < 0.5:
            terms[(d,)] = _scalar(rng, zero_ok=True)
    return SparsePoly(1, terms)


def _shear(rng: random.Random, fiber: bool, max_degree: int) -> SymplectoMap:
    """(z1, z2 + p(z1)) or (z1 + q(z2), z2); both are exact area maps."""
    p = _univariate(rng, max_degree)
    z1 = SparsePoly.variable(2, 1)
    z2 = SparsePoly.variable(2, 2)
    if fiber:
        shift = p.subst([z1])
        fwd = (z1, z2 + shift)
        inv = (z1, z2 - shift)
    else:
        shift = p.subst([z2])
        fwd = (z1 + shift, z2)
        inv = (z1 - shift, z2)
    return SymplectoMap(fwd, inv, max(1, p.degree()))


def random_symplectomorphisms(count: int, seed: int,
                              max_degree: int = 3) -> list:
    """Plane symplectomorphisms built as words in shears and translations.

    max_degree caps the degree bound of the whole composite word, not of
    each factor: conjugating a product through a map of composite degree
    d lifts intermediate polynomial degrees by a factor of d^2, so
    uncapped words get expensive fast.
    """
    rng = _rng("symplecto", seed)
    out = []
    for _ in range(count):
        word = _shear(rng, rng.random() < 0.5,
                      rng.randint(min(2, max_degree), max_degree))
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(3)
            room = max_degree // word.degree_bound
            if kind < 2 and room >= 1:
                factor = _shear(rng, kind == 0, room)
            else:
                factor = SymplectoMap.translation(
                    [_scalar(rng, zero_ok=True), _scalar(rng, zero_ok=True)])
            word = word.compose(factor)
        out.append(word)
    return out
