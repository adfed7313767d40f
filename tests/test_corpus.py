"""The seeded corpus must not drift.

Checks and acceptance runs name their inputs by (generator, seed), so a
change to how the generators draw from the PRNG would silently change
what every seeded check tests.  These digests pin the exact term maps;
a deliberate change to the sampling logic bumps ``CORPUS_VERSION`` and
the digests together.
"""

import hashlib

from starkit.corpus import (random_permutations, random_poly,
                            random_poly_pairs, random_poly_triples,
                            random_sl2_matrices, random_symplectomorphisms,
                            random_translations)

SEEDS = (0, 1, 7, 42)


def _poly_key(p):
    return p.arity, sorted((e, c.to_kernel()) for e, c in p.terms())


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode("ascii")).hexdigest()


def test_pairs_stream_is_pinned():
    values = [[(_poly_key(f), _poly_key(g))
               for f, g in random_poly_pairs(4, 6, 3, seed)]
              for seed in SEEDS]
    assert _digest(values) == PAIRS_DIGEST


def test_triples_stream_is_pinned():
    values = [[tuple(_poly_key(p) for p in triple)
               for triple in random_poly_triples(2, 6, 4, seed)]
              for seed in SEEDS]
    assert _digest(values) == TRIPLES_DIGEST


def test_translations_stream_is_pinned():
    values = [[tuple(c.to_kernel() for c in shift)
               for shift in random_translations(2, 6, seed)]
              for seed in SEEDS]
    assert _digest(values) == TRANSLATIONS_DIGEST


# the streams below mix corpus draws with the rng's own randint, random,
# choice and shuffle calls on one generator, so they also pin that the
# draws consume the rng exactly as randint does

def test_poly_stream_is_pinned():
    values = [[_poly_key(random_poly(arity, 4, seed)) for arity in (1, 2, 4)]
              for seed in SEEDS]
    assert _digest(values) == POLY_DIGEST


def test_sl2_stream_is_pinned():
    values = [[[[(x.numerator, x.denominator) for x in row] for row in mat]
               for mat in random_sl2_matrices(6, seed)]
              for seed in SEEDS]
    assert _digest(values) == SL2_DIGEST


def test_symplectomorphisms_stream_is_pinned():
    values = [[(m.degree_bound, [_poly_key(p) for p in m.forward],
                [_poly_key(p) for p in m.inverse])
               for m in random_symplectomorphisms(4, seed)]
              for seed in SEEDS]
    assert _digest(values) == SYMPLECTO_DIGEST


def test_permutations_stream_is_pinned():
    values = [[p.images for p in random_permutations(7, 6, seed)]
              for seed in SEEDS]
    assert _digest(values) == PERMUTATIONS_DIGEST


PAIRS_DIGEST = (
    "6475818caad061000051f01d68075a9cfdb1093019839fa3c09025d658a092ad")
TRIPLES_DIGEST = (
    "a60041ad6cf9490e55f608c3eef4b2a8e95d9635f8b73151037027cc4ab1c2b0")
TRANSLATIONS_DIGEST = (
    "1c772ab35b1d38b1cb9ce75c6c1ee0916e3f901f0e24b6b1522112139ba6231a")
POLY_DIGEST = (
    "b7e5328baabe38d49b62980b12e796f2838e1f07d7e5975f93208991ca2a2c58")
SL2_DIGEST = (
    "aeb186c5c34d99f57dbe0e9b6768970d7acbc2f844ec7c9e6df05ab1840bfec3")
SYMPLECTO_DIGEST = (
    "23d24dfe3e4d7367baa772037a7cbf45bf4f5c8c1782cd6bdf9cd6a6ecba73da")
PERMUTATIONS_DIGEST = (
    "08ea87d0266e32f445b86bd1873bc36a9fb7207ebcf3ed4fd219905081667efb")
