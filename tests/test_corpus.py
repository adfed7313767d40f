"""The seeded corpus must not drift.

Checks and acceptance runs name their inputs by (generator, seed), so a
change to how the generators draw from the PRNG would silently change
what every seeded check tests.  These digests pin the exact term maps;
a deliberate change to the sampling logic bumps ``CORPUS_VERSION`` and
the digests together.
"""

import hashlib

from starkit.corpus import (random_poly_pairs, random_poly_triples,
                            random_translations)

SEEDS = (0, 1, 7, 42)


def _poly_key(p):
    return p.arity, sorted(p._terms.items())


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


PAIRS_DIGEST = (
    "6475818caad061000051f01d68075a9cfdb1093019839fa3c09025d658a092ad")
TRIPLES_DIGEST = (
    "a60041ad6cf9490e55f608c3eef4b2a8e95d9635f8b73151037027cc4ab1c2b0")
TRANSLATIONS_DIGEST = (
    "1c772ab35b1d38b1cb9ce75c6c1ee0916e3f901f0e24b6b1522112139ba6231a")
