"""Seeded random monomial ideals for property suites and the lemma reports."""

from __future__ import annotations

import random

from .ideals import MonomialIdeal, _exact_int


def random_ideal(
    rng: random.Random,
    max_dim: int = 3,
    max_gens: int = 5,
    max_exp: int = 6,
) -> MonomialIdeal:
    """One random proper ideal.

    Dimension and generator count are uniform.  An exponent scale is drawn
    per ideal and the coordinates uniformly below it, so the corpus spans
    sparse shallow staircases and dense deep ones instead of clustering at
    the top of the exponent range.  The zero exponent vector is rejected,
    so the result is never the zero or unit ideal.
    """
    d = rng.randint(1, _exact_int(max_dim, "max_dim", 1))
    count = rng.randint(1, _exact_int(max_gens, "max_gens", 1))
    cap = rng.randint(1, _exact_int(max_exp, "max_exp", 1))
    gens: list[tuple[int, ...]] = []
    while len(gens) < count:
        v = tuple(rng.randint(0, cap) for _ in range(d))
        if any(v):
            gens.append(v)
    return MonomialIdeal(d, gens)


def corpus(
    seed: int,
    size: int,
    max_dim: int = 3,
    max_gens: int = 5,
    max_exp: int = 6,
) -> list[MonomialIdeal]:
    """A reproducible list of random proper ideals."""
    size = _exact_int(size, "size", 0)
    # checked here as well, so that a bad bound fails even when size is 0
    bounds = [
        _exact_int(max_dim, "max_dim", 1),
        _exact_int(max_gens, "max_gens", 1),
        _exact_int(max_exp, "max_exp", 1),
    ]
    rng = random.Random(seed)
    return [random_ideal(rng, *bounds) for _ in range(size)]
