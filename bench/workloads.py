"""Seeded inputs of the three benchmark workloads.

The generator here is the benchmark's own and imports nothing from
``epsmult``, so a change to the program (its ``corpus`` module included)
cannot change what the benchmark sends.  ``make_ops(name, seed)`` returns
the operations of one pass; equal seeds give equal operations.  The
program only ever sees the generated argv strings and the ideal and
semigroup JSON embedded in them.

The ideals, semigroups and sumsets of every workload are fixed, and the
seed shuffles the generators of each input and the order of the
operations.  The program normalizes both away, so every seed asks for the
same work: the benchmark's figures are compared across runs with
different seeds, and inputs drawn from the seed moved the time of a pass
by 10-40% whatever the code did.

Every operation is one closed-loop call: a CLI report through
``epsmult.cli.main`` or, for the sumset sweep that no subcommand reaches,
a run of ``k_fold_sum_count``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 1

# The lemma pool and the volumes_2d shapes are drawn once from these fixed
# seeds, whatever --seed is (see the workloads below).
LEMMAS_POOL_SEED = 20240412
STAIRCASE_SEED = 20240413

LAYERS = ("cli", "multiplicity", "families", "ideals", "colength", "okounkov", "semigroups")


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``kind`` names the report and selects its invariant checks; ``argv``
    is the CLI command line (None for the sumset sweep); ``meta`` holds
    what the checks need to recompute the answer independently.
    """

    name: str
    kind: str
    argv: tuple[str, ...] | None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple[str, ...]  # layers a traced pass must show calls in
    build: Callable[[random.Random], list[Op]]


def ideal_json(dim: int, gens) -> str:
    return json.dumps({"dim": dim, "generators": [list(g) for g in gens]}, separators=(",", ":"))


def _semigroup_json(dim: int, points) -> str:
    return json.dumps(
        {"dim": dim, "generators": [list(p) + [1] for p in points]}, separators=(",", ":")
    )


# -- powers_3d4d ---------------------------------------------------------------
#
# Why: the d >= 3 colength walk is about 98% of this time (cProfile), so a
# staircase kernel shows here, while okounkov and semigroups do no work.
# The cost of a report swings fivefold with its exponents, so a pass that
# drew them from the seed moved by 10-40% across seeds.  The ideals are
# therefore fixed: a Latin set of triples (every exponent value once in
# every position) and a complementary pair of 4-variable vectors (v and
# 5 - v).  The seed shuffles the generators of each ideal and the order of
# the operations, which leaves the work of a pass unchanged.  --nmax is 5
# (3 variables) and 3 (4 variables), so that a pass takes about 1.2 s on
# the reference core and a run times every operation about 30 times.

TRIPLES = ((2, 3, 4), (3, 4, 2), (4, 2, 3))
QUADS = ((2, 3, 2, 3), (3, 2, 3, 2))
NMAX3, NMAX4 = 5, 3


def shape3(a: int, b: int, c: int) -> list[tuple[int, ...]]:
    """(x^a*y, y^b*z, x*z^c, x*y*z)."""
    return [(a, 1, 0), (0, b, 1), (1, 0, c), (1, 1, 1)]


def shape4(a: int, b: int, c: int, e: int) -> list[tuple[int, ...]]:
    """(x^a*y, y^b*z, z^c*w, x*w^e)."""
    return [(a, 1, 0, 0), (0, b, 1, 0), (0, 0, c, 1), (1, 0, 0, e)]


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _powers_3d4d(rng: random.Random) -> list[Op]:
    ops = []
    for dim, shape, vectors, nmax in ((3, shape3, TRIPLES, NMAX3), (4, shape4, QUADS, NMAX4)):
        for pos, exps in enumerate(vectors):
            gens = _shuffled(rng, shape(*exps))
            ops.append(
                Op(
                    f"epsilon{dim}[{pos}]",
                    "epsilon",
                    ("epsilon", "-i", ideal_json(dim, gens), "--nmax", str(nmax)),
                    {"dim": dim, "exponents": exps, "generators": gens},
                )
            )
    exps = TRIPLES[0]
    gens = _shuffled(rng, shape3(*exps))
    ops.append(
        Op(
            "theorem_a",
            "theorem-a",
            (
                "theorem-a", "-i", ideal_json(3, gens),
                "--mmax", "1", "--kmax", "10", "--nmax", "4",
            ),
            {"dim": 3, "exponents": exps, "generators": gens},
        )
    )
    rng.shuffle(ops)
    return ops


# -- volumes_2d ----------------------------------------------------------------
#
# Why: the big-input numpy path of ideals.minimal_vectors (about half of the
# okounkov-volume time) does most of the work here, with simplex counting,
# the semigroup raster and the sumset dedup; colength is never called.
# okounkov-volume cost grows with the number of minimal generators, so a
# pass holds one staircase with each of 2, 3 and 4 corners.  Semigroups are
# generated in level 1 by all lattice points of a lattice polygon or box, so
# every level count has a closed form (Ehrhart) to check against.  The
# sumset sweep has the shape of acceptance criterion 5, on a unimodular
# image of the standard triangle, so its counts have a closed form too.
# The cost of each report moves with its shape, so the staircases, the
# polygon and the triangle are drawn once from a fixed seed; --seed
# shuffles the generators of every input and the order of the operations.
# Sizes (okounkov --nmax 40, sumsets up to k = 15) keep a pass near 1.2 s
# on the reference core, so that a run times every operation about 30
# times.


def _staircase(rng: random.Random, corners: int) -> list[tuple[int, int]]:
    """A 2-variable staircase with exactly `corners` minimal generators, exponents <= 6."""
    xs = sorted(rng.sample(range(7), corners))
    ys = sorted(rng.sample(range(7), corners), reverse=True)
    return list(zip(xs, ys))


def convex_hull(points) -> list[tuple[int, int]]:
    """Vertices of the convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_points(hull) -> list[tuple[int, int]]:
    """All lattice points in the closed convex polygon with these CCW vertices."""
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    inside = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if all(
                (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0
                for a, b in zip(hull, hull[1:] + hull[:1])
            ):
                inside.append((x, y))
    return inside


def _lattice_polygon(rng: random.Random) -> list[tuple[int, int]]:
    """Vertices of a random lattice polygon spanning [0,4]^2 with area 9 to 13."""
    while True:
        hull = convex_hull([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(7)])
        xs = {p[0] for p in hull}
        ys = {p[1] for p in hull}
        if len(hull) < 3 or not ({0, 4} <= xs and {0, 4} <= ys):
            continue
        twice_area = abs(
            sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(hull, hull[1:] + hull[:1]))
        )
        if 18 <= twice_area <= 26:
            return hull


def _unimodular_triangle(rng: random.Random) -> list[tuple[int, int]]:
    """Image of (0,0), (1,0), (0,1) under a random unimodular map, translated into N^2."""
    m = [[1, 0], [0, 1]]
    for _ in range(3):
        i = rng.randrange(2)
        f = rng.choice((-2, -1, 1, 2))
        m[i] = [m[i][0] + f * m[1 - i][0], m[i][1] + f * m[1 - i][1]]
    pts = [(0, 0), (m[0][0], m[1][0]), (m[0][1], m[1][1])]
    lo = (min(p[0] for p in pts), min(p[1] for p in pts))
    return sorted((p[0] - lo[0], p[1] - lo[1]) for p in pts)


SUMSET_LEVELS = (1, 2, 3)
SUMSET_KMAX = 15
OKOUNKOV_NMAX = 40
SEMIGROUP_BOX = (1, 2, 3)


def _volumes_2d(rng: random.Random) -> list[Op]:
    ops = []
    fixed = random.Random(STAIRCASE_SEED)
    for corners in (2, 3, 4):
        gens = _shuffled(rng, _staircase(fixed, corners))
        ops.append(
            Op(
                f"okounkov[{corners}]",
                "okounkov-volume",
                (
                    "okounkov-volume", "-i", ideal_json(2, gens),
                    "--beta", "4", "--nmax", str(OKOUNKOV_NMAX),
                ),
                {"dim": 2, "generators": gens, "beta": 4, "nmax": OKOUNKOV_NMAX},
            )
        )
    hull = _lattice_polygon(fixed)
    pts = _shuffled(rng, polygon_points(hull))
    beta = max(x + y for x, y in pts)
    ops.append(
        Op(
            "semigroup2",
            "semigroup",
            ("semigroup", "-i", _semigroup_json(2, pts), "--nmax", "100", "--beta", str(beta)),
            {"dim": 2, "points": pts, "hull": hull, "beta": beta, "nmax": 100},
        )
    )
    box = SEMIGROUP_BOX
    pts3 = _shuffled(rng, itertools.product(*(range(u + 1) for u in box)))
    ops.append(
        Op(
            "semigroup3",
            "semigroup",
            ("semigroup", "-i", _semigroup_json(3, pts3), "--nmax", "50", "--beta", str(sum(box))),
            {"dim": 3, "points": pts3, "box": box, "beta": sum(box), "nmax": 50},
        )
    )
    tri = _shuffled(rng, _unimodular_triangle(fixed))
    ops.append(
        Op(
            "sumsets",
            "sumsets",
            None,
            {
                "semigroup": {"dim": 2, "generators": [list(p) + [1] for p in tri]},
                "levels": SUMSET_LEVELS,
                "kmax": SUMSET_KMAX,
            },
        )
    )
    rng.shuffle(ops)
    return ops


# -- lemmas_corpus -------------------------------------------------------------
#
# Why: the same ideals and colength code as powers_3d4d, but
# through many tiny calls (median near 5 ms): the pure-Python minimalization
# below the 64-candidate cutover, the dense-grid difference_max_degree, and
# per-call CLI overhead.  A kernel that wins on big staircases but loses on
# small ones shows its loss here, and it is the workload with enough
# operations for latency percentiles.  The pool has the shape of the lemmas
# corpus: two ideals for every (variables 1-3, generators 1-5, exponent
# scale 1-6), except 3-variable ideals with 5 generators: 168 ideals.  The
# excluded ones took 0.15-0.9 s each and half the time of a pass, so the
# rest were timed too few times per run.  The heavier 3-variable ideals
# still take 0.1-0.3 s, and their cost moves with the order of the
# variables, so fresh draws or relabeling moved the pass time by 10-40%
# across seeds.  The pool is therefore fixed, and the seed shuffles the
# generators of every ideal and the order of the operations.


def lemma_pool() -> list[tuple[int, list[tuple[int, ...]]]]:
    rng = random.Random(LEMMAS_POOL_SEED)
    pool = []
    for dim in (1, 2, 3):
        for count in range(1, 6 if dim < 3 else 5):
            for scale in range(1, 7):
                for _ in range(2):
                    gens: list[tuple[int, ...]] = []
                    while len(gens) < count:
                        v = tuple(rng.randint(0, scale) for _ in range(dim))
                        if any(v):
                            gens.append(v)
                    pool.append((dim, gens))
    return pool


def _lemmas_corpus(rng: random.Random) -> list[Op]:
    ops = []
    for index, (dim, gens) in enumerate(lemma_pool()):
        gens = _shuffled(rng, gens)
        ops.append(
            Op(
                f"lemmas[{index}]",
                "lemmas",
                ("lemmas", "-i", ideal_json(dim, gens), "--nmax", "0", "--kmax", "4"),
                {"dim": dim, "generators": gens, "pool_index": index},
            )
        )
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "powers_3d4d",
            "3- and 4-variable epsilon reports: the colength walk does ~98% of the work",
            ("cli", "multiplicity", "families", "ideals", "colength"),
            _powers_3d4d,
        ),
        Workload(
            "volumes_2d",
            "volume, semigroup and sumset reports: minimalization, simplex counts, raster, dedup",
            ("cli", "families", "ideals", "okounkov", "semigroups"),
            _volumes_2d,
        ),
        Workload(
            "lemmas_corpus",
            "168 small lemmas reports: per-call overhead and small-staircase paths",
            ("cli", "multiplicity", "families", "ideals", "colength"),
            _lemmas_corpus,
        ),
    )
}


def make_ops(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload `name` for this seed."""
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"))
