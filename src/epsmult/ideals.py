"""Exact arithmetic for monomial ideals in a polynomial ring k[x_1..x_d].

A monomial ideal is stored by its unique minimal generating set of
exponent vectors (an antichain under the componentwise order).  Every
constructor and every operation normalizes eagerly, so two ideals are
equal as values exactly when they are equal as ideals.  The unit ideal
is generated by the zero vector; the zero ideal has no generators.

All arithmetic is exact integer arithmetic.  numpy is used internally to
vectorize the antichain filter and batched membership tests on larger
inputs; a pure-Python path handles small ones (and doubles as an oracle
for the vectorized path in the test suite).  The numpy paths work in
int64 and accept generators of degree at most DEGREE_LIMIT = 2^61; past
it they raise SizeLimitError instead of wrapping.

Instances are immutable and hashable; operations return new ideals and
are safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError, ZeroIdealError

Exponent = tuple[int, ...]

# Below this many candidate vectors the plain-Python antichain filter wins.
_NUMPY_CUTOVER = 64
_BLOCK = 512

# Largest generator degree (coordinate sum) the int64 paths accept.  Below
# it every coordinate, the sum or maximum of two exponent vectors, and every
# row's coordinate sum stay at most 2^62, so no int64 arithmetic can wrap.
DEGREE_LIMIT = 1 << 61


def _as_vector(vec: Iterable[int], dim: int) -> Exponent:
    v = tuple(int(c) for c in vec)
    if len(v) != dim:
        raise DimensionMismatchError(
            f"exponent vector {v} has length {len(v)}, expected {dim}"
        )
    if any(c < 0 for c in v):
        raise ValueError(f"exponent vector {v} has a negative entry")
    return v


def _dominates(small: Exponent, big: Exponent) -> bool:
    return all(s <= b for s, b in zip(small, big))


def _minimal_python(cands: set[Exponent]) -> list[Exponent]:
    out: list[Exponent] = []
    for c in sorted(cands, key=lambda t: (sum(t), t)):
        if not any(_dominates(g, c) for g in out):
            out.append(c)
    return out


def _int64_rows(rows, dim: int) -> np.ndarray:
    """Exponent vectors as an (n, dim) int64 array, within DEGREE_LIMIT."""
    if max(map(sum, rows), default=0) > DEGREE_LIMIT:
        raise SizeLimitError(
            f"a generator has degree above {DEGREE_LIMIT} (2^61), "
            "past the exact int64 range"
        )
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), dim)


def _minimal_numpy(cands: set[Exponent]) -> list[Exponent]:
    rows = sorted(cands)
    arr = _int64_rows(rows, len(rows[0]))
    arr = arr[np.argsort(arr.sum(axis=1), kind="stable")]
    kept = np.empty_like(arr)
    n_kept = 0
    for start in range(0, len(arr), _BLOCK):
        block = arr[start : start + _BLOCK]
        if n_kept:
            dominated = (kept[None, :n_kept, :] <= block[:, None, :]).all(2).any(1)
            block = block[~dominated]
        # Survivors can still dominate each other within the block.  The
        # rows are distinct, so a row dominated by any other survivor is
        # dominated by a minimal one, and the diagonal is the only self-match.
        inner = (block[None, :, :] <= block[:, None, :]).all(2)
        np.fill_diagonal(inner, False)
        block = block[~inner.any(1)]
        kept[n_kept : n_kept + len(block)] = block
        n_kept += len(block)
    return list(map(tuple, kept[:n_kept].tolist()))


def minimal_vectors(vectors: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Minimal elements of a set of exponent vectors, sorted lexicographically."""
    cands = set(vectors)
    if len(cands) <= 1:
        return tuple(sorted(cands))
    if len(cands) < _NUMPY_CUTOVER:
        kept = _minimal_python(cands)
    else:
        kept = _minimal_numpy(cands)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal sorted generating set."""

    dim: int
    generators: tuple[Exponent, ...]

    def __init__(self, dim: int, generators: Iterable[Iterable[int]] = ()):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        gens = minimal_vectors(_as_vector(g, dim) for g in generators)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    def _array(self) -> np.ndarray:
        arr = getattr(self, "_np", None)
        if arr is None:
            arr = _int64_rows(self.generators, self.dim)
            object.__setattr__(self, "_np", arr)
        return arr

    def max_exponents(self) -> Exponent:
        """Componentwise maximum over the generators (zeros for the zero ideal)."""
        if self.is_zero:
            return (0,) * self.dim
        return tuple(int(v) for v in self._array().max(axis=0))

    def contains(self, vec: Iterable[int]) -> bool:
        """Membership of the monomial x^vec."""
        e = _as_vector(vec, self.dim)
        return any(_dominates(g, e) for g in self.generators)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, dim) array of exponent vectors."""
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.dim)
        if self.is_zero or not len(pts):
            return np.zeros(len(pts), dtype=bool)
        gens = self._array()
        out = np.zeros(len(pts), dtype=bool)
        for start in range(0, len(pts), 4096):
            block = pts[start : start + 4096]
            out[start : start + 4096] = (
                (gens[None, :, :] <= block[:, None, :]).all(2).any(1)
            )
        return out

    def __iter__(self) -> Iterator[Exponent]:
        return iter(self.generators)

    def _check_same_dim(self, other: "MonomialIdeal") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"ideals live in {self.dim} and {other.dim} variables"
            )

    # -- ideal arithmetic ----------------------------------------------

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum I + J."""
        self._check_same_dim(other)
        return _make(self.dim, minimal_vectors(self.generators + other.generators))

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal product I * J (pairwise sums of generators, minimalized)."""
        self._check_same_dim(other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dim)
        a, b = self._array(), other._array()
        sums = (a[:, None, :] + b[None, :, :]).reshape(-1, self.dim)
        return _from_rows(self.dim, sums)

    def power(self, n: int) -> "MonomialIdeal":
        """I^n by binary exponentiation; I^0 is the unit ideal."""
        n = int(n)
        if n < 0:
            raise ValueError("power wants a nonnegative exponent")
        result = unit_ideal(self.dim)
        base = self
        while n:
            if n & 1:
                result = result.product(base)
            n >>= 1
            if n:
                base = base.product(base)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal intersection via componentwise maxima of generator pairs."""
        self._check_same_dim(other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dim)
        a, b = self._array(), other._array()
        maxes = np.maximum(a[:, None, :], b[None, :, :]).reshape(-1, self.dim)
        return _from_rows(self.dim, maxes)

    def _colon_single(self, g: Exponent) -> "MonomialIdeal":
        if self.is_zero:
            return zero_ideal(self.dim)
        shifted = self._array() - _int64_rows([g], self.dim)
        return _from_rows(self.dim, np.maximum(shifted, 0))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Colon ideal I : J.  J must be nonzero."""
        self._check_same_dim(other)
        if other.is_zero:
            raise ZeroIdealError("colon by the zero ideal is undefined")
        result: MonomialIdeal | None = None
        for g in other.generators:
            part = self._colon_single(g)
            result = part if result is None else result.intersect(part)
        assert result is not None
        return result

    def saturate(self) -> "MonomialIdeal":
        """Saturation I : m^infinity with respect to m = (x_1, .., x_d).

        x^e lies in the saturation iff for every variable j some power
        x_j^t pushes x^e into I, and t = (largest exponent of x_j over
        the generators) always suffices.  So the saturation is the
        intersection over j of I : x_j^(T_j), a fixed finite computation.
        """
        if self.is_zero or self.is_unit:
            return self
        caps = self.max_exponents()
        result: MonomialIdeal | None = None
        for j, t in enumerate(caps):
            g = tuple(t if i == j else 0 for i in range(self.dim))
            part = self._colon_single(g)
            result = part if result is None else result.intersect(part)
        assert result is not None
        return result

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        """Containment I <= J, decided on the generators of I."""
        self._check_same_dim(other)
        return all(other.contains(g) for g in self.generators)

    # -- operator sugar --------------------------------------------------

    __add__ = sum
    __mul__ = product
    __pow__ = power
    __and__ = intersect

    def __repr__(self) -> str:
        return f"MonomialIdeal(dim={self.dim}, generators={list(self.generators)})"


def _make(dim: int, sorted_minimal: tuple[Exponent, ...]) -> MonomialIdeal:
    """Internal constructor for generator sets already minimal and sorted."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "dim", dim)
    object.__setattr__(ideal, "generators", sorted_minimal)
    return ideal


def _from_rows(dim: int, rows: np.ndarray) -> MonomialIdeal:
    cands = set(map(tuple, rows.tolist()))
    return _make(dim, minimal_vectors(cands))


def zero_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ())


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def maximal_ideal(dim: int) -> MonomialIdeal:
    """The irrelevant maximal ideal m = (x_1, .., x_d)."""
    gens = []
    for j in range(dim):
        gens.append(tuple(1 if i == j else 0 for i in range(dim)))
    return MonomialIdeal(dim, gens)


def minimalize(generators: Iterable[Iterable[int]], dim: int) -> MonomialIdeal:
    """Build the ideal generated by arbitrary vectors (normalizing constructor)."""
    return MonomialIdeal(dim, generators)


def saturate_by_colon_iteration(
    ideal: MonomialIdeal, max_steps: int = 10_000
) -> MonomialIdeal:
    """Saturation by iterating J <- J : m until a fixed point.

    The chain is ascending and stabilizes exactly at the saturation.
    Kept alongside the closed-form `MonomialIdeal.saturate` as an
    independent route; raises RuntimeError if the cap is ever hit.
    """
    m = maximal_ideal(ideal.dim)
    current = ideal
    for _ in range(max_steps):
        nxt = current.colon(m)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError(f"saturation did not stabilize within {max_steps} colon steps")


# -- serialization ------------------------------------------------------


def to_json_dict(ideal: MonomialIdeal) -> dict:
    """JSON-ready form: {"dim": d, "generators": [[..], ..]}, minimal and sorted."""
    return {"dim": ideal.dim, "generators": [list(g) for g in ideal.generators]}


def from_json_dict(data: dict) -> MonomialIdeal:
    if not isinstance(data, dict):
        raise ValueError("ideal JSON must be an object")
    try:
        dim = data["dim"]
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError('ideal JSON needs "dim" and "generators" keys') from exc
    if not isinstance(gens, list):
        raise ValueError('"generators" must be a list of exponent vectors')
    return MonomialIdeal(int(dim), gens)
