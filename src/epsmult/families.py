"""Graded families of monomial ideals, indexed by a nonnegative integer.

A family is a rule n -> I_n with I_0 the unit ideal and I_a * I_b inside
I_(a+b).  The two rules used throughout the package, powers and
saturated powers, are provided as named constructors; instances are
immutable, hashable, and cache the ideals they have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ideals import MonomialIdeal, unit_ideal

_KINDS = ("powers", "saturated_powers")


@dataclass(frozen=True)
class GradedFamilySpec:
    """A named graded family rule over a base monomial ideal."""

    kind: str
    dim: int
    base: MonomialIdeal | None = None
    _cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.base is None:
            raise ValueError(f"family kind {self.kind!r} needs a base ideal")

    # -- constructors -----------------------------------------------------

    @classmethod
    def powers(cls, base: MonomialIdeal) -> "GradedFamilySpec":
        """n -> I^n."""
        return cls("powers", base.dim, base)

    @classmethod
    def saturated_powers(cls, base: MonomialIdeal) -> "GradedFamilySpec":
        """n -> saturation of I^n."""
        return cls("saturated_powers", base.dim, base)

    # -- evaluation --------------------------------------------------------

    def __call__(self, n: int) -> MonomialIdeal:
        n = int(n)
        if n < 0:
            raise ValueError("family index must be nonnegative")
        if n == 0:
            return unit_ideal(self.dim)
        got = self._cache.get(n)
        if got is None:
            got = self._compute(n)
            self._cache[n] = got
        return got

    def _compute(self, n: int) -> MonomialIdeal:
        if self.kind == "saturated_powers":
            return self._powers_family()(n).saturate()
        return self._chain(n)

    def _chain(self, n: int) -> MonomialIdeal:
        """I^n by incremental products along the chain I, I^2, ...

        Starts from the highest member already cached and caches every
        member it builds, so a deep index needs no recursion.
        """
        base = self.base
        assert base is not None
        j, ideal = 1, base
        for i in range(n - 1, 1, -1):
            if i in self._cache:
                j, ideal = i, self._cache[i]
                break
        for i in range(j + 1, n + 1):
            ideal = ideal.product(base)
            self._cache[i] = ideal
        return ideal

    def _powers_family(self) -> "GradedFamilySpec":
        got = self._cache.get("powers")
        if got is None:
            assert self.base is not None
            got = GradedFamilySpec.powers(self.base)
            self._cache["powers"] = got
        return got
