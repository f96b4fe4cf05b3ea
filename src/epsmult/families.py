"""The graded family of powers of a monomial ideal, indexed by a nonnegative integer.

A family is a rule n -> I_n with I_0 the unit ideal and I_a * I_b inside
I_(a+b).  GradedFamilySpec(I) is the rule n -> I^n, read off the base
ideal's own chain (MonomialIdeal.power); the saturated powers are
fam(n).saturate(), read off each I^n's own grid.  So every family over
one base ideal shares one chain of powers and its grids.  Instances are
immutable and hashable, and cache the ideals they have returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ideals import MonomialIdeal, _exact_int


@dataclass(frozen=True)
class GradedFamilySpec:
    """The family n -> I^n over a base monomial ideal I."""

    base: MonomialIdeal
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if not isinstance(self.base, MonomialIdeal):
            raise TypeError(f"a family's base must be a MonomialIdeal, got {self.base!r}")

    def __call__(self, n: int) -> MonomialIdeal:
        n = _exact_int(n, "a family index", 0)
        got = self._cache.get(n)
        if got is None:
            got = self._cache[n] = self.base.power(n)
        return got
