"""Graded families of monomial ideals, indexed by a nonnegative integer.

A family is a rule n -> I_n with I_0 the unit ideal and I_a * I_b inside
I_(a+b).  The two rules used throughout the package, powers and
saturated powers, are provided as named constructors.  Both are read off
the base ideal's own memos (MonomialIdeal.power and .saturate), so every
family over one base ideal shares one chain of powers and each
saturation.  Instances are immutable and hashable, and cache the ideals
they have returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ideals import MonomialIdeal, _exact_int

_KINDS = ("powers", "saturated_powers")


@dataclass(frozen=True)
class GradedFamilySpec:
    """A named graded family rule over a base monomial ideal."""

    kind: str
    base: MonomialIdeal
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not isinstance(self.base, MonomialIdeal):
            raise TypeError(f"a family's base must be a MonomialIdeal, got {self.base!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def powers(cls, base: MonomialIdeal) -> "GradedFamilySpec":
        """n -> I^n."""
        return cls("powers", base)

    @classmethod
    def saturated_powers(cls, base: MonomialIdeal) -> "GradedFamilySpec":
        """n -> saturation of I^n."""
        return cls("saturated_powers", base)

    # -- evaluation --------------------------------------------------------

    def __call__(self, n: int) -> MonomialIdeal:
        n = _exact_int(n, "a family index", 0)
        got = self._cache.get(n)
        if got is None:
            got = self.base.power(n)
            if self.kind == "saturated_powers":
                got = got.saturate()
            self._cache[n] = got
        return got
