"""Multiplicities from stabilized finite differences of length sequences.

Two normalized leading coefficients are computed exactly: the relative
multiplicity of a pair of ideals (inner inside outer, read off the
lengths of outer^k/inner^k) and the epsilon sequence of a single ideal
(lengths of saturation(I^n)/I^n).  A convergence table ties the two
together, and two checkers probe the containment and truncation lemmas
the theory rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .colength import colength, inside_saturation, saturation_max_degrees
from .errors import EpsmultError, InconclusiveError, InsufficientDataError, ZeroIdealError
from .families import GradedFamilySpec
from .ideals import MonomialIdeal, _exact_int


@dataclass(frozen=True)
class AmaoResult:
    """A stabilized d-th forward difference of a length sequence."""

    value: int
    stabilized_at: int  # 1-based index where the constant tail begins
    window: int  # number of consecutive equal values observed

    def __post_init__(self):
        if self.value < 0:
            raise EpsmultError(
                "stabilized leading difference is negative; "
                "the input is not a length sequence of nested ideal powers"
            )


@dataclass(frozen=True)
class EpsilonEstimate:
    """Exact rationals e_n = d! * length_n / n^d for n = 1..n_max."""

    sequence: tuple[Fraction, ...]
    lengths: tuple[int, ...]


@dataclass(frozen=True)
class TheoremARow:
    m: int
    a_value: int | None
    ratio: Fraction | None
    stabilized_at: int | None
    status: str  # "ok" or "inconclusive"
    tail: tuple[int, ...] = ()  # an inconclusive row's last d-th differences


@dataclass(frozen=True)
class ContainmentCheck:
    ok: bool
    first_failure: int | None = None


@dataclass(frozen=True)
class SwansonResult:
    """Least truncation constant passing on a finite (m, k) grid."""

    c: int | None  # None when nothing passes up to c_max
    per_pair: tuple[tuple[int, int, int], ...]  # (n, 1, least c): the pairs that bound the grid


def _check_terms(terms: int, d: int, window: int) -> None:
    """Raise InsufficientDataError unless terms can fill d differences and a window."""
    if terms < d + window:
        raise InsufficientDataError(
            f"need at least {d + window} terms to take {d} differences "
            f"with a window of {window}; got {terms}"
        )


def leading_difference(seq: list[int], d: int, window: int = 3) -> AmaoResult:
    """Stabilized d-th forward difference of an integer sequence.

    For a sequence that eventually agrees with a degree-<=d polynomial
    this is d! times the leading coefficient.  Raises InconclusiveError
    unless the final `window` differences agree exactly.
    """
    d, window = _exact_int(d, "d", 1), _exact_int(window, "window", 1)
    _check_terms(len(seq), d, window)
    diffs = [_exact_int(v, "a sequence term") for v in seq]
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    value = diffs[-1]
    start = len(diffs)
    while start > 0 and diffs[start - 1] == value:
        start -= 1
    observed = len(diffs) - start
    if observed < window:
        tail = tuple(diffs[-window:])
        raise InconclusiveError(
            f"d-th differences did not stabilize: last {observed} equal, "
            f"window of {window} required; last {len(tail)} d-th differences: "
            + ", ".join(map(str, tail)),
            tail=tail,
        )
    return AmaoResult(value=value, stabilized_at=start + 1, window=observed)


def amao(
    inner: MonomialIdeal,
    outer: MonomialIdeal,
    k_max: int = 20,
    window: int = 3,
) -> AmaoResult:
    """Normalized leading coefficient of k -> length(outer^k / inner^k).

    Requires inner inside outer with finite colength; the length at k = 1
    checks both, and an error names the index k where it arose.  The
    result is a nonnegative integer once the d-th differences stabilize.
    An equal pair has outer^k = inner^k, so every length is 0 and no power
    is formed.  Otherwise the powers are multiplied here, one product by
    inner and one by outer per k, and kept on neither argument: each is
    read once, so they are freed as the next one is formed.  A k_max too
    short for d differences and the window is refused after the length at
    k = 1, before any power is formed.
    """
    k_max, window = _exact_int(k_max, "k_max", 1), _exact_int(window, "window", 1)
    inner._check_same_dim(outer)
    seq = [0] * k_max
    if outer is not inner and outer != inner:
        power_in, power_out = inner, outer
        for k in range(1, k_max + 1):
            try:
                if k > 1:
                    power_in, power_out = power_in.product(inner), power_out.product(outer)
                seq[k - 1] = colength(power_in, power_out)
            except EpsmultError as exc:
                raise type(exc)(f"{exc} (at family index n={k})") from exc
            if k == 1:
                _check_terms(k_max, inner.dim, window)
    return leading_difference(seq, inner.dim, window=window)


def epsilon_sequence(ideal: MonomialIdeal, n_max: int) -> EpsilonEstimate:
    """e_n = d! * length(saturation(I^n)/I^n) / n^d for n = 1..n_max."""
    if ideal.is_zero or ideal.is_unit:
        raise ZeroIdealError("epsilon sequence needs an ideal that is neither zero nor the ring")
    n_max = _exact_int(n_max, "n_max", 1)
    d = ideal.dim
    fact = math.factorial(d)
    powers = GradedFamilySpec(ideal)
    lengths = tuple(colength(powers(n), None) for n in range(1, n_max + 1))
    values = tuple(Fraction(fact * ln, n**d) for n, ln in enumerate(lengths, 1))
    return EpsilonEstimate(values, lengths)


def theorem_a_table(
    ideal: MonomialIdeal,
    m_max: int = 6,
    k_max: int = 20,
    window: int = 3,
) -> list[TheoremARow]:
    """Rows (m, a_m, a_m/m^d) for the multiplicity convergence table.

    a_m is the relative multiplicity of I^m inside its saturation.  Rows
    whose difference sequence fails to stabilize are marked inconclusive
    rather than dropped, so the table shape is always m_max rows.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ZeroIdealError("the convergence table needs an ideal that is neither zero nor the ring")
    m_max = _exact_int(m_max, "m_max", 1)
    d = ideal.dim
    powers = GradedFamilySpec(ideal)
    rows: list[TheoremARow] = []
    for m in range(1, m_max + 1):
        inner = powers(m)
        outer = inner.saturate()
        try:
            res = amao(inner, outer, k_max=k_max, window=window)
        except InconclusiveError as exc:
            rows.append(TheoremARow(m, None, None, None, "inconclusive", exc.tail))
            continue
        rows.append(
            TheoremARow(m, res.value, Fraction(res.value, m**d), res.stabilized_at, "ok")
        )
    return rows


def check_sat_power_containment(ideal: MonomialIdeal, i_max: int) -> ContainmentCheck:
    """Verify saturate(I)^i lies inside saturate(I^i) for i = 1..i_max.

    Every sat(I^i) is read off I^i's grid, all of them in one stacked pass
    over I^1..I^i_max (colength.inside_saturation), with no saturation
    ideal formed past sat(I); first_failure is the least failing i.  A
    saturated I, with sat(I)^i = I^i, passes with no power formed.
    """
    i_max = _exact_int(i_max, "i_max", 1)
    sat = ideal.saturate()
    if sat is ideal:
        return ContainmentCheck(True, None)
    sat_powers, powers = GradedFamilySpec(sat), GradedFamilySpec(ideal)
    steps = range(1, i_max + 1)
    inside = inside_saturation([sat_powers(i) for i in steps], [powers(i) for i in steps])
    first = next((i for i, ok in zip(steps, inside) if not ok), None)
    return ContainmentCheck(first is None, first)


def swanson_c_search(
    ideal: MonomialIdeal,
    c_max: int = 8,
    mk_bound: int = 12,
) -> SwansonResult:
    """Least c with I^(mk) and (saturation(I^m))^k agreeing past degree c*m*k.

    Answers for every pair (m, k) with m*k <= mk_bound, checking only the
    pairs (n, 1).  As I^(mk) <= sat(I^m)^k <= sat(I^(mk)), the difference
    of the pair (m, k) lies inside that of (mk, 1), so its deepest degree
    D(m, k) is at most D(mk, 1) and its least passing c, floor(D/(m*k)) + 1,
    at most that of (mk, 1).  The max over the grid is therefore the max
    over n = 1..mk_bound of the pairs (n, 1), read as
    difference_max_degree(I^n, None) for the whole chain in one stacked
    pass (colength.saturation_max_degrees): one fill of the powers' own
    grids from their rows, with no grid memo filled and no saturation
    ideal formed.  The max is None if it exceeds c_max.  This falsifies
    or corroborates on a grid --- it proves nothing beyond it.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ZeroIdealError("the truncation search needs an ideal that is neither zero nor the ring")
    c_max, mk_bound = _exact_int(c_max, "c_max", 1), _exact_int(mk_bound, "mk_bound", 1)
    powers = GradedFamilySpec(ideal)
    deepest = saturation_max_degrees([powers(n) for n in range(1, mk_bound + 1)])
    per_pair = tuple((n, 1, 1 if D is None else D // n + 1) for n, D in enumerate(deepest, 1))
    worst = max(c for _, _, c in per_pair)
    return SwansonResult(worst if worst <= c_max else None, per_pair)
