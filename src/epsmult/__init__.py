"""Exact epsilon and Amao multiplicities of monomial ideals.

Everything is integer or rational arithmetic: staircase ideal algebra,
exact quotient lengths, stabilized finite differences, truncated value
semigroups, and convex-hull volumes, with a CLI for deterministic
reports.
"""

from .colength import colength, difference_max_degree, is_finite_colength
from .corpus import corpus, random_ideal
from .errors import (
    DimensionMismatchError,
    EpsmultError,
    IdealSyntaxError,
    InconclusiveError,
    InfiniteColengthError,
    InsufficientDataError,
    SizeLimitError,
    ZeroIdealError,
)
from .families import GradedFamilySpec
from .ideals import (
    MonomialIdeal,
    from_json_dict,
    maximal_ideal,
    to_json_dict,
    unit_ideal,
    zero_ideal,
)
from .multiplicity import (
    AmaoResult,
    ContainmentCheck,
    EpsilonEstimate,
    SwansonResult,
    TheoremARow,
    amao,
    check_sat_power_containment,
    epsilon_sequence,
    leading_difference,
    swanson_c_search,
    theorem_a_table,
)
from .okounkov import (
    BetaStability,
    EpsilonViaVolumes,
    beta_stability,
    epsilon_via_volumes,
    hull_volume,
    simplex_counts,
)
from .semigroups import (
    Semigroup,
    check_cone_conditions,
    k_fold_sum_count,
    semigroup_from_json_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AmaoResult",
    "BetaStability",
    "ContainmentCheck",
    "DimensionMismatchError",
    "EpsilonEstimate",
    "EpsilonViaVolumes",
    "EpsmultError",
    "GradedFamilySpec",
    "IdealSyntaxError",
    "InconclusiveError",
    "InfiniteColengthError",
    "InsufficientDataError",
    "MonomialIdeal",
    "Semigroup",
    "SizeLimitError",
    "SwansonResult",
    "TheoremARow",
    "ZeroIdealError",
    "amao",
    "beta_stability",
    "check_cone_conditions",
    "check_sat_power_containment",
    "colength",
    "corpus",
    "difference_max_degree",
    "epsilon_sequence",
    "epsilon_via_volumes",
    "from_json_dict",
    "hull_volume",
    "is_finite_colength",
    "k_fold_sum_count",
    "leading_difference",
    "maximal_ideal",
    "random_ideal",
    "semigroup_from_json_dict",
    "simplex_counts",
    "swanson_c_search",
    "theorem_a_table",
    "to_json_dict",
    "unit_ideal",
    "zero_ideal",
]
