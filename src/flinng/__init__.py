"""Near neighbor search by group testing over LSH code filters.

Points are hashed into short LSH codes, distributed over a grid of cells,
and located at query time by counting code collisions per cell through
reverse tables, then intersecting the firing cells across repetitions.
"""

from .dsbf import DistanceSensitiveFilter, FilterBounds, membership_error_bounds
from .errors import (
    BoundInvalidError,
    ConfigError,
    DegenerateQueryError,
    DomainError,
    FlinngError,
    FormatError,
    InfeasibleParameterError,
    InputError,
)
from .index import FlinngConfig, FlinngIndex
from .lsh import (
    HashFamily,
    HashFamilySpec,
    build_family,
    estimate_collision,
    hash_dense,
    hash_dense_many,
    hash_set,
    hash_set_many,
    token_set,
)
from .theory import (
    GroupTestBounds,
    ParamPlan,
    alpha_bound,
    gamma_stability,
    group_testing_bounds,
    plan_parameters,
    simulate_group_test,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInvalidError",
    "ConfigError",
    "DegenerateQueryError",
    "DistanceSensitiveFilter",
    "DomainError",
    "FilterBounds",
    "FlinngConfig",
    "FlinngError",
    "FlinngIndex",
    "FormatError",
    "GroupTestBounds",
    "HashFamily",
    "HashFamilySpec",
    "InfeasibleParameterError",
    "InputError",
    "ParamPlan",
    "alpha_bound",
    "build_family",
    "estimate_collision",
    "gamma_stability",
    "group_testing_bounds",
    "hash_dense",
    "hash_dense_many",
    "hash_set",
    "hash_set_many",
    "membership_error_bounds",
    "plan_parameters",
    "simulate_group_test",
    "token_set",
]
