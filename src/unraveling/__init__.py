"""Finite games with taboos: solving, pruning, coverings, and unraveling."""

from .core import (
    GameTree,
    InternalInvariantError,
    Player,
    Position,
    ResourceLimitError,
    Strategy,
    consistent_plays,
    is_consistent,
    is_winning_strategy,
    random_strategy,
    strategy_from,
)
from .payoff import (
    Closed,
    ClosedSpec,
    ClosedUnion,
    Not,
    Open,
    PayoffSpec,
    Union,
    decided_by_depth,
    realize,
)
from .solver import PruneResult, Solution, prune, solve, transfer_from_pruned
from .covering import (
    CheckResult,
    Covering,
    check_lift,
    check_position_map,
    check_strategy_locality,
    check_winning_transfer,
    compose,
    pullback,
    pullback_closed_spec,
    solve_via_covering,
    verify_lift,
)
from .unravel import (
    Accept,
    BaseCovering,
    Challenge,
    Claim,
    build_base_covering,
    unravel_payoff,
    unravel_union,
)

__all__ = [name for name in dir() if not name.startswith("_")]
