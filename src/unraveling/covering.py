"""Coverings: position maps, strategy maps, lifts, and their checkers.

A covering relates a source game tree to a target tree through a
length-preserving, prefix-monotone, taboo-respecting position map and an
owner-preserving strategy map that is local (choices below any level
depend only on the source strategy below that level).  The defining
lifting condition says that every play of the target consistent with a
mapped strategy has a source counterpart consistent with the original
strategy that either projects onto it exactly or ends in a taboo against
the strategy's owner.  That condition is what makes winning strategies
transfer for any payoff set whatsoever.

Strategy maps and lifts are carried as opaque pure procedures rather than
tables: strategy spaces are astronomically large, while the checks here
only ever consult them on plays, which are few.  All randomized checks
take an explicit sample count and seed and are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .core import (
    GameTree,
    InternalInvariantError,
    Player,
    Position,
    Strategy,
    _evaluate,
    consistent_plays,
    format_position,
    is_consistent,
    is_prefix,
    is_winning_strategy,
    random_strategy,
)
from .payoff import ClosedSpec, decided_by_depth
from .solver import Solution, solve


@dataclass(frozen=True)
class Covering:
    """Source tree, target tree, identity level, and the three maps.

    ``position_map`` is an explicit node table over every source position.
    ``strategy_transform`` maps source strategies to target strategies;
    ``lift`` maps (source strategy, target play consistent with its image)
    to the witnessing source play.  A base covering's two maps remember the
    last strategy they saw, by identity, so mapping a strategy again, or
    lifting its plays after mapping it, does not map it again; a composite
    gets the same from the coverings it composes.
    """

    source: GameTree
    target: GameTree
    level: int
    position_map: Mapping[Position, Position]
    strategy_transform: Callable[[Strategy], Strategy]
    lift: Callable[[Strategy, Position], Position]


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first counterexample found, if any."""

    ok: bool
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_position_map(covering: Covering) -> CheckResult:
    """Exhaustive scan of the position-map axioms and the level identity.

    Up to the level the two trees then agree: the identity puts each source
    position in the target, and equal children from the root down put each
    target position in the source.
    """
    source, target = covering.source, covering.target
    table = covering.position_map
    for position in source.positions():
        if position not in table:
            return CheckResult(False, f"no image for {format_position(position)}")
        image = table[position]
        if image not in target:
            return CheckResult(False, f"image of {format_position(position)} not in target")
        if len(image) != len(position):
            return CheckResult(False, f"length not preserved at {format_position(position)}")
        if position and table[position[:-1]] != image[:-1]:
            return CheckResult(False, f"not prefix-monotone at {format_position(position)}")
        owner = target.taboo_owner(image)
        if owner is not None and source.taboo_owner(position) is not owner:
            return CheckResult(
                False, f"taboo tag not respected at {format_position(position)}"
            )
        if len(position) > covering.level:
            continue
        if image != position:
            return CheckResult(
                False, f"not the identity at level {len(position)} <= {covering.level}"
            )
        if len(position) < covering.level:
            if source.children_of(position) != target.children_of(position):
                return CheckResult(False, f"children differ at {format_position(position)}")
        if source.taboo_owner(position) is not owner:
            return CheckResult(False, f"taboo tags differ at {format_position(position)}")
    return CheckResult(True)


def check_strategy_locality(covering: Covering, trials: int, seed: int) -> CheckResult:
    """Sampled check that the strategy map is owner-preserving and local.

    For random pairs of source strategies agreeing below a sampled level n,
    the mapped strategies must agree below n; below the covering's identity
    level the map must be the identity.
    """
    rng = random.Random(f"locality:{seed}")
    source = covering.source
    transform = covering.strategy_transform
    for trial in range(trials):
        owner = rng.choice([Player.I, Player.II])
        cutoff = rng.randint(0, source.depth)
        first = random_strategy(rng, source, owner)
        second_choices = dict(first.choices)
        for position in second_choices:
            if len(position) >= cutoff:
                second_choices[position] = rng.choice(source.children_of(position))
        second = Strategy(owner, second_choices)
        mapped_first, mapped_second = transform(first), transform(second)
        if mapped_first.owner is not owner or mapped_second.owner is not owner:
            return CheckResult(False, f"trial {trial}: owner not preserved")
        for position, choice in mapped_first.choices.items():
            if len(position) < cutoff and mapped_second.choices.get(position) != choice:
                return CheckResult(
                    False,
                    f"trial {trial}: images differ at {format_position(position)}"
                    f" below level {cutoff}",
                )
        for position, choice in first.choices.items():
            if len(position) < covering.level:
                if mapped_first.choices.get(position) != choice:
                    return CheckResult(
                        False,
                        f"trial {trial}: not the identity at {format_position(position)}",
                    )
    return CheckResult(True)


def verify_lift(covering: Covering, strategy: Strategy, play: Position) -> CheckResult:
    """Lift one target play and check the lifting conditions on it; a failure
    names the lift and the first condition it breaks."""
    target = covering.target
    if not target.is_terminal(play):
        raise ValueError(f"{format_position(play)} is not a play of the target")
    if not is_consistent(play, covering.strategy_transform(strategy)):
        raise ValueError("play is not consistent with the mapped strategy")
    lifted = covering.lift(strategy, play)
    source = covering.source
    if lifted not in source or not source.is_terminal(lifted):
        fault = "is not a source play"
    elif not is_consistent(lifted, strategy):
        fault = "is not consistent with the strategy"
    elif not is_prefix(image := covering.position_map[lifted], play):
        fault = f"has the image {format_position(image)}, not a prefix of the play"
    elif image != play and source.taboo_owner(lifted) is not strategy.owner:
        fault = (
            f"has the image {format_position(image)}, short of the play,"
            f" with no taboo against player {strategy.owner}"
        )
    else:
        return CheckResult(True)
    return CheckResult(False, f"lift {format_position(lifted)} {fault}")


def check_lift(covering: Covering, samples: int, seed: int) -> CheckResult:
    """Sampled lifting condition.

    For ``max(1, samples // 2)`` random source strategies of player I, then
    as many of player II, every target play consistent with the mapped
    strategy must pass ``verify_lift``.  The detail counts the plays checked
    and, on a failure, names the first failing strategy's owner and play and
    what ``verify_lift`` found wrong with its lift.
    """
    rng = random.Random(f"unraveling:verify:{seed}")  # the stream the pinned reports sampled
    plays_checked = failures = 0
    first_failure = None
    for owner in (Player.I, Player.II):
        for _ in range(max(1, samples // 2)):
            candidate = random_strategy(rng, covering.source, owner)
            mapped = covering.strategy_transform(candidate)
            for play in consistent_plays(covering.target, mapped):
                plays_checked += 1
                # the module-level name, so a wrapper bound to it sees every play
                result = verify_lift(covering, candidate, play)
                if not result:
                    failures += 1
                    first_failure = first_failure or (owner, play, result.detail)
    if first_failure is None:
        return CheckResult(True, f"{plays_checked} plays")
    owner, play, detail = first_failure
    return CheckResult(
        False,
        f"{failures} of {plays_checked} plays fail; first: a strategy of player {owner},"
        f" play {format_position(play)}: {detail}",
    )


def pullback(covering: Covering, payoff_leaves) -> frozenset:
    """Preimage of a payoff set: source leaves whose image lies in it."""
    return frozenset(
        leaf
        for leaf in covering.source.full_depth_plays()
        if covering.position_map[leaf] in payoff_leaves
    )


def pullback_closed_spec(covering: Covering, spec: ClosedSpec) -> ClosedSpec:
    """Pull generators back through the position map.

    The preimage of a structurally closed set is structurally closed: its
    generators are the non-terminal source positions mapping onto the
    original generators (terminal preimages exclude no full-depth play).
    Generator depths are unchanged because the map preserves lengths.
    """
    wanted = set(spec.generators)
    return ClosedSpec(
        position
        for position, image in covering.position_map.items()
        if image in wanted and not covering.source.is_terminal(position)
    )


def compose(outer: Covering, inner: Covering) -> Covering:
    """Covering composition; the identity level is the smaller of the two."""
    if inner.target != outer.source:
        raise ValueError("composition mismatch: inner target is not outer source")
    position_map = {
        position: outer.position_map[image]
        for position, image in inner.position_map.items()
    }

    def transform(strategy: Strategy) -> Strategy:
        return outer.strategy_transform(inner.strategy_transform(strategy))

    def lift(strategy: Strategy, play: Position) -> Position:
        middle = outer.lift(inner.strategy_transform(strategy), play)
        return inner.lift(strategy, middle)

    return Covering(
        source=inner.source,
        target=outer.target,
        level=min(outer.level, inner.level),
        position_map=position_map,
        strategy_transform=transform,
        lift=lift,
    )


def check_winning_transfer(
    covering: Covering, payoff_leaves, samples: int, seed: int
) -> CheckResult:
    """Winning strategies in the pulled-back game must map to winning ones.

    Solves the pulled-back game, then checks the solver's witness plus up to
    ``samples`` seeded mutations of it that still win; each must map to a
    strategy winning the target game.
    """
    rng = random.Random(f"transfer:{seed}")
    source_payoff = pullback(covering, payoff_leaves)
    solution = solve(covering.source, source_payoff)
    winner = solution.winner
    winning = [solution.strategy]
    attempts = 0
    while len(winning) < samples + 1 and attempts < samples * 8:
        attempts += 1
        choices = dict(solution.strategy.choices)
        for position in choices:
            if rng.random() < 0.3:
                choices[position] = rng.choice(covering.source.children_of(position))
        candidate = Strategy(winner, choices)
        if is_winning_strategy(covering.source, source_payoff, candidate):
            winning.append(candidate)
    for index, candidate in enumerate(winning):
        mapped = covering.strategy_transform(candidate)
        for play in consistent_plays(covering.target, mapped):
            if _evaluate(covering.target, play, payoff_leaves) is not winner:
                return CheckResult(
                    False,
                    f"sample {index}: mapped strategy loses play {format_position(play)}",
                )
    return CheckResult(True)


def solve_via_covering(covering: Covering, payoff_leaves, decided_depth: int) -> Solution:
    """Decide the target game through the covering.

    Requires the certificate that the pulled-back payoff is decided by the
    stated depth (the unraveling property); solves the pulled-back game,
    maps the winner's strategy down, and verifies it before returning.
    """
    source_payoff = pullback(covering, payoff_leaves)
    if not decided_by_depth(covering.source, source_payoff, decided_depth):
        raise ValueError(
            f"covering does not unravel the payoff set at depth {decided_depth}"
        )
    solution = solve(covering.source, source_payoff)
    mapped = covering.strategy_transform(solution.strategy)
    if not is_winning_strategy(covering.target, payoff_leaves, mapped):
        raise InternalInvariantError("mapped strategy fails to win the target game")
    return Solution(solution.winner, mapped)
