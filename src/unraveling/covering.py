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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from .core import (
    CheckResult,
    Choices,
    GameTree,
    InternalInvariantError,
    Plays,
    Player,
    Position,
    Strategy,
    _NoChoice,
    _OWNERS,
    _PASSED,
    _as_choices,
    _as_plays,
    _decision_ids,
    _descend,
    _draw,
    _draw_rows,
    consistent_plays,
    format_position,
    is_winning_strategy,
    random_strategy,
)
from .payoff import ClosedSpec, decided_by_depth
from .solver import Solution, solve


@dataclass(frozen=True)
class Covering:
    """Source tree, target tree, identity level, and the three maps.

    ``images`` is the position map by node id: for every source id, the
    target id of that node's image, in an ``array('i')`` as long as the
    source's node count.  ``strategy_transform`` maps source strategies to
    target strategies; ``lift`` maps (source strategy, target play
    consistent with its image) to the witnessing source play.  A base
    covering's strategy map is lazy: its image computes each choice on
    first read, and the map's invariants on a choice are checked then.
    Its two maps remember the last strategy they saw, by identity, so
    mapping a strategy again, or lifting its plays after mapping it, does
    not map it again and keeps the choices already computed; a composite
    gets the same from the coverings it composes.
    """

    source: GameTree
    target: GameTree
    level: int
    images: array
    strategy_transform: Callable[[Strategy], Strategy]
    lift: Callable[[Strategy, Position], Position]


def check_position_map(covering: Covering) -> CheckResult:
    """Exhaustive scan of the position-map axioms and the level identity.

    The scan walks the source by id and checks each image by id: one per
    source node, in the target, of the same length, a child of the
    parent's image, and, where the image is tagged, tagged like the source
    node.  Up to the level the two trees then agree: the identity puts each
    source position in the target, and equal children from the root down
    put each target position in the source.
    """
    source, target, level = covering.source, covering.target, covering.level
    images = covering.images
    ordered, first, tags, levels = source._ordered, source._first, source._tags, source._levels
    target_ordered, target_first, target_tags = target._ordered, target._first, target._tags
    if len(images) < len(ordered):
        return CheckResult(False, f"no image for {format_position(ordered[len(images)])}")
    if len(images) > len(ordered):
        return CheckResult(False, f"{len(images)} images for {len(ordered)} source positions")
    # A length-preserving image of a depth-d node lies in the target's
    # level d, the ids ``target_levels[d]:target_levels[d + 1]``.
    target_levels = list(target._levels) + [len(target_ordered)] * len(levels)
    parent = 0
    for d in range(source.depth + 1):
        target_lo, target_hi = target_levels[d], target_levels[d + 1]
        for i in range(levels[d], levels[d + 1]):
            image = images[i]
            if not target_lo <= image < target_hi:
                fault = "image of {} not in target"
                if 0 <= image < len(target_ordered):
                    fault = "length not preserved at {}"
                return CheckResult(False, fault.format(format_position(ordered[i])))
            if i:
                while first[parent + 1] <= i:  # the child ranges follow one another
                    parent += 1
                above = images[parent]
                if not target_first[above] <= image < target_first[above + 1]:
                    return CheckResult(
                        False, f"not prefix-monotone at {format_position(ordered[i])}"
                    )
            owner, tag = target_tags[image], tags[i]
            if owner and tag != owner:
                return CheckResult(
                    False, f"taboo tag not respected at {format_position(ordered[i])}"
                )
            if d > level:
                continue
            position = ordered[i]
            if target_ordered[image] != position:
                return CheckResult(False, f"not the identity at level {d} <= {level}")
            if d < level and source._labels[i] != target._labels[image]:
                return CheckResult(False, f"children differ at {format_position(position)}")
            if tag != owner:
                return CheckResult(False, f"taboo tags differ at {format_position(position)}")
    return CheckResult(True)


def check_strategy_locality(covering: Covering, trials: int, seed: int) -> CheckResult:
    """Sampled check that the strategy map is owner-preserving and local.

    For random pairs of source strategies agreeing below a sampled level n,
    the mapped strategies must have a choice at each of the owner's target
    decision positions below n and agree there; below the covering's
    identity level the map must be the identity.  Only those choices are
    read, by id, so a lazily mapped strategy computes no others.
    """
    rng = random.Random(f"locality:{seed}")
    source, target = covering.source, covering.target
    ordered, labels_of, levels = source._ordered, source._labels, source._levels
    target_ordered, target_labels = target._ordered, target._labels
    transform = covering.strategy_transform
    below_level = levels[min(covering.level, source.depth + 1)]
    for trial in range(trials):
        owner = rng.choice([Player.I, Player.II])
        cutoff = rng.randint(0, source.depth)
        first = random_strategy(rng, source, owner)
        # Redrawn from the first decision position of length >= cutoff on,
        # one draw each as ``random_strategy`` draws (``rng.choice``'s stream).
        ids = _decision_ids(source, owner)
        picks = first.choices.picks[:]
        _draw(rng, picks, _draw_rows(source, owner)[bisect_left(ids, levels[cutoff]) :])
        second = Strategy(owner, Choices(source, owner, picks))
        mapped_first, mapped_second = transform(first), transform(second)
        if mapped_first.owner is not owner or mapped_second.owner is not owner:
            return CheckResult(False, f"trial {trial}: owner not preserved")
        a, b = _as_choices(target, mapped_first), _as_choices(target, mapped_second)
        picks_a, read_a, picks_b, read_b = a.picks, a._read, b.picks, b._read
        # Canonical order: every decision past the first at the cutoff is at
        # least as deep, so only the choices below it are read.
        target_ids = _decision_ids(target, owner)
        for t in target_ids[: bisect_left(target_ids, target._levels[cutoff])]:
            try:
                x, y = picks_a[t], picks_b[t]
                differ = (x if x >= 0 else read_a(t)) != (y if y >= 0 else read_b(t))
            except _NoChoice:
                return CheckResult(
                    False, f"trial {trial}: no mapped choice at {format_position(target_ordered[t])}"
                )
            if differ:
                return CheckResult(
                    False,
                    f"trial {trial}: images differ at {format_position(target_ordered[t])}"
                    f" below level {cutoff}",
                )
        # Below the identity level each choice is read at the image of its node.
        drawn = first.choices.picks
        for i in ids[: bisect_left(ids, below_level)]:
            t = covering.images[i]
            try:
                same = (
                    target_ordered[t] == ordered[i]
                    and a._has(t)
                    and target_labels[t][a._pick(t)] == labels_of[i][drawn[i]]
                )
            except _NoChoice:
                same = False
            if not same:
                return CheckResult(
                    False, f"trial {trial}: not the identity at {format_position(ordered[i])}"
                )
    return CheckResult(True)


def verify_lift(covering: Covering, strategy: Strategy, play: Position) -> CheckResult:
    """Lift one target play and check the lifting conditions on it; a failure
    names the lift and the first condition it breaks.  The play and its
    lift are each found by one descent, which checks the owner's moves on
    the way."""
    target, source = covering.target, covering.source
    mapped = _as_choices(target, covering.strategy_transform(strategy))
    j, follows = _descend(target, play, mapped)
    if j < 0:
        raise ValueError(f"unknown position {format_position(play)}")
    if target._labels[j]:
        raise ValueError(f"{format_position(play)} is not a play of the target")
    if not follows:
        raise ValueError("play is not consistent with the mapped strategy")
    lifted = covering.lift(strategy, play)
    i, follows = _descend(source, lifted, _as_choices(source, strategy))
    if i < 0 or source._labels[i]:
        fault = "is not a source play"
    elif not follows:
        fault = "is not consistent with the strategy"
    elif play[: len(image := target._ordered[covering.images[i]])] != image:
        fault = f"has the image {format_position(image)}, not a prefix of the play"
    elif covering.images[i] != j and _OWNERS[source._tags[i]] is not strategy.owner:
        fault = (
            f"has the image {format_position(image)}, short of the play,"
            f" with no taboo against player {strategy.owner}"
        )
    else:
        return _PASSED
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


def pullback(covering: Covering, payoff_leaves) -> Plays:
    """Preimage of a payoff set: the source's full-depth plays whose image
    lies in it, each read off the target's bytes at its image id."""
    source, target = covering.source, covering.target
    # The target's bytes padded to read by target id.
    inside = bytes(target._levels[target.depth]) + _as_plays(target, payoff_leaves).mask
    images = covering.images[source._levels[source.depth] :]
    return Plays(source, bytes(map(inside.__getitem__, images)))


def pullback_closed_spec(covering: Covering, spec: ClosedSpec) -> ClosedSpec:
    """Pull generators back through the position map.

    The preimage of a structurally closed set is structurally closed: its
    generators are the non-terminal source positions mapping onto the
    original generators (terminal preimages exclude no full-depth play).
    Generator depths are unchanged because the map preserves lengths.  A
    generator that is not a target position has no preimage.
    """
    source = covering.source
    wanted = set()
    for generator in spec.generators:
        try:
            wanted.add(covering.target._id(generator))
        except ValueError:
            pass  # not a target position: no preimage
    return ClosedSpec(
        position
        for position, image, labels in zip(source._ordered, covering.images, source._labels)
        if labels and image in wanted
    )


def compose(outer: Covering, inner: Covering) -> Covering:
    """Covering composition; the identity level is the smaller of the two."""
    if inner.target != outer.source:
        raise ValueError("composition mismatch: inner target is not outer source")

    def transform(strategy: Strategy) -> Strategy:
        return outer.strategy_transform(inner.strategy_transform(strategy))

    def lift(strategy: Strategy, play: Position) -> Position:
        middle = outer.lift(inner.strategy_transform(strategy), play)
        return inner.lift(strategy, middle)

    return Covering(
        source=inner.source,
        target=outer.target,
        level=min(outer.level, inner.level),
        images=array("i", map(outer.images.__getitem__, inner.images)),
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
    rand, getrandbits = rng.random, rng.getrandbits
    payoff = _as_plays(covering.target, payoff_leaves)
    source = covering.source
    source_payoff = pullback(covering, payoff)
    solution = solve(source, source_payoff)
    winner = solution.winner
    rows = _draw_rows(source, winner)
    solved = solution.strategy.choices.picks
    winning = [solution.strategy]
    attempts = 0
    while len(winning) < samples + 1 and attempts < samples * 8:
        attempts += 1
        picks = solved[:]
        for i, n, bits in rows:
            if rand() < 0.3:  # then one draw as ``rng.choice`` makes it (see ``_draw``)
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                picks[i] = r
        candidate = Strategy(winner, Choices(source, winner, picks))
        if is_winning_strategy(source, source_payoff, candidate):
            winning.append(candidate)
    for index, candidate in enumerate(winning):
        mapped = covering.strategy_transform(candidate)
        result = is_winning_strategy(covering.target, payoff, mapped)
        if not result:
            return CheckResult(False, f"sample {index}: mapped strategy {result.detail}")
    return CheckResult(True)


def solve_via_covering(covering: Covering, payoff_leaves, decided_depth: int) -> Solution:
    """Decide the target game through the covering.

    Requires the certificate that the pulled-back payoff is decided by the
    stated depth (the unraveling property); solves the pulled-back game,
    maps the winner's strategy down, and verifies it before returning.
    """
    payoff = _as_plays(covering.target, payoff_leaves)
    source_payoff = pullback(covering, payoff)
    certificate = decided_by_depth(covering.source, source_payoff, decided_depth)
    if not certificate:
        raise ValueError(
            f"covering does not unravel the payoff set at depth {decided_depth}:"
            f" {certificate.detail}"
        )
    solution = solve(covering.source, source_payoff)
    mapped = covering.strategy_transform(solution.strategy)
    wins = is_winning_strategy(covering.target, payoff, mapped)
    if not wins:
        raise InternalInvariantError(
            f"mapped strategy fails to win the target game: {wins.detail}"
        )
    return Solution(solution.winner, mapped)
