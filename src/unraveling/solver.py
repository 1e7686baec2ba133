"""Brute-force ground truth: backward induction and taboo-pruning.

Every finite game with taboos is determined.  One backward-induction kernel,
``_winners``, labels each node with its winner, or with ``None`` where
neither player wins (a node is won by its mover if some child is), and one
extraction, ``_least_winning``, turns a labeling into a strategy,
tie-breaking by the lexicographically least move so results are
reproducible.  Both run over the tree's integer node ids: a labeling is a
list by id, child values are read at the first-child offsets, and a taboo
is won by its owner's opponent, read off its tag byte.  ``solve`` is the
kernel with the payoff deciding the full-depth plays; ``prune`` runs it
once with every full-depth play won by neither player, whose labeling
names at each position the player who can force a taboo against the other,
if any, and reads every forcing strategy off that one labeling.

``prune`` removes from the tree every position from which some player can
force every play into a taboo against the opponent.  The removed region is
the upward closure of the taboo-determined positions: a taboo-determined
position can have descendants that are not themselves taboo-determined
(the unchosen branches of the forcing player), so closing upward is what
makes the remainder a prefix-closed tree.  The remainder has no early
terminals, and solving it decides the original game; ``transfer_from_pruned``
turns a winning strategy on the remainder into one on the full tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from .core import (
    GameTree,
    InternalInvariantError,
    Player,
    Position,
    Strategy,
    _PLAY_WINNER,
    _TABOO_WINNER,
    _check_payoff,
    format_position,
)


@dataclass(frozen=True)
class Solution:
    """Winner and a winning strategy for them."""

    winner: Player
    strategy: Strategy


def _winners(tree: GameTree, payoff) -> list[Player | None]:
    """Backward induction over ids: the winner of every node, by id, or
    ``None`` where neither player wins.  A taboo is won by its owner's
    opponent, and a full-depth play by I iff it is in ``payoff``, or by
    neither if ``payoff`` is ``None``.  A node is won by its mover if some
    child is; otherwise it is won by neither if some child is, and by the
    opponent if not.  The levels are walked deepest first, each with its
    mover."""
    ordered, first, tags, levels = tree._ordered, tree._first, tree._tags, tree._levels
    start = levels[tree.depth]  # the full-depth plays end the order
    values: list[Player | None] = [None] * len(ordered)
    if payoff is not None:
        values[start:] = map(_PLAY_WINNER.__getitem__, map(payoff.__contains__, ordered[start:]))
    for d in range(tree.depth - 1, -1, -1):
        mover, other = (Player.II, Player.I) if d % 2 else (Player.I, Player.II)
        for i in range(levels[d], levels[d + 1]):
            lo, hi = first[i], first[i + 1]
            if lo == hi:
                values[i] = _TABOO_WINNER[tags[i]]
                continue
            child_values = values[lo:hi]
            if mover in child_values:
                values[i] = mover
            else:
                values[i] = None if None in child_values else other
    return values


def _least_winning(tree: GameTree, owner: Player, values, within=None) -> Strategy:
    """At each of the owner's decision nodes (only those ``within`` marks,
    if given), the least child the owner wins by ``values``, or else the
    least child."""
    ordered, first, labels_of, levels = tree._ordered, tree._first, tree._labels, tree._levels
    choices = {}
    for d in range(0 if owner is Player.I else 1, tree.depth, 2):  # the owner's levels
        lo, hi = levels[d], levels[d + 1]
        for i in range(lo, hi) if within is None else compress(range(lo, hi), within[lo:hi]):
            labels = labels_of[i]
            if labels:
                child_values = values[first[i] : first[i + 1]]
                least = child_values.index(owner) if owner in child_values else 0
                choices[ordered[i]] = labels[least]
    return Strategy(owner, choices)


def solve(tree: GameTree, payoff) -> Solution:
    """Backward induction over the whole arena.

    Leaves evaluate by payoff membership and taboo tags.  The returned
    strategy picks the least winning child where the winner is to move (the
    least child where they are already lost).
    """
    _check_payoff(tree, payoff)
    values = _winners(tree, payoff)
    winner = values[0]
    return Solution(winner, _least_winning(tree, winner, values))


@dataclass(frozen=True)
class PruneResult:
    """Outcome of taboo-pruning.

    ``determined`` maps each taboo-determined position to the forcing
    player; ``removed`` is its upward closure, the positions actually cut;
    ``witnesses`` maps each minimal removed position to the forcing player's
    least forcing strategy over the removed region, which forces a taboo
    against the opponent at and below that position, so transfer never has
    to re-solve.  If the root itself is determined there is no remainder
    tree and ``root_determined`` names the player who wins the original game
    outright, whatever the payoff.
    """

    tree: GameTree | None
    root_determined: Player | None
    determined: Mapping[Position, Player]
    removed: frozenset
    witnesses: Mapping[Position, Strategy]


def prune(tree: GameTree) -> PruneResult:
    ordered, first = tree._ordered, tree._first
    # Forcing a taboo: a full-depth play is won by neither player.
    forced = _winners(tree, None)
    determined = {p: winner for p, winner in zip(ordered, forced) if winner is not None}

    # One forward pass: parents precede children, so a removed node marks
    # its child range before the pass reaches it.
    cut = bytearray(len(ordered))  # 1 on the removed ids
    minimal: list[int] = []
    for i in range(len(ordered)):
        if not cut[i]:
            if forced[i] is None:
                continue
            cut[i] = 1
            minimal.append(i)
        lo, hi = first[i], first[i + 1]
        cut[lo:hi] = b"\x01" * (hi - lo)

    # The removed region holds every node below a minimal one, so one
    # strategy per player over it forces a taboo below each minimal node
    # that player determines.
    forcing = {
        player: _least_winning(tree, player, forced, cut)
        for player in dict.fromkeys(forced[i] for i in minimal)
    }
    witnesses = {ordered[i]: forcing[forced[i]] for i in minimal}
    removed_positions = frozenset(compress(ordered, cut))

    if cut[0]:
        return PruneResult(None, forced[0], determined, removed_positions, witnesses)

    # The kept ids are in canonical order already.
    kept_ids = [i for i in range(len(ordered)) if not cut[i]]
    labels: list[tuple] = []
    for i in kept_ids:
        kept = tree._labels[i]
        lo, hi = first[i], first[i + 1]
        if cut.find(1, lo, hi) >= 0:
            kept = tuple(label for label, gone in zip(kept, cut[lo:hi]) if not gone)
            if not kept and i < tree._levels[tree.depth]:
                # Every early terminal is trivially determined, and a node
                # whose children are all determined is determined itself.
                raise InternalInvariantError(
                    f"pruning left a new early terminal at {format_position(ordered[i])}"
                )
        labels.append(kept)
    remainder = GameTree._from_ids(
        tree.depth,
        [ordered[i] for i in kept_ids],
        labels,
        bytearray(len(kept_ids)),
    )
    return PruneResult(remainder, None, determined, removed_positions, witnesses)


def transfer_from_pruned(tree: GameTree, pruned: PruneResult, strategy: Strategy) -> Strategy:
    """Extend a winning strategy on the pruned remainder to the full tree.

    Inside the remainder the strategy is followed unchanged.  The first
    position of a removed region that the opponent can enter is always
    taboo-determined for the strategy's owner (were it determined for the
    opponent, its parent would be too and would already have been removed);
    from there the stored forcing witness takes over.  Positions only the
    owner could steer into get the lexicographic default.
    """
    if pruned.tree is None:
        raise ValueError("no pruned tree: the root is taboo-determined")
    owner = strategy.owner
    parity = 0 if owner is Player.I else 1  # the owner moves at these depths
    ordered, first, labels_of, levels = tree._ordered, tree._first, tree._labels, tree._levels
    # Who picks the owner's move, by id: ``strategy`` in the remainder; in a
    # removed region, its entry's witness if the owner determines the entry,
    # else ``None``, the least move.
    mover: list[Strategy | None] = [strategy] * len(ordered)
    for entry, witness in pruned.witnesses.items():  # the minimal removed positions
        if pruned.determined[entry] is owner:
            mover[tree._id(entry)] = witness
        elif len(entry) % 2 == parity:  # the opponent moves into ``entry``
            raise InternalInvariantError(
                f"opponent enters {format_position(entry)} determined against the owner"
            )
        else:
            mover[tree._id(entry)] = None
    # One forward pass, parents before children: a removed node hands its
    # mover on to its child range.
    for i in range(len(ordered)):
        who = mover[i]
        if who is not strategy:
            lo, hi = first[i], first[i + 1]
            mover[lo:hi] = [who] * (hi - lo)

    choices: dict[Position, object] = {}
    for d in range(parity, tree.depth, 2):  # the owner's levels
        for i in range(levels[d], levels[d + 1]):
            labels = labels_of[i]
            if labels:
                position, who = ordered[i], mover[i]
                choices[position] = labels[0] if who is None else who.move_at(position)
    return Strategy(owner, choices)
