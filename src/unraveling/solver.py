"""Brute-force ground truth: backward induction and taboo-pruning.

Every finite game with taboos is determined.  One backward-induction kernel,
``_winners``, labels each node with its winner, or with ``None`` where
neither player wins, under a rule for the leaves (a node is won by its
mover if some child is), and one extraction, ``_least_winning``, turns a
labeling into a strategy, tie-breaking by the lexicographically least move
so results are reproducible.  ``solve`` is the kernel with the payoff at
the leaves; ``prune`` runs it once with the leaf rule "a taboo is won by
its owner's opponent, a full-depth play by neither player", whose labeling
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
from typing import Mapping

from .core import (
    GameTree,
    InternalInvariantError,
    Player,
    Position,
    Strategy,
    _check_payoff,
    _evaluate,
    format_position,
)


@dataclass(frozen=True)
class Solution:
    """Winner and a winning strategy for them."""

    winner: Player
    strategy: Strategy


def _winners(tree: GameTree, leaf_winner) -> dict[Position, Player | None]:
    """Backward induction: the winner of every node, given the winner of
    every play by ``leaf_winner`` (``None`` for neither player).  A node is
    won by its mover if some child is; otherwise it is won by neither if
    some child is, and by the opponent if not."""
    values: dict[Position, Player | None] = {}
    for position in reversed(tree.positions()):
        labels = tree.children_of(position)
        if not labels:
            values[position] = leaf_winner(position)
            continue
        mover = Player.I if len(position) % 2 == 0 else Player.II
        child_values = [values[position + (label,)] for label in labels]
        if mover in child_values:
            values[position] = mover
        else:
            values[position] = None if None in child_values else mover.opponent
    return values


def _least_winning(tree: GameTree, owner: Player, values, positions) -> Strategy:
    """At each of the owner's decision positions among ``positions``, the
    least child the owner wins by ``values``, or else the least child."""
    choices = {}
    for position in positions:
        labels = tree.children_of(position)
        if not labels or Player.to_move(position) is not owner:
            continue
        winning = [label for label in labels if values[position + (label,)] is owner]
        choices[position] = winning[0] if winning else labels[0]
    return Strategy(owner, choices)


def _taboo_leaf(tree: GameTree):
    """Leaf rule of forcing a taboo: a taboo is won by its owner's opponent,
    a full-depth play by neither player."""
    return lambda play: None if (owner := tree.taboo_owner(play)) is None else owner.opponent


def solve(tree: GameTree, payoff) -> Solution:
    """Backward induction over the whole arena.

    Leaves evaluate by payoff membership and taboo tags.  The returned
    strategy picks the least winning child where the winner is to move (the
    least child where they are already lost).
    """
    _check_payoff(tree, payoff)
    values = _winners(tree, lambda play: _evaluate(tree, play, payoff))
    winner = values[()]
    return Solution(winner, _least_winning(tree, winner, values, tree.positions()))


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
    forced = _winners(tree, _taboo_leaf(tree))
    determined = {p: forced[p] for p in tree.positions() if forced[p] is not None}

    removed: dict[Position, None] = {}  # canonical order
    minimal: list[Position] = []
    for position in tree.positions():  # parents precede children
        if position and position[:-1] in removed:
            removed[position] = None
        elif position in determined:
            removed[position] = None
            minimal.append(position)

    # The removed region holds every position below a minimal one, so one
    # strategy per player over it forces a taboo below each minimal
    # position that player determines.
    forcing = {
        player: _least_winning(tree, player, forced, removed)
        for player in {determined[position] for position in minimal}
    }
    witnesses = {position: forcing[determined[position]] for position in minimal}

    if () in determined:
        return PruneResult(None, determined[()], determined, frozenset(removed), witnesses)

    children = {}
    for position in tree.positions():
        if position in removed:
            continue
        kept = tuple(l for l in tree.children_of(position) if position + (l,) not in removed)
        if not kept and len(position) < tree.depth:
            # Every early terminal is trivially determined, and a position
            # whose children are all determined is determined itself.
            raise InternalInvariantError(
                f"pruning left a new early terminal at {format_position(position)}"
            )
        children[position] = kept
    return PruneResult(
        GameTree(tree.depth, children), None, determined, frozenset(removed), witnesses
    )


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
    for entry in pruned.witnesses:
        if Player.to_move(entry[:-1]) is owner.opponent:
            if pruned.determined[entry] is not owner:
                raise InternalInvariantError(
                    f"opponent enters {format_position(entry)} determined against the owner"
                )

    choices: dict[Position, object] = {}
    for position in tree.positions():
        labels = tree.children_of(position)
        if not labels or Player.to_move(position) is not owner:
            continue
        if position not in pruned.removed:
            choices[position] = strategy.move_at(position)
            continue
        entry = position
        while entry[:-1] in pruned.removed:
            entry = entry[:-1]
        witness = pruned.witnesses[entry]
        if pruned.determined[entry] is owner:
            choices[position] = witness.move_at(position)
        else:
            choices[position] = labels[0]
    return Strategy(owner, choices)
