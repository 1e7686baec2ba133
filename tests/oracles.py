"""Independent brute-force oracles the tests check the library against.

Each oracle recomputes a result by direct enumeration of the defining
condition, sharing as little code as possible with the implementation path
it is used to check.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left

from unraveling.core import (
    CheckResult,
    GameTree,
    Player,
    Position,
    Strategy,
    format_position,
    is_prefix,
    strategy_from,
)
from unraveling.covering import Covering
from unraveling.solver import PruneResult, Solution
from unraveling.unravel import Accept, Claim


def assert_matches_checked_build(tree: GameTree) -> None:
    """``tree`` is, array for array, the tree that the checked constructor
    builds from its positions and taboo tags, and every position query on
    it answers as on that tree.  Its level offsets are, for every depth up
    to one past the bound, the first id of that length in canonical order."""
    checked = GameTree.from_nodes(tree.depth, tree.positions(), dict(tree.taboo_items()))
    assert tree._ordered == checked._ordered
    assert tree._first == checked._first
    assert tree._levels == checked._levels
    assert list(tree._levels) == [
        bisect_left(checked._ordered, d, key=len) for d in range(tree.depth + 2)
    ]
    assert tree._labels == checked._labels
    assert tree._tags == checked._tags
    for position in checked.positions():
        assert position in tree
        assert tree.children_of(position) == checked.children_of(position)
    assert list(tree.taboo_items()) == list(checked.taboo_items())
    assert (-1,) not in tree


def to_move(position: Position) -> Player:
    """Player I moves at even-length positions, player II at odd."""
    return Player.I if len(position) % 2 == 0 else Player.II


def taboo_owner(tree: GameTree, position: Position) -> Player | None:
    """The player an early terminal is a loss for, or ``None`` if untagged."""
    return dict(tree.taboo_items()).get(position)


def plays(tree: GameTree) -> list[Position]:
    """The terminal positions, in canonical order."""
    return [p for p in tree.positions() if tree.is_terminal(p)]


def least_strategy(tree: GameTree, owner: Player) -> Strategy:
    """The lexicographic default: always the least available move."""
    return strategy_from(tree, owner, lambda _, labels: labels[0])


def identity_covering(tree: GameTree, level: int | None = None) -> Covering:
    """A tree covering itself, identity at ``level`` (default: the depth)."""
    return Covering(
        source=tree,
        target=tree,
        level=tree.depth if level is None else level,
        images=array("i", range(tree.node_count)),
        strategy_transform=lambda s: s,
        lift=lambda s, x: x,
    )


def canonical_order_by_sort(nodes) -> list[Position]:
    """Sort every node by length, then lexicographically by fresh label keys."""
    return sorted(nodes, key=lambda p: (len(p), fresh_position_key(p)))


def fresh_label_key(label) -> tuple:
    """A label's sort key built from its fields through the whole nesting:
    integers first, then claims, accepts and challenges."""
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, Claim):
        return (
            1,
            fresh_label_key(label.move),
            tuple(fresh_position_key(q) for q in label.claimed),
        )
    if isinstance(label, Accept):
        return (2, fresh_label_key(label.move))
    return (3, fresh_position_key(label.target), fresh_label_key(label.move))


def fresh_position_key(position) -> tuple:
    """Lexicographic by fresh label keys; a proper prefix sorts first."""
    return tuple(fresh_label_key(label) for label in position)


def subtree_at(tree: GameTree, position: Position) -> GameTree:
    """The game subtree: the chain up to ``position`` plus everything below it.

    Positions above keep only the single child leading toward ``position``,
    so every play of the subtree passes through it.  The depth bound and
    the taboo tags of surviving terminals are unchanged.
    """
    if position not in tree:
        raise ValueError(f"unknown position {format_position(position)}")
    children: dict[Position, tuple] = {}
    for k in range(len(position)):
        children[position[:k]] = (position[k],)
    stack = [position]
    while stack:
        current = stack.pop()
        labels = tree.children_of(current)
        children[current] = labels
        stack.extend(current + (label,) for label in labels)
    taboo = {p: owner for p, owner in tree.taboo_items() if p in children}
    return GameTree(tree.depth, children, taboo)


def subtree_nodes(tree: GameTree, position: Position) -> set[Position]:
    """Set comprehension over all nodes: comparable with the position."""
    return {
        q
        for q in tree.positions()
        if is_prefix(q, position) or is_prefix(position, q)
    }


def consistent_plays_filter(tree: GameTree, strategy: Strategy) -> set[Position]:
    """Filter every play of the tree by the consistency predicate: each of
    the owner's moves along the play is the strategy's choice there."""
    return {
        play
        for play in plays(tree)
        if all(
            strategy.choices.get(play[:k]) == play[k]
            for k in range(len(play))
            if to_move(play[:k]) is strategy.owner
        )
    }


def meets_by_leaf_walk(tree: GameTree, position: Position, leaves) -> bool:
    """Existence over the explicit leaf enumeration of the subtree."""
    below = [
        q for q in tree.positions() if is_prefix(position, q) and len(q) == tree.depth
    ]
    return any(q in leaves for q in below)


def frontier_by_scan(tree: GameTree, leaves, prefix: Position, move) -> list[Position]:
    """Scan every position and test the four defining conditions directly."""
    start = prefix + (move,)
    out = []
    for q in tree.positions():
        if not (is_prefix(start, q) and q != start):
            continue  # (i) strict extension
        if tree.is_terminal(q):
            continue  # (ii) non-terminal
        if meets_by_leaf_walk(tree, q, leaves):
            continue  # (iii) payoff unreachable below
        between_ok = all(
            meets_by_leaf_walk(tree, q[:n], leaves) for n in range(len(start) + 1, len(q))
        )
        if between_ok:  # (iv) minimality
            out.append(q)
    return out


def play_winner(tree: GameTree, play: Position, leaves) -> Player:
    owner = taboo_owner(tree, play)
    if owner is not None:
        return owner.opponent
    return Player.I if play in leaves else Player.II


def _some_losing_play(tree: GameTree, leaves, strategy: Strategy) -> Position | None:
    stack: list[Position] = [()]
    while stack:
        position = stack.pop()
        labels = tree.children_of(position)
        if not labels:
            if play_winner(tree, position, leaves) is not strategy.owner:
                return position
        elif to_move(position) is strategy.owner:
            stack.append(position + (strategy.choices[position],))
        else:
            stack.extend(position + (label,) for label in labels)
    return None


def decision_positions(tree: GameTree, owner: Player) -> list[Position]:
    return [
        p
        for p in tree.positions()
        if tree.children_of(p) and to_move(p) is owner
    ]


def exists_winning_strategy(tree: GameTree, leaves, owner: Player) -> bool:
    """Exhaustive enumeration of every strategy for ``owner``."""
    nodes = decision_positions(tree, owner)
    for combo in itertools.product(*(tree.children_of(p) for p in nodes)):
        candidate = Strategy(owner, dict(zip(nodes, combo)))
        if _some_losing_play(tree, leaves, candidate) is None:
            return True
    return False


def zermelo_winner(tree: GameTree, leaves) -> Player:
    """The unique player with a winning strategy, by double enumeration."""
    first = exists_winning_strategy(tree, leaves, Player.I)
    second = exists_winning_strategy(tree, leaves, Player.II)
    assert first != second, "exactly one player must have a winning strategy"
    return Player.I if first else Player.II


def taboo_strategy_by_solve(tree: GameTree, position: Position, player: Player):
    """The forcing strategy by its first definition: solve the subtree at
    ``position`` with the payoff "only plays in an opponent taboo win" (the
    empty set for player I, every full-depth play for player II)."""
    subtree = subtree_at(tree, position)
    payoff = frozenset() if player is Player.I else frozenset(subtree.full_depth_plays())
    solution = reference_solve(subtree, payoff)
    return solution.strategy if solution.winner is player else None


# The tuple-keyed backward induction the id kernel in ``unraveling.solver``
# replaced, kept as the reference that ``solve`` and ``prune`` must match
# exactly: winners, choices and their key order, and the pruned remainder.


def reference_winners(tree: GameTree, leaf_winner) -> dict[Position, Player | None]:
    """Backward induction keyed by position: the winner of every node, given
    the winner of every play by ``leaf_winner`` (``None`` for neither)."""
    values: dict[Position, Player | None] = {}
    for position in reversed(tree.positions()):
        labels = tree.children_of(position)
        if not labels:
            values[position] = leaf_winner(position)
            continue
        mover = to_move(position)
        child_values = [values[position + (label,)] for label in labels]
        if mover in child_values:
            values[position] = mover
        else:
            values[position] = None if None in child_values else mover.opponent
    return values


def reference_least_winning(tree: GameTree, owner: Player, values, positions) -> Strategy:
    """At each of the owner's decision positions among ``positions``, the
    least child the owner wins by ``values``, or else the least child."""
    choices = {}
    for position in positions:
        labels = tree.children_of(position)
        if not labels or to_move(position) is not owner:
            continue
        winning = [label for label in labels if values[position + (label,)] is owner]
        choices[position] = winning[0] if winning else labels[0]
    return Strategy(owner, choices)


def reference_solve(tree: GameTree, payoff) -> Solution:
    values = reference_winners(tree, lambda play: play_winner(tree, play, payoff))
    winner = values[()]
    return Solution(winner, reference_least_winning(tree, winner, values, tree.positions()))


def reference_prune(tree: GameTree) -> PruneResult:
    def taboo_leaf(play):
        owner = taboo_owner(tree, play)
        return None if owner is None else owner.opponent

    forced = reference_winners(tree, taboo_leaf)
    determined = {p: forced[p] for p in tree.positions() if forced[p] is not None}
    removed: dict[Position, None] = {}
    minimal: list[Position] = []
    for position in tree.positions():
        if position and position[:-1] in removed:
            removed[position] = None
        elif position in determined:
            removed[position] = None
            minimal.append(position)
    forcing = {
        player: reference_least_winning(tree, player, forced, removed)
        for player in {determined[position] for position in minimal}
    }
    witnesses = {position: forcing[determined[position]] for position in minimal}
    if () in determined:
        return PruneResult(None, determined[()], determined, frozenset(removed), witnesses)
    children = {
        position: tuple(
            label for label in tree.children_of(position) if position + (label,) not in removed
        )
        for position in tree.positions()
        if position not in removed
    }
    return PruneResult(
        GameTree(tree.depth, children), None, determined, frozenset(removed), witnesses
    )


# The prefix-keyed certificate scan and the position-walking transfer that
# the level-walking kernels in ``unraveling.payoff`` and ``unraveling.solver``
# replaced, kept as the references those must match exactly: verdicts and
# details, and transferred choices and their key order.


def reference_decided_by_depth(tree: GameTree, leaves, depth: int) -> CheckResult:
    """Groups the full-depth plays by their length-``depth`` prefix, in
    canonical order, and names the first play that disagrees with the first
    play of its group."""
    first_by_prefix: dict[Position, tuple[bool, Position]] = {}
    for leaf in tree.full_depth_plays():
        verdict = leaf in leaves
        first_verdict, first = first_by_prefix.setdefault(leaf[:depth], (verdict, leaf))
        if first_verdict != verdict:
            inside, outside = (first, leaf) if first_verdict else (leaf, first)
            return CheckResult(
                False,
                f"plays {format_position(inside)} (in) and {format_position(outside)} (out)"
                f" share the length-{depth} prefix",
            )
    return CheckResult(True)


def reference_transfer_from_pruned(
    tree: GameTree, pruned: PruneResult, strategy: Strategy
) -> Strategy:
    """Walks the positions: the strategy inside the remainder, below a
    removed region's entry (found by walking up) its witness if the entry
    is the owner's, else the least move."""
    owner = strategy.owner
    choices = {}
    for position in tree.positions():
        labels = tree.children_of(position)
        if not labels or to_move(position) is not owner:
            continue
        if position not in pruned.removed:
            choices[position] = strategy.move_at(position)
            continue
        entry = position
        while entry[:-1] in pruned.removed:
            entry = entry[:-1]
        if pruned.determined[entry] is owner:
            choices[position] = pruned.witnesses[entry].move_at(position)
        else:
            choices[position] = labels[0]
    return Strategy(owner, choices)
