"""Independent brute-force oracles the tests check the library against.

Each oracle recomputes a result by direct enumeration of the defining
condition, sharing as little code as possible with the implementation path
it is used to check.
"""

from __future__ import annotations

import itertools

from unraveling.core import (
    GameTree,
    Player,
    Position,
    Strategy,
    format_position,
    is_consistent,
    is_prefix,
    position_key,
    strategy_from,
)
from unraveling.covering import Covering
from unraveling.solver import solve
from unraveling.unravel import Accept, Claim


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
        position_map={p: p for p in tree.positions()},
        strategy_transform=lambda s: s,
        lift=lambda s, x: x,
    )


def canonical_order_by_sort(nodes) -> list[Position]:
    """Sort every node by length, then lexicographically by label keys."""
    return sorted(nodes, key=lambda p: (len(p), position_key(p)))


def fresh_label_key(label) -> tuple:
    """A label's sort key recomputed through the whole nesting, reading no
    key a label has kept."""
    if isinstance(label, int):
        return (0, label)

    def fresh_position(position):
        return tuple(fresh_label_key(inner) for inner in position)

    if isinstance(label, Claim):
        return (
            1,
            fresh_label_key(label.move),
            tuple(fresh_position(q) for q in label.claimed),
        )
    if isinstance(label, Accept):
        return (2, fresh_label_key(label.move))
    return (3, fresh_position(label.target), fresh_label_key(label.move))


def subtree_at(tree: GameTree, position: Position) -> GameTree:
    """The game subtree: the chain up to ``position`` plus everything below it.

    Positions above keep only the single child leading toward ``position``,
    so every play of the subtree passes through it.  The depth bound and
    the taboo tags of surviving terminals are unchanged.
    """
    if position not in tree:
        raise ValueError(f"unknown position {format_position(position)}")
    children: dict[Position, tuple] = {}
    taboo: dict[Position, Player] = {}
    for k in range(len(position)):
        children[position[:k]] = (position[k],)
    stack = [position]
    while stack:
        current = stack.pop()
        labels = tree.children_of(current)
        children[current] = labels
        owner = tree.taboo_owner(current)
        if owner is not None:
            taboo[current] = owner
        stack.extend(current + (label,) for label in labels)
    return GameTree(tree.depth, children, taboo)


def subtree_nodes(tree: GameTree, position: Position) -> set[Position]:
    """Set comprehension over all nodes: comparable with the position."""
    return {
        q
        for q in tree.positions()
        if is_prefix(q, position) or is_prefix(position, q)
    }


def consistent_plays_filter(tree: GameTree, strategy: Strategy) -> set[Position]:
    """Filter every play of the tree by the consistency predicate."""
    return {
        play
        for play in plays(tree)
        if is_consistent(play, strategy)
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
    owner = tree.taboo_owner(play)
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
        elif Player.to_move(position) is strategy.owner:
            stack.append(position + (strategy.choices[position],))
        else:
            stack.extend(position + (label,) for label in labels)
    return None


def decision_positions(tree: GameTree, owner: Player) -> list[Position]:
    return [
        p
        for p in tree.positions()
        if tree.children_of(p) and Player.to_move(p) is owner
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
    solution = solve(subtree, payoff)
    return solution.strategy if solution.winner is player else None
