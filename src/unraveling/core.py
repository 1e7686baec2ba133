"""Finite two-player game trees with taboo-tagged early terminals.

A game is played on a prefix-closed arena of positions with a fixed even
depth bound.  Plays that reach the depth bound stand in for infinite plays;
every play that stops earlier is a *taboo*, i.e. an unconditional loss for
the player it is tagged with, independent of any payoff set.

Positions are tuples of move labels.  Labels are small non-negative
integers in base games; derived games (see :mod:`unraveling.unravel`) use
structured labels that provide their own ``sort_key``.  Structured labels
nest, so they are immutable and compute their hash and sort key at most
once.  Sibling order is always the canonical label order, which makes
"lexicographically least" tie-breaking well defined everywhere; a tree
stores all its positions in canonical order, found by one breadth-first
walk over the sorted siblings.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Union


class InternalInvariantError(RuntimeError):
    """A structural fact the implementation relies on failed to hold."""


class ResourceLimitError(RuntimeError):
    """A configurable size cap was exceeded; nothing was silently truncated."""


DEFAULT_NODE_MAX = 200_000


class ArenaError(ValueError):
    """A tree or a generator set breaks a structural rule of the arena.

    ``position`` is the offending position; it is ``None`` only when the
    depth bound itself is illegal.
    """

    def __init__(self, message: str, position: "Position | None"):
        super().__init__(message)
        self.position = position


class Player(enum.Enum):
    I = "I"
    II = "II"

    @property
    def opponent(self) -> "Player":
        return Player.II if self is Player.I else Player.I

    @staticmethod
    def to_move(position: "Position") -> "Player":
        """Player I moves at even-length positions, player II at odd."""
        return Player.I if len(position) % 2 == 0 else Player.II

    def __str__(self) -> str:
        return self.value


class StructuredLabel(Protocol):
    """A derived move label: immutable and hashable, equal by value.

    Labels are hashed on every lookup of a position that holds them and
    keyed on every sort, so an implementation computes its hash and its
    sort key at most once and keeps them.
    """

    def __hash__(self) -> int: ...

    def sort_key(self) -> tuple: ...


Label = Union[int, StructuredLabel]
Position = tuple


def label_key(label: Label) -> tuple:
    """Total order on move labels; plain integers sort before structured ones."""
    if isinstance(label, int):
        return (0, label)
    return label.sort_key()


def position_key(position: Position) -> tuple:
    """Lexicographic key; a proper prefix sorts before its extensions."""
    return tuple(label_key(label) for label in position)


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def format_label(label: Label) -> str:
    return str(label)


def format_position(position: Position) -> str:
    """Slash path, ``-`` for the root (matches the game-file syntax)."""
    if not position:
        return "-"
    return "/".join(format_label(label) for label in position)


class GameTree:
    """Immutable finite game arena with a depth bound and taboo tags.

    ``children`` maps every position to its ordered child labels; terminal
    positions map to the empty tuple.  ``taboo`` tags exactly the terminals
    of depth less than the bound, partitioning the early plays into losses
    for player I and player II.
    """

    def __init__(
        self,
        depth: int,
        children: Mapping[Position, Iterable[Label]],
        taboo: Mapping[Position, Player] = {},
    ):
        if depth < 2 or depth % 2 != 0:
            raise ArenaError("depth bound must be an even integer >= 2", None)
        if () not in children:
            raise ArenaError("missing root position", ())
        # Breadth-first walk over the sorted child tuples: parents come out
        # in canonical order, so their children do too, level by level.  The
        # table is keyed by the tuples the walk creates, which the order
        # shares, so each position is stored once.  Prefix closure: every
        # named child must be stored, and the walk must reach everything.
        table: dict[Position, tuple[Label, ...]] = {}
        ordered: list[Position] = [()]
        for position in ordered:  # grows while it is walked
            try:
                labels = tuple(sorted(children[position], key=label_key))
            except KeyError:
                raise ArenaError(
                    f"child {format_position(position)} not stored (prefix closure)", position
                ) from None
            if len(set(labels)) != len(labels):
                raise ArenaError(
                    f"duplicate sibling labels under {format_position(position)}", position
                )
            if len(position) == depth and labels:
                child = position + labels[:1]
                raise ArenaError(
                    f"node {format_position(child)} exceeds depth bound {depth}", child
                )
            table[position] = labels
            ordered.extend(position + (label,) for label in labels)
        if len(ordered) != len(children):
            stray = next(p for p in children if p not in table)
            raise ArenaError(
                f"position {format_position(stray)} unreachable (prefix closure)", stray
            )
        for position, owner in taboo.items():
            if position not in table:
                fault = "taboo tag on unknown position {}"
            elif table[position]:
                fault = "taboo tag on non-terminal position {}"
            elif len(position) == depth:
                fault = "taboo at full depth: {}"
            elif not isinstance(owner, Player):
                fault = "taboo tag on {} must name a player"
            else:
                continue
            raise ArenaError(fault.format(format_position(position)), position)
        for position, labels in table.items():
            if not labels and len(position) < depth and position not in taboo:
                raise ArenaError(
                    f"early terminal {format_position(position)} lacks a taboo tag (partition)",
                    position,
                )
        self.depth = depth
        self._children = table
        self._taboo = dict(taboo)
        self._ordered = tuple(ordered)

    @classmethod
    def from_nodes(
        cls,
        depth: int,
        nodes: Iterable[Position],
        taboo: Mapping[Position, Player] = {},
    ) -> "GameTree":
        """Build from the set of positions; child labels are inferred."""
        stored = {(): set()} | {tuple(p): set() for p in nodes}
        for position in list(stored):
            if position:
                parent = position[:-1]
                if parent not in stored:
                    raise ArenaError(
                        f"missing parent of {format_position(position)} (prefix closure)",
                        position,
                    )
                stored[parent].add(position[-1])
        return cls(depth, stored, taboo)

    @classmethod
    def complete(cls, depth: int, branching: int) -> "GameTree":
        """Complete ``branching``-ary tree of the given depth, no early terminals."""
        labels = tuple(range(branching))
        children: dict[Position, tuple[int, ...]] = {}
        level: list[Position] = [()]
        for _ in range(depth):
            for position in level:
                children[position] = labels
            level = [position + (label,) for position in level for label in labels]
        for position in level:
            children[position] = ()
        return cls(depth, children)

    def positions(self) -> tuple[Position, ...]:
        """All positions in canonical order (by length, then lexicographic)."""
        return self._ordered

    @property
    def node_count(self) -> int:
        return len(self._children)

    def __contains__(self, position: Position) -> bool:
        return position in self._children

    def children_of(self, position: Position) -> tuple[Label, ...]:
        try:
            return self._children[position]
        except KeyError:
            raise ValueError(f"unknown position {format_position(position)}") from None

    def is_terminal(self, position: Position) -> bool:
        return not self.children_of(position)

    def taboo_owner(self, position: Position) -> Player | None:
        """The player for whom this early terminal is a loss, if tagged."""
        if position not in self._children:
            raise ValueError(f"unknown position {format_position(position)}")
        return self._taboo.get(position)

    def taboo_items(self) -> Iterator[tuple[Position, Player]]:
        for position in self._ordered:
            owner = self._taboo.get(position)
            if owner is not None:
                yield position, owner

    def full_depth_plays(self) -> Iterator[Position]:
        """The depth-bound plays, i.e. the stand-ins for infinite plays."""
        return (p for p in self._ordered if len(p) == self.depth)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameTree):
            return NotImplemented
        return (
            self.depth == other.depth
            and self._children == other._children
            and self._taboo == other._taboo
        )

    __hash__ = None  # compared by value, never hashed

    def __repr__(self) -> str:
        return f"GameTree(depth={self.depth}, nodes={self.node_count})"


@dataclass(frozen=True, eq=True)
class Strategy:
    """Total choice function for one player.

    ``choices`` maps every non-terminal position of the owner's parity to
    the label of the chosen child.  Totality keeps consistency checks and
    play enumeration decidable; unreachable positions simply carry a
    default choice.  ``choices`` is never mutated after construction (a
    variant is a new strategy over a copied dict), so a strategy map may
    remember a strategy by identity.
    """

    owner: Player
    choices: Mapping[Position, Label]

    def move_at(self, position: Position) -> Label:
        try:
            return self.choices[position]
        except KeyError:
            raise ValueError(
                f"strategy has no choice at {format_position(position)} (not total)"
            ) from None


def strategy_from(
    tree: GameTree,
    owner: Player,
    choose: Callable[[Position, tuple[Label, ...]], Label],
) -> Strategy:
    """Total strategy built by calling ``choose`` at each decision position."""
    choices = {}
    for position in tree.positions():
        labels = tree.children_of(position)
        if labels and Player.to_move(position) is owner:
            choice = choose(position, labels)
            if choice not in labels:
                raise ValueError(f"illegal choice at {format_position(position)}")
            choices[position] = choice
    return Strategy(owner, choices)


def random_strategy(rng: random.Random, tree: GameTree, owner: Player) -> Strategy:
    return strategy_from(tree, owner, lambda _, labels: rng.choice(labels))


def is_consistent(position: Position, strategy: Strategy) -> bool:
    """True iff the owner's moves along ``position`` all follow the strategy."""
    start = 0 if strategy.owner is Player.I else 1
    for k in range(start, len(position), 2):
        if strategy.choices.get(position[:k]) != position[k]:
            return False
    return True


def consistent_plays(tree: GameTree, strategy: Strategy) -> tuple[Position, ...]:
    """All plays consistent with the strategy, branching only over the opponent.

    Never empty: the tree is finite and the strategy total, so following it
    always terminates.
    """
    out: list[Position] = []
    stack: list[Position] = [()]
    while stack:
        position = stack.pop()
        labels = tree.children_of(position)
        if not labels:
            out.append(position)
        elif Player.to_move(position) is strategy.owner:
            stack.append(position + (strategy.move_at(position),))
        else:
            stack.extend(position + (label,) for label in reversed(labels))
    return tuple(out)


def _check_payoff(tree: GameTree, payoff: Iterable[Position]) -> None:
    for member in payoff:
        if len(member) != tree.depth:
            raise ValueError(
                f"payoff member {format_position(member)} is not a full-depth play"
            )


def _evaluate(tree: GameTree, play: Position, payoff) -> Player:
    """Winner of one play: the opponent of its taboo owner if it is an early
    terminal (``GameTree`` tags every one), else I iff it lies in the payoff."""
    owner = tree.taboo_owner(play)
    if owner is not None:
        return owner.opponent
    return Player.I if play in payoff else Player.II


def is_winning_strategy(tree: GameTree, payoff, strategy: Strategy) -> bool:
    """True iff every play consistent with the strategy is a win for its owner."""
    _check_payoff(tree, payoff)
    return all(
        _evaluate(tree, play, payoff) is strategy.owner
        for play in consistent_plays(tree, strategy)
    )
