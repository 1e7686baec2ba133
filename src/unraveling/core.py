"""Finite two-player game trees with taboo-tagged early terminals.

A game is played on a prefix-closed arena of positions with a fixed even
depth bound.  Plays that reach the depth bound stand in for infinite plays;
every play that stops earlier is a *taboo*, i.e. an unconditional loss for
the player it is tagged with, independent of any payoff set.

Positions are tuples of move labels.  Labels are small non-negative
integers in base games; derived games (see :mod:`unraveling.unravel`) use
structured labels, tuples whose first item is a kind tag, so they hash,
compare and order as the tuples they are.  In every tree the package
builds, each index of a position holds either only integers or only
tagged tuples, so Python's tuple order is the canonical label order: by
tag first, and a proper prefix before its extensions.  Siblings that do
not compare are an ``ArenaError``.  Sibling order is always the canonical
label order, which makes "lexicographically least" tie-breaking well
defined everywhere; a tree stores all its positions in canonical order,
found by one breadth-first walk over the sorted siblings.

Inside a tree a node is an integer id, its index in that order.  The walk
stores each parent's children as one consecutive block of ids, so an
array of first-child offsets gives every child range, and the taboo tags
are one byte per id.  The walk also makes each depth one consecutive
range of ids, so ``depth + 2`` level offsets give every level's range:
the first child of a level's first node starts the next level.  Backward
induction, taboo-pruning, the base construction, the covering checks and
the strategy checks walk the ids, one level at a time where the mover or
the depth matters, and a covering's position map is an array of target
ids by source id (``Covering.images``); tuple positions appear only at
the API and in the file formats.

A tree has two entries.  ``GameTree(depth, children, taboo)`` takes
positions in any order, sorts them and checks every structural rule.
Derived trees (covering sources, pruned remainders) are written by their
builders already in id form and enter through ``GameTree._from_ids``,
which re-checks only what needs no hashing.  The one table keyed by
position (for ``in`` and ``children_of``) is built on first use, so a
derived tree that is only walked by id never hashes its positions.
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping


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

    def __str__(self) -> str:
        return self.value


Label = int | tuple  # an int in base games, a tagged tuple in derived ones
Position = tuple


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def format_position(position: Position) -> str:
    """Slash path, ``-`` for the root (matches the game-file syntax)."""
    if not position:
        return "-"
    return "/".join(map(str, position))


class GameTree:
    """Immutable finite game arena with a depth bound and taboo tags.

    ``children`` maps every position to its child labels, in any order;
    terminal positions map to the empty tuple.  ``taboo`` tags exactly the
    terminals of depth less than the bound, partitioning the early plays
    into losses for player I and player II.

    Inside, a node is its integer id: its index in the canonical order
    (``_ordered``).  The breadth-first walk stores each parent's children
    as one consecutive block of ids, and the blocks follow one another, so
    ``_first``, an ``array('i')`` of n + 1 first-child offsets, gives every
    child range as ``_first[i]:_first[i + 1]``; both entries derive it from
    the label counts.  Each depth is one consecutive range of ids too:
    ``_levels``, an ``array('i')`` of ``depth + 2`` first ids, gives depth
    ``d`` as ``_levels[d]:_levels[d + 1]`` (an empty level is ``n:n``).
    ``_labels`` holds each node's child labels by id (one shared tuple per
    distinct label tuple), and ``_tags`` its taboo tag as one byte by id,
    an index into ``_OWNERS``.  The package's kernels walk these; tuple
    positions appear only at the API, through one table keyed by position,
    ``_children`` (child labels).

    The constructor checks every structural rule and keeps the child table
    it builds on the way.  ``_from_ids`` takes positions, child labels and
    tags from a builder that wrote them in canonical order and checks only
    the tags and the depth bound; its tree builds the position table on the
    first lookup that needs it.
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
        # in canonical order, so their children do too, level by level, and
        # a node's id is its index in ``ordered``.  The table is keyed by the
        # tuples the walk creates, which the order shares, so each position
        # is stored once.  Prefix closure: every named child must be stored,
        # and the walk must reach everything.  Taboo tags are read at the
        # terminals only; a tag the walk does not use is a fault found below.
        table: dict[Position, tuple[Label, ...]] = {}
        ordered: list[Position] = [()]
        by_id: list[tuple[Label, ...]] = []
        tags = bytearray()
        tagged = 0
        untagged = None  # the first early terminal without a tag
        shared: dict[tuple[Label, ...], tuple[Label, ...]] = {}  # equal label tuples, kept once
        for position in ordered:  # grows while it is walked
            try:
                labels = children[position]
            except KeyError:
                raise ArenaError(
                    f"child {format_position(position)} not stored (prefix closure)", position
                ) from None
            try:
                labels = tuple(sorted(labels))
            except TypeError:  # labels of different kinds
                raise ArenaError(
                    f"incomparable sibling labels under {format_position(position)}", position
                ) from None
            tag = 0
            if labels:
                if len(set(labels)) != len(labels):
                    raise ArenaError(
                        f"duplicate sibling labels under {format_position(position)}", position
                    )
                if len(position) == depth:
                    child = position + labels[:1]
                    raise ArenaError(
                        f"node {format_position(child)} exceeds depth bound {depth}", child
                    )
                labels = shared.setdefault(labels, labels)
                ordered.extend([position + (label,) for label in labels])
            elif len(position) < depth:
                owner = taboo.get(position)
                if isinstance(owner, Player):
                    tag = _OWNERS.index(owner)
                    tagged += 1
                elif owner is None and untagged is None:
                    untagged = position
            table[position] = labels
            by_id.append(labels)
            tags.append(tag)
        if len(ordered) != len(children):
            stray = next(p for p in children if p not in table)
            raise ArenaError(
                f"position {format_position(stray)} unreachable (prefix closure)", stray
            )
        if tagged != len(taboo):
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
        if untagged is not None:
            raise ArenaError(
                f"early terminal {format_position(untagged)} lacks a taboo tag (partition)",
                untagged,
            )
        self._store(depth, ordered, by_id, tags)
        self._children = table  # shadows the table built on first use

    def _store(self, depth, ordered, labels, tags) -> None:
        self.depth = depth
        self._ordered = tuple(ordered)
        self._labels = labels
        self._first = first = array("i", accumulate(map(len, labels), initial=1))
        # The first child of a level's first node starts the next level.
        self._levels = levels = array("i", [0])
        for _ in range(depth + 1):
            levels.append(first[levels[-1]])
        self._tags = tags
        self._decisions: dict[Player, Mapping[Position, tuple[Label, ...]]] = {}

    @classmethod
    def _from_ids(
        cls,
        depth: int,
        ordered: list[Position],
        labels: list[tuple[Label, ...]],
        tags: bytearray,
    ) -> "GameTree":
        """A tree from arrays its builder wrote in canonical order: the
        positions, their child labels and their tag bytes, by id.

        Only the checks that need no hashing run: exactly the early
        terminals carry a tag, and no node lies past the depth bound.  A
        failure is a fault of the builder, not of any input.
        """
        if len(ordered[-1]) > depth:
            raise InternalInvariantError(
                f"node {format_position(ordered[-1])} exceeds depth bound {depth}"
            )
        tree = cls.__new__(cls)
        tree._store(depth, ordered, labels, tags)
        # A node is untagged iff it has children or is a full-depth play.
        start = tree._levels[depth]
        expected = bytearray(map(bool, labels))
        expected[start:] = b"\x01" * (len(labels) - start)
        untagged = tags.translate(_UNTAGGED)
        if untagged != expected:
            fault = next(i for i, (a, b) in enumerate(zip(untagged, expected)) if a != b)
            raise InternalInvariantError(
                f"taboo tag at {format_position(ordered[fault])} does not match an early terminal"
            )
        return tree

    @cached_property
    def _children(self) -> dict[Position, tuple[Label, ...]]:
        return dict(zip(self._ordered, self._labels))

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

    def decisions(self, owner: Player) -> Mapping[Position, tuple[Label, ...]]:
        """The owner's non-terminal positions, each with its child labels, in
        canonical order: a read-only table built once per player."""
        table = self._decisions.get(owner)
        if table is None:
            ordered, labels_of, levels = self._ordered, self._labels, self._levels
            owned = {}
            for d in range(0 if owner is Player.I else 1, self.depth, 2):  # the owner's levels
                lo, hi = levels[d], levels[d + 1]
                owned.update(
                    (p, labels) for p, labels in zip(ordered[lo:hi], labels_of[lo:hi]) if labels
                )
            table = self._decisions[owner] = MappingProxyType(owned)
        return table

    @property
    def node_count(self) -> int:
        return len(self._ordered)

    def __contains__(self, position: Position) -> bool:
        return position in self._children

    def children_of(self, position: Position) -> tuple[Label, ...]:
        try:
            return self._children[position]
        except KeyError:
            raise ValueError(f"unknown position {format_position(position)}") from None

    def is_terminal(self, position: Position) -> bool:
        return not self.children_of(position)

    def taboo_items(self) -> Iterator[tuple[Position, Player]]:
        for position, tag in zip(self._ordered, self._tags):
            if tag:
                yield position, _OWNERS[tag]

    def full_depth_plays(self) -> Iterator[Position]:
        """The depth-bound plays, i.e. the stand-ins for infinite plays."""
        return iter(self._ordered[self._levels[self.depth] :])

    def _id(self, position: Position) -> int:
        """The id of a stored position, found by descending the child ranges."""
        i = 0
        for label in position:
            i = self._first[i] + self._labels[i].index(label)
        return i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameTree):
            return NotImplemented
        return (
            self.depth == other.depth
            and self._ordered == other._ordered
            and self._tags == other._tags
        )

    __hash__ = None  # compared by value, never hashed

    def __repr__(self) -> str:
        return f"GameTree(depth={self.depth}, nodes={self.node_count})"


# A taboo tag byte names its owner; 0 is untagged.
_OWNERS = (None, Player.I, Player.II)
# The two ways a play is won: a taboo by the opponent of its owner, read by
# tag byte (``None`` on the untagged byte), and a full-depth play by I iff it
# is in the payoff, read by membership.
_TABOO_WINNER = tuple(owner and owner.opponent for owner in _OWNERS)
_PLAY_WINNER = (Player.II, Player.I)
_UNTAGGED = bytes([1]) + bytes(255)  # a ``translate`` table: 1 on the untagged byte


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first counterexample found, if any."""

    ok: bool
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=True)
class Strategy:
    """Total choice function for one player.

    ``choices`` is a read-only ``Mapping`` from every non-terminal position
    of the owner's parity to the label of the chosen child.  Totality keeps
    consistency checks and play enumeration decidable; unreachable positions
    simply carry a default choice.  ``choices`` is never mutated after
    construction (a variant is a new strategy over a copied dict), so a
    strategy map may remember a strategy by identity; a mapped strategy's
    choices may be computed on lookup (see ``unraveling.unravel``).
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
    for position, labels in tree.decisions(owner).items():
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


def _consistent_ids(tree: GameTree, strategy: Strategy) -> list[int]:
    """The ids of the plays consistent with the strategy, depth first, least
    child first; the owner's moves are read from the strategy."""
    ordered, first, labels_of = tree._ordered, tree._first, tree._labels
    move_at = strategy.move_at
    out: list[int] = []
    # The stack carries whose move it is: a node where the owner moves is
    # pushed as its complement ``~i``, which is negative.
    stack = [~0 if strategy.owner is Player.I else 0]
    while stack:
        i = stack.pop()
        owned = i < 0
        if owned:
            i = ~i
        lo, hi = first[i], first[i + 1]
        if lo == hi:
            out.append(i)
        elif owned:
            position = ordered[i]
            move = move_at(position)
            try:
                stack.append(lo + labels_of[i].index(move))
            except ValueError:
                raise ValueError(
                    f"unknown position {format_position(position + (move,))}"
                ) from None
        else:
            stack.extend(range(-hi, -lo))  # ~(hi - 1) .. ~lo: the least child on top
    return out


def consistent_plays(tree: GameTree, strategy: Strategy) -> tuple[Position, ...]:
    """All plays consistent with the strategy, branching only over the opponent.

    Never empty: the tree is finite and the strategy total, so following it
    always terminates.
    """
    ordered = tree._ordered
    return tuple(ordered[i] for i in _consistent_ids(tree, strategy))


def _check_payoff(tree: GameTree, payoff: Iterable[Position]) -> None:
    if set(map(len, payoff)) <= {tree.depth}:
        return
    member = next(m for m in payoff if len(m) != tree.depth)
    raise ValueError(f"payoff member {format_position(member)} is not a full-depth play")


def _evaluate(tree: GameTree, i: int, payoff) -> Player:
    """Winner of the play with id ``i``, by the two winner tables: its taboo
    tag if it is an early terminal (``GameTree`` tags every one), else its
    payoff membership."""
    return _TABOO_WINNER[tree._tags[i]] or _PLAY_WINNER[tree._ordered[i] in payoff]


def is_winning_strategy(tree: GameTree, payoff, strategy: Strategy) -> CheckResult:
    """Passes iff every play consistent with the strategy is a win for its
    owner; a failure names the first lost play in ``consistent_plays`` order."""
    _check_payoff(tree, payoff)
    for i in _consistent_ids(tree, strategy):
        if _evaluate(tree, i, payoff) is not strategy.owner:
            return CheckResult(False, f"loses play {format_position(tree._ordered[i])}")
    return CheckResult(True)
