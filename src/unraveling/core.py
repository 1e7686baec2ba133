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
defined everywhere; a tree stores all its positions in canonical order:
by length, then lexicographic.

Inside a tree a node is an integer id, its index in that order.  Each
parent's children are one consecutive block of ids, so an array of
first-child offsets gives every child range, and the taboo tags are one
byte per id.  Each depth is one consecutive range of ids, so
``depth + 2`` level offsets give every level's range: the first child of
a level's first node starts the next level.  Backward induction,
taboo-pruning, the base construction, the covering checks and the
strategy checks walk the ids, one level at a time where the mover or
the depth matters, and a covering's position map is an array of target
ids by source id (``Covering.images``); tuple positions appear only at
the API and in the file formats, which write every path by id, each from
its parent's (``_paths``).  Player I moves at even depths and
player II at odd ones: the mover table ``_TO_MOVE``, indexed by a depth's
parity, is the one place that says so, and ``_decision_ids``, the one
walk over a player's decision nodes, reads it.

A payoff set is a ``Plays``: a read-only set bound to one tree that holds
one byte per full-depth id, 1 on the plays in the set.  ``realize`` and
``pullback`` build them with byte operations, and every kernel reads the
bytes by id, as ``in`` finds a play.  Every function that takes a payoff
set accepts any set of positions and converts it once, in ``_as_plays``;
a ``Plays`` of the same tree passes through as it is.

A strategy's choices are kept the same way: a ``Choices`` is a read-only
mapping bound to one tree that holds one child index per node id, read
at the owner's decision ids (the cached ``_decision_ids``).  Every
strategy the package makes is written in that form (random draws, the
solver's and the pruner's strategies, the checks' mutations and the
mapped strategies, whose entries are computed on first read), and every
kernel reads the indices by id; any other mapping is converted once, in
``_as_choices``, and read by position only where a choice is first
needed.  Positions, labels and canonical order appear only at the
mapping's API, which finds a position through the tree's one position
table; a strategy keeps no table of its own.

Outside input reaches a tree by one constructor, ``GameTree(depth,
nodes, taboo)``: positions in any order.  One pass (``_layout``) stores
them when they come in canonical order, as a canonical game file lists
them; any other order is sorted level by level first.  Then one check of
the depth bound and the taboo tags (``_check_and_tag``) runs.  Trees
the package makes itself (complete and random arenas, covering sources,
pruned remainders) are written by their builders already in id form and
enter through ``GameTree._from_ids``, which re-checks only what needs no
hashing; their positions follow from the child labels, one level at a
time, in ``_positions_below``.  Every tree, whichever entry made it,
builds its one table keyed by position, for ``in``, ``children_of`` and
a strategy's reads by position, on first use.  A tree that is only
walked by id, or whose payoff sets are only converted and asked ``in``,
never builds it.
"""

from __future__ import annotations

import enum
import random
from array import array
from collections.abc import Collection, ItemsView, Set
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat
from operator import not_
from typing import Iterable, Iterator, Mapping


class InternalInvariantError(RuntimeError):
    """A structural fact the implementation relies on failed to hold."""


class ResourceLimitError(RuntimeError):
    """A configurable size cap was exceeded; nothing was silently truncated."""


DEFAULT_NODE_MAX = 200_000
# A position of length d holds d labels, so a deep tree holds far more
# labels than nodes: one path of depth D holds D(D + 1) / 2 of them,
# whatever the node count.  Builders that know their label count before
# they allocate check it against this many labels per node of the cap.
LABELS_PER_NODE = 25


def _check_label_budget(what: str, labels: int, node_max: int) -> None:
    """Raise ``ResourceLimitError`` if ``labels`` position labels exceed
    the budget of ``LABELS_PER_NODE`` labels per node of the cap."""
    budget = LABELS_PER_NODE * node_max
    if labels > budget:
        raise ResourceLimitError(
            f"{what} exceeds {budget} position labels ({LABELS_PER_NODE} per node of the cap)"
        )


class ArenaError(ValueError):
    """A tree or a generator set breaks a structural rule of the arena.

    ``position`` is the offending position; it is ``None`` only when the
    depth bound itself is illegal.
    """

    def __init__(self, message: str, position: "Position | None"):
        super().__init__(message)
        self.position = position


def _check_depth(depth: int) -> None:
    """Raise ``ArenaError`` unless ``depth`` is a legal depth bound."""
    if depth < 2 or depth % 2 != 0:
        raise ArenaError("depth bound must be an even integer >= 2", None)
    if depth > DEFAULT_NODE_MAX:  # no play of that length fits under the node cap
        raise ArenaError(f"depth bound must be at most {DEFAULT_NODE_MAX}", None)


class Player(enum.Enum):
    I = "I"
    II = "II"

    @property
    def opponent(self) -> "Player":
        """The other player: the one who moves one depth later."""
        return _TO_MOVE[1 - _TO_MOVE.index(self)]

    def __str__(self) -> str:
        return self.value


Label = int | tuple  # an int in base games, a tagged tuple in derived ones
Position = tuple


def format_position(position: Position) -> str:
    """Slash path, ``-`` for the root (matches the game-file syntax)."""
    if not position:
        return "-"
    return "/".join(map(str, position))


def _paths(tree: GameTree) -> list[str]:
    """Every node's slash path by id, as ``format_position`` writes it:
    each is its parent's path, a slash and ``str`` of its label."""
    labels = tree._labels
    paths = ["-", *map(str, labels[0])]
    for i in compress(range(1, len(labels)), labels[1:]):
        prefix = paths[i] + "/"
        paths.extend([prefix + str(label) for label in labels[i]])
    return paths


def _positions_below(ordered: list[Position], labels, at: int) -> list[Position]:
    """Extend ``ordered``, the positions by id up to the end of the level
    that starts at id ``at``, with every deeper position, one level at a
    time: the next level is each node's position plus each of its child
    labels (``labels``, by id), in order.  Returns ``ordered``."""
    parents = ordered[at:]
    while parents:
        below = labels[at : at + len(parents)]
        at += len(parents)
        parents = [parent + (label,) for parent, own in zip(parents, below) for label in own]
        ordered += parents
    return ordered


def _layout(nodes: list[Position]):
    """The positions by id, the root first, and every node's child labels
    by id (equal tuples shared), read in one pass from ``nodes`` in
    canonical order; the root and a repeat of the position before are
    skipped.  The third item is ``None``, or the position at which the
    pass stops: one with no parent ahead, or one whose label does not
    follow its previous sibling's.

    Each parent is found by moving one pointer forward over the positions
    stored, so each parent's children are one block of ids and the blocks
    come in parent order."""
    ordered: list[Position] = [()]
    labels: list[tuple[Label, ...]] = []  # by id, up to the parent before the current one
    shared: dict[tuple[Label, ...], tuple[Label, ...]] = {}
    parent, up, siblings = 0, (), []  # the current parent's id and position, its child labels
    try:
        for position in nodes:
            if not position:  # the root, implied
                continue
            head, label = position[:-1], position[-1]
            if head != up:
                later = ordered.index(head, parent + 1)
                own = tuple(siblings)
                labels.append(shared.setdefault(own, own))
                labels += [()] * (later - parent - 1)
                parent, up, siblings = later, head, []
            elif siblings and label <= siblings[-1]:
                if label == siblings[-1]:  # a repeat
                    continue
                return ordered, labels, position
            siblings.append(label)
            ordered.append(position)
    except (ValueError, TypeError):  # no parent ahead, or labels that do not compare
        return ordered, labels, position
    own = tuple(siblings)
    labels.append(shared.setdefault(own, own))
    labels += [()] * (len(ordered) - parent - 1)
    return ordered, labels, None


def _ints_first(position: Position):
    """A level-by-level sort key that puts integer labels before tagged
    tuples, so siblings of the two kinds meet, and fail, in ``_layout``."""
    return len(position), [(isinstance(label, tuple), label) for label in position]


class GameTree:
    """Immutable finite game arena with a depth bound and taboo tags.

    ``nodes`` are the tree's positions in any order; the root is implied
    and repeats are dropped.  ``taboo`` tags exactly the terminals of depth
    less than the bound, partitioning the early plays into losses for
    player I and player II.

    Inside, a node is its integer id: its index in the canonical order
    (``_ordered``).  Each parent's children are one consecutive block of
    ids, and the blocks follow one another, so ``_first``, an
    ``array('i')`` of n + 1 first-child offsets, gives every child range
    as ``_first[i]:_first[i + 1]``; every entry derives it from the label
    counts.  Each depth is one consecutive range of ids too: ``_levels``,
    an ``array('i')`` of ``depth + 2`` first ids, gives depth ``d`` as
    ``_levels[d]:_levels[d + 1]`` (an empty level is ``n:n``).
    ``_labels`` holds each node's child labels by id (one shared tuple per
    distinct label tuple), and ``_tags`` its taboo tag as one byte by id,
    an index into ``_OWNERS``.  The package's kernels walk these; tuple
    positions appear only at the API, through one table keyed by position,
    ``_children`` (child labels).

    The constructor checks every structural rule: ``_layout`` finds a
    missing parent or siblings that do not compare, and
    ``_check_and_tag`` the nodes past the depth bound and the taboo tags.
    ``_from_ids`` takes positions, child labels and tags from a builder
    that wrote them in canonical order and checks only the tags and the
    depth bound.  Whatever the entry, the tree builds its position table
    on the first lookup that needs it.
    """

    def __init__(
        self,
        depth: int,
        nodes: Iterable[Position],
        taboo: Mapping[Position, Player] = {},
    ):
        # Faults are named in the order a file reports them: a missing
        # parent (the first the caller lists), the depth bound, siblings
        # that do not compare, then the rules of ``_check_and_tag``.
        nodes = list(nodes)
        ordered, labels, refused = _layout(nodes)
        if refused is not None:  # not in canonical order: sort level by level
            try:
                ordered, labels, refused = _layout(sorted(nodes, key=lambda p: (len(p), p)))
            except TypeError:  # labels of two kinds
                ordered, labels, refused = _layout(sorted(nodes, key=_ints_first))
        if refused is not None:  # a missing parent, or siblings that do not compare
            stored = {(), *nodes}
            orphan = next((p for p in nodes if p and p[:-1] not in stored), None)
            if orphan is not None:
                raise ArenaError(
                    f"missing parent of {format_position(orphan)} (prefix closure)", orphan
                )
        _check_depth(depth)
        if refused is not None:
            raise ArenaError(
                f"incomparable sibling labels under {format_position(refused[:-1])}",
                refused[:-1],
            )
        self._store(depth, ordered, labels, bytearray(len(ordered)))
        self._check_and_tag(taboo)

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
        self._owned: dict = {}  # decision ids and draw rows, by owner
        # A strategy's read where it has no choice (``Choices._read``); not a
        # method, which would make a cycle that only the collector frees.
        self._missing_choice = partial(_missing, self._ordered)

    def _check_and_tag(self, taboo: Mapping[Position, Player]) -> None:
        """The arena rules for a stored tree built from outside input: no
        node past the depth bound, and ``taboo`` tags exactly the early
        terminals, each with a player.  Writes the tag bytes; an
        ``ArenaError`` names the first fault."""
        depth, ordered, labels, levels = self.depth, self._ordered, self._labels, self._levels
        past = levels[depth + 1]  # the first id past the bound, if any
        if past < len(ordered):
            raise ArenaError(
                f"node {format_position(ordered[past])} exceeds depth bound {depth}", ordered[past]
            )
        # Tags are read at the early terminals only; a tag not used there is
        # a fault found below, through the position table.
        tags = self._tags
        tagged = 0
        untagged = None  # the first early terminal without a tag
        for i in compress(range(levels[depth]), map(not_, labels)):
            owner = taboo.get(ordered[i])
            if isinstance(owner, Player):
                tags[i] = _OWNERS.index(owner)
                tagged += 1
            elif owner is None and untagged is None:
                untagged = ordered[i]
        if tagged != len(taboo):
            for position, owner in taboo.items():
                if position not in self._children:
                    fault = "taboo tag on unknown position {}"
                elif self._children[position]:
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
        failure is a fault of the builder, not of any input.  As for every
        tree, the position table is built on first use.
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

    @cached_property
    def _parents(self) -> list[int]:
        """The parent id of every node by id, -1 at the root."""
        labels = self._labels
        return [-1, *chain.from_iterable(map(repeat, range(len(labels)), map(len, labels)))]

    @classmethod
    def complete(cls, depth: int, branching: int) -> "GameTree":
        """Complete ``branching``-ary tree of the given depth, no early
        terminals, written in id form.  A tree whose positions hold more
        labels than the budget (see ``_check_label_budget``) raises before
        it is built."""
        held, width = 0, 1
        for d in range(1, depth + 1):
            width *= branching
            if not width:
                break
            held += d * width
            _check_label_budget("complete tree", held, DEFAULT_NODE_MAX)
        _check_depth(depth)
        if branching < 1:
            raise ArenaError("early terminal - lacks a taboo tag (partition)", ())
        # Every node above the bound has the same child labels, one shared tuple.
        inner = sum(branching**d for d in range(depth))
        labels = [tuple(range(branching))] * inner + [()] * branching**depth
        ordered = _positions_below([()], labels, 0)
        return cls._from_ids(depth, ordered, labels, bytearray(len(labels)))

    def positions(self) -> tuple[Position, ...]:
        """All positions in canonical order (by length, then lexicographic)."""
        return self._ordered

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

    def taboo_items(self) -> Iterator[tuple[Position, Player]]:
        for position, tag in zip(self._ordered, self._tags):
            if tag:
                yield position, _OWNERS[tag]

    def full_depth_plays(self) -> Iterator[Position]:
        """The depth-bound plays, i.e. the stand-ins for infinite plays."""
        return iter(self._ordered[self._levels[self.depth] :])

    def _id(self, position: Position) -> int:
        """The id of a stored position, found by descending the child ranges."""
        first, labels_of = self._first, self._labels
        i = 0
        for label in position:
            i = first[i] + labels_of[i].index(label)
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


# The player to move at a depth, by its parity: I at even depths, II at odd.
_TO_MOVE = (Player.I, Player.II)
# A taboo tag byte names its owner; 0 is untagged.
_OWNERS = (None, Player.I, Player.II)
# The two ways a play is won: a taboo by the opponent of its owner, read by
# tag byte (``None`` on the untagged byte), and a full-depth play by I iff it
# is in the payoff, read by its ``Plays`` byte.
_TABOO_WINNER = tuple(owner and owner.opponent for owner in _OWNERS)
_PLAY_WINNER = (Player.II, Player.I)
_UNTAGGED = bytes([1]) + bytes(255)  # a ``translate`` table: 1 on the untagged byte
_FLIP = bytes([1, 0]) + bytes(254)  # a ``translate`` table: swaps 0 and 1


class Plays(Set):
    """A set of full-depth plays of one tree: ``mask`` holds one byte per
    full-depth id, 1 on the plays in the set, so the play with id ``i`` is
    at ``mask[i - tree._levels[tree.depth]]`` and iteration follows the
    canonical order.  It is read-only and compares, hashes and combines as
    the frozenset of its plays would: ``==``, ``&``, ``|``, ``-`` and ``^``
    work with frozensets on either side and give frozensets.  Anything that
    is not a full-depth play of the tree, of any shape, is not ``in`` it.
    ``~`` is the complement within the tree's full-depth plays.
    """

    __slots__ = ("tree", "mask")

    def __init__(self, tree: GameTree, mask: bytes):
        self.tree = tree
        self.mask = mask

    def __contains__(self, play: object) -> bool:
        tree = self.tree  # by id: a position shorter than the bound has an id below the plays'
        if isinstance(play, tuple) and len(play) == tree.depth:
            with suppress(ValueError):  # a label that is not a child's
                return self.mask[tree._id(play) - tree._levels[tree.depth]] == 1
        return False

    def __iter__(self) -> Iterator[Position]:
        tree = self.tree
        return compress(tree._ordered[tree._levels[tree.depth] :], self.mask)

    def __len__(self) -> int:
        return self.mask.count(1)

    __hash__ = Set._hash  # the hash of the frozenset of its plays

    def __and__(self, other):
        # Against a set, the frozenset of its plays intersects in C; the
        # mixin calls ``__contains__`` once per member of ``other``.
        if isinstance(other, (set, frozenset)):
            return frozenset(self) & other
        return Set.__and__(self, other)

    __rand__ = __and__

    def __invert__(self) -> "Plays":
        return Plays(self.tree, self.mask.translate(_FLIP))

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)


def _as_plays(tree: GameTree, payoff: Iterable[Position]) -> Plays:
    """A payoff set as a ``Plays`` of ``tree``: a ``Plays`` of this very
    tree as it is, any other set of positions read once into a set and
    marked by one pass over the tree's full-depth plays (pairwise unequal,
    so all members are plays iff each is marked), else a ``ValueError``."""
    if payoff.__class__ is Plays and payoff.tree is tree:
        return payoff
    if not isinstance(payoff, Collection):  # an iterator is read once
        payoff = tuple(payoff)
    with suppress(TypeError):  # an unhashable member, named below
        members = payoff if isinstance(payoff, (set, frozenset)) else frozenset(payoff)
        mask = bytes(map(members.__contains__, tree.full_depth_plays()))
        if mask.count(1) == len(members):
            return Plays(tree, mask)
    everything = ~Plays(tree, bytes(len(tree._ordered) - tree._levels[tree.depth]))
    stray = next(member for member in payoff if member not in everything)
    name = format_position(stray) if isinstance(stray, (tuple, list)) else repr(stray)
    raise ValueError(f"payoff member {name} is not a full-depth play")


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Boolean verdict plus the first counterexample found, if any."""

    ok: bool
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASSED = CheckResult(True)  # the verdict of every check that passes with no detail


class _NoChoice(ValueError):
    """A strategy was read where it has no choice: it is not total."""


def _no_choice(position: Position) -> _NoChoice:
    return _NoChoice(f"strategy has no choice at {format_position(position)} (not total)")


def _missing(ordered: tuple[Position, ...], i: int) -> int:
    """The read of a choice that is not there: a ``_NoChoice``."""
    raise _no_choice(ordered[i])


class Choices(Mapping):
    """The choices of a strategy of ``owner`` on ``tree``, by node id:
    ``picks`` holds one child index per id, read only at the owner's
    decision ids, so the choice at id ``i`` is ``tree._labels[i][picks[i]]``.

    It is a read-only ``Mapping`` from the owner's decision positions to
    child labels, iterated in canonical order, and compares as the dict of
    its items.  An entry below 0 is not known yet: with ``fill``, a
    function of the id that computes the index, stores it in ``picks`` and
    returns it, every decision position is a key and an unknown one is
    computed on its first read; without ``fill``, the keys are the
    positions with a known index, and a kernel that needs a choice at any
    other decision raises a ``ValueError`` naming it (not total).  Only the
    position API below reads the tree's position table (``_key``) and
    descends the tree; the kernels read ``picks`` by id and call ``_read``
    on an entry below 0.
    """

    __slots__ = ("tree", "owner", "picks", "_fill", "_read")

    def __init__(self, tree: GameTree, owner: Player, picks: list[int], fill=None):
        self.tree = tree
        self.owner = owner
        self.picks = picks
        self._fill = fill
        self._read = tree._missing_choice if fill is None else fill

    def _pick(self, i: int) -> int:
        """The child index at decision id ``i``, computed if unknown."""
        pick = self.picks[i]
        return pick if pick >= 0 else self._read(i)

    def _ids(self) -> Iterator[int]:
        """The ids of the keys, in canonical order."""
        ids = _decision_ids(self.tree, self.owner)
        return iter(ids) if self._fill is not None else filter(self._known, ids)

    def _known(self, i: int) -> bool:
        return self.picks[i] >= 0

    def _has(self, i: int) -> bool:
        """Whether the node with id ``i``, one of the owner's depth, has a
        choice: it has children, and a known index or a ``fill``."""
        return bool(self.tree._labels[i]) and (self._fill is not None or self.picks[i] >= 0)

    def _key(self, position) -> int:
        """The id of ``position`` if it is a key, else -1: a key is a
        position with children in the tree's position table, at a depth
        where the owner moves, so an unhashable position is a ``TypeError``,
        as in a dict."""
        if not self.tree._children.get(position) or _TO_MOVE[len(position) % 2] is not self.owner:
            return -1
        i = self.tree._id(position)
        return i if self._has(i) else -1

    def __getitem__(self, position: Position) -> Label:
        i = self._key(position)
        if i < 0:
            raise KeyError(position)
        return self.tree._labels[i][self._pick(i)]

    def get(self, position: Position, default=None):
        i = self._key(position)
        return default if i < 0 else self.tree._labels[i][self._pick(i)]

    def __contains__(self, position: object) -> bool:
        return self._key(position) >= 0

    def __iter__(self) -> Iterator[Position]:
        return map(self.tree._ordered.__getitem__, self._ids())

    def __len__(self) -> int:
        return sum(1 for _ in self._ids())

    def items(self) -> ItemsView:
        return _ChoiceItems(self)


class _ChoiceItems(ItemsView):
    """The items of a ``Choices``, read by id."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[Position, Label]]:
        choices = self._mapping
        ordered, labels = choices.tree._ordered, choices.tree._labels
        pick = choices._pick
        return ((ordered[i], labels[i][pick(i)]) for i in choices._ids())


def _as_choices(tree: GameTree, strategy: "Strategy") -> Choices:
    """A strategy's choices as a ``Choices`` of ``tree``: those of this very
    tree and owner as they are, any other mapping read by position on
    each first read, so a choice it lacks (a ``KeyError``), or a label
    that is not a child's, is a ``ValueError`` at the read that needs it."""
    choices, owner = strategy.choices, strategy.owner
    if choices.__class__ is Choices and choices.tree is tree and choices.owner is owner:
        return choices
    ordered, labels_of = tree._ordered, tree._labels
    picks = [-1] * len(ordered)

    def fill(i: int) -> int:
        try:
            label = choices[ordered[i]]
        except KeyError:
            raise _no_choice(ordered[i]) from None
        try:
            pick = picks[i] = labels_of[i].index(label)
        except ValueError:
            raise ValueError(f"unknown position {format_position(ordered[i] + (label,))}") from None
        return pick

    return Choices(tree, owner, picks, fill)


@dataclass(frozen=True, eq=True, slots=True)
class Strategy:
    """Total choice function for one player.

    ``choices`` is a read-only ``Mapping`` from every non-terminal position
    of the owner's parity to the label of the chosen child.  Totality keeps
    consistency checks and play enumeration decidable; unreachable positions
    simply carry a default choice.  Every strategy the package makes holds
    a ``Choices``, by node id; the kernels take any other mapping too and
    convert it once (``_as_choices``), which reads it by position, a
    missing choice a ``ValueError`` (not total).  ``choices`` is never
    mutated after construction (a variant is a new strategy), so a
    strategy map may remember a strategy by identity; a mapped strategy's
    choices may be computed on first read (see ``unraveling.unravel``).
    """

    owner: Player
    choices: Mapping[Position, Label]


def _decision_ids(tree: GameTree, owner: Player, within: bytes | None = None):
    """The ids of the owner's non-terminal nodes, in canonical order: the
    nodes with child labels on each level where the owner moves, one list
    per tree and owner, made on first use.  With ``within``, a byte per
    id, an iterator over only the ids it marks: each level is compressed
    by it first, so a sparse region costs little."""
    levels, labels = tree._levels, tree._labels
    if within is None:
        ids = tree._owned.get(owner)
        if ids is None:
            owned = range(_TO_MOVE.index(owner), tree.depth, 2)
            ids = tree._owned[owner] = [
                i
                for d in owned
                for i in compress(range(levels[d], levels[d + 1]), labels[levels[d] : levels[d + 1]])
            ]
        return ids
    marked = chain.from_iterable(
        compress(range(levels[d], levels[d + 1]), within[levels[d] : levels[d + 1]])
        for d in range(_TO_MOVE.index(owner), tree.depth, 2)
    )
    return filter(labels.__getitem__, marked)


def _draw_rows(tree: GameTree, owner: Player) -> list[tuple[int, int, int]]:
    """Per decision id of the owner (``_decision_ids``): the id, its child
    count and that count's bit length; one list per tree and owner."""
    rows = tree._owned.get((owner, "draw"))
    if rows is None:
        labels = tree._labels
        rows = tree._owned[owner, "draw"] = [
            (i, len(labels[i]), len(labels[i]).bit_length()) for i in _decision_ids(tree, owner)
        ]
    return rows


def _draw(rng: random.Random, picks: list[int], rows: Iterable[tuple[int, int, int]]) -> None:
    """One uniform draw per row of ``_draw_rows``, in order, into ``picks``:
    the one ``rng.choice(labels)`` makes, written out.  With ``n``
    children, ``rng.getrandbits(n.bit_length())`` until the result is below
    ``n``, the index of the choice, so the draws, and the state ``rng`` is
    left in, are those of one ``rng.choice`` per id in turn."""
    getrandbits = rng.getrandbits
    for i, n, bits in rows:
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        picks[i] = r


def random_strategy(rng: random.Random, tree: GameTree, owner: Player) -> Strategy:
    """A total strategy with one uniform draw per decision position, in
    canonical order, on ``rng.choice``'s stream (``_draw``)."""
    picks = [-1] * len(tree._ordered)
    _draw(rng, picks, _draw_rows(tree, owner))
    return Strategy(owner, Choices(tree, owner, picks))


def _descend(tree: GameTree, position: Position, choices: Choices) -> tuple[int, bool]:
    """The id of ``position`` in ``tree``, found by descending the child
    ranges, and whether the owner's moves along it follow ``choices``, a
    ``Choices`` of ``tree`` (a decision without a choice does not); the
    id is -1 if ``position`` is not a node."""
    first, labels_of, picks = tree._first, tree._labels, choices.picks
    owner_moves = _TO_MOVE.index(choices.owner) == 0  # at the next depth
    i, follows = 0, True
    for label in position:
        try:
            c = labels_of[i].index(label)
        except ValueError:  # a label that is not a child's
            return -1, False
        if owner_moves and follows:
            pick = picks[i]
            if pick < 0:
                try:
                    pick = choices._read(i)
                except _NoChoice:
                    pick = -1
            follows = pick == c
        owner_moves = not owner_moves
        i = first[i] + c
    return i, follows


def _consistent_ids(tree: GameTree, strategy: Strategy) -> list[int]:
    """The ids of the plays consistent with the strategy, depth first, least
    child first; the owner's moves are read by id (``_as_choices``)."""
    first = tree._first
    choices = _as_choices(tree, strategy)
    picks, read = choices.picks, choices._read
    out: list[int] = []
    # The stack holds only nodes where the owner moves: each step follows
    # the owner's move and pushes every reply of the opponent, least on top.
    if _TO_MOVE[0] is strategy.owner:
        stack = [0]
    elif first[0] == first[1]:  # a terminal root
        return [0]
    else:
        stack = list(range(first[1] - 1, first[0] - 1, -1))
    while stack:
        i = stack.pop()
        lo = first[i]
        if lo == first[i + 1]:
            out.append(i)
            continue
        c = picks[i]
        i = lo + (c if c >= 0 else read(i))
        lo, hi = first[i], first[i + 1]
        if lo == hi:
            out.append(i)
        else:
            stack += range(hi - 1, lo - 1, -1)
    return out


def consistent_plays(tree: GameTree, strategy: Strategy) -> tuple[Position, ...]:
    """All plays consistent with the strategy, branching only over the opponent.

    Never empty: the tree is finite and the strategy total, so following it
    always terminates.
    """
    ordered = tree._ordered
    return tuple(ordered[i] for i in _consistent_ids(tree, strategy))


def is_winning_strategy(tree: GameTree, payoff, strategy: Strategy) -> CheckResult:
    """Passes iff every play consistent with the strategy is a win for its
    owner; a failure names the first lost play in ``consistent_plays`` order."""
    mask = _as_plays(tree, payoff).mask
    tags, owner, plays = tree._tags, strategy.owner, tree._levels[tree.depth]
    for i in _consistent_ids(tree, strategy):
        # The two winner tables: an early terminal's taboo tag (``GameTree``
        # tags every one), else the play's byte in the payoff mask.
        if (_TABOO_WINNER[tags[i]] or _PLAY_WINNER[mask[i - plays]]) is not owner:
            return CheckResult(False, f"loses play {format_position(tree._ordered[i])}")
    return _PASSED
