"""Unraveling: decorated claim games, and the induction over payoff expressions.

Given a structurally closed payoff set, the base construction builds a
covering whose pulled-back payoff is decided two levels past the covering's
identity level.  At the first decorated level the first player augments a
move with a *claimed* subset of the move's frontier; the second player
either accepts (play continues normally but stops with a taboo verdict the
moment a frontier position is reached) or challenges one claimed position
(play is then confined to its subtree).  One subtree copy builds both
branches, and every claim on a move shares the same reply objects: one
``Accept`` per base move and one ``Challenge`` per frontier position.  The
strategy maps reuse them, and read player II's replies to the claims on a
move in a single scan.

The *frontier* of a move is the antichain of minimal non-terminal
extensions from whose subtrees the payoff set is unreachable: the claimed
subset is exactly the part of the frontier the first player asserts they
can still win through taboos.

``unravel_payoff`` unravels any payoff expression by induction: unions
stack their parts' coverings at climbing identity levels and finish with
one more base covering over the decided complement of the pulled-back
union; a complement reuses its operand's covering.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .core import (
    DEFAULT_NODE_MAX,
    CheckResult,
    GameTree,
    InternalInvariantError,
    Label,
    Player,
    Position,
    ResourceLimitError,
    Strategy,
    _OWNERS,
    format_label,
    format_position,
    label_key,
    position_key,
)
from .covering import (
    Covering,
    compose,
    pullback,
    pullback_closed_spec,
)
from .payoff import (
    Closed,
    ClosedSpec,
    ClosedUnion,
    Not,
    PayoffSpec,
    Union,
    _complement_generators,
    decided_by_depth,
    map_closed,
    realize,
)

DEFAULT_FRONTIER_MAX = 10


class _KeptKeys:
    """Shared part of the structured labels below.

    A label's hash is computed once, when the label is built, and its sort
    key on first use; both are kept.  Labels nest (a claimed position holds
    earlier labels), so recomputing either would walk the whole nesting on
    every dict lookup and every sort.  The key is lazy because the strategy
    transform builds many short-lived labels it only looks up.
    """

    def sort_key(self) -> tuple:
        try:
            return self._sort_key
        except AttributeError:
            key = self._compute_sort_key()
            object.__setattr__(self, "_sort_key", key)
            return key


@dataclass(frozen=True)
class Claim(_KeptKeys):
    """First player's decorated move: a base move plus the claimed frontier part."""

    move: Label
    claimed: tuple[Position, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.move, self.claimed)))

    def __hash__(self) -> int:
        return self._hash

    def _compute_sort_key(self) -> tuple:
        return (1, label_key(self.move), tuple(position_key(q) for q in self.claimed))

    def __str__(self) -> str:
        inner = ",".join(format_position(q) for q in self.claimed)
        return f"{format_label(self.move)}[{inner}]"


@dataclass(frozen=True)
class Accept(_KeptKeys):
    """Second player accepts the claim and plays a base move."""

    move: Label

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.move,)))

    def __hash__(self) -> int:
        return self._hash

    def _compute_sort_key(self) -> tuple:
        return (2, label_key(self.move))

    def __str__(self) -> str:
        return f"acc({format_label(self.move)})"


@dataclass(frozen=True)
class Challenge(_KeptKeys):
    """Second player challenges one claimed position; the move toward it is forced."""

    target: Position
    move: Label

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.target, self.move)))

    def __hash__(self) -> int:
        return self._hash

    def _compute_sort_key(self) -> tuple:
        return (3, position_key(self.target), label_key(self.move))

    def __str__(self) -> str:
        return f"chal({format_position(self.target)})"


def _subsets_counter(items) -> Iterator[tuple]:
    """All subsets of an ordered sequence, in binary-counter order."""
    for mask in range(1 << len(items)):
        yield tuple(item for i, item in enumerate(items) if mask >> i & 1)


def _generator_floor(k: int, depth: int) -> int:
    """Minimum generator depth for a level-``k`` base covering.

    Frontier truncation happens at level ``k + 2``.  While that lies below
    the depth bound, a play reaching full depth under any generator would
    pass a non-terminal level-``k + 2`` position of a payoff-free subtree,
    which is itself a frontier member, so the play is truncated first: any
    generator depth is sound.  When ``k + 2`` equals the bound the would-be
    frontier positions are terminal and excluded, truncation never happens,
    and only generators too deep to exist would keep the accept branch
    honest.
    """
    return 1 if k + 2 < depth else k + 2


def _meets(tree: GameTree, payoff_leaves) -> bytearray:
    """By id, 1 on every node some play of the payoff set passes through:
    one reverse pass, children before parents."""
    ordered, first = tree._ordered, tree._first
    meets = bytearray(len(ordered))
    for i in range(len(ordered) - 1, -1, -1):
        lo, hi = first[i], first[i + 1]
        if lo < hi:
            meets[i] = meets.find(1, lo, hi) >= 0
        elif ordered[i] in payoff_leaves:
            meets[i] = 1
    return meets


def _frontier(tree: GameTree, meets: bytearray, start: int) -> list[int]:
    """The frontier below node ``start``: the ids of its minimal non-terminal
    extensions outside ``meets``.  Depth first, least child first, so the
    antichain comes out in lexicographic order."""
    first = tree._first
    out = []
    stack = list(range(first[start + 1] - 1, first[start] - 1, -1))
    while stack:
        i = stack.pop()
        lo, hi = first[i], first[i + 1]
        if meets[i]:
            stack.extend(range(hi - 1, lo - 1, -1))
        elif lo < hi:
            out.append(i)
    return out


@dataclass(frozen=True)
class BaseCovering(Covering):
    """A base-construction covering plus its per-move frontier tables and
    the closed set it was built for."""

    frontiers: Mapping[tuple[Position, Label], tuple[Position, ...]]
    spec: ClosedSpec


def check_accept_set(covering: BaseCovering) -> CheckResult:
    """The pullback of the closed set a base covering was built for is
    exactly the full-depth plays of its accept branch, whichever orientation
    of the set a game asks to solve for; if not, one play on which the two
    differ is named with the side it is on."""
    pulled = pullback(covering, realize(covering.target, Closed(covering.spec)))
    accepts = frozenset(
        leaf
        for leaf in covering.source.full_depth_plays()
        if isinstance(leaf[covering.level + 1], Accept)
    )
    if pulled == accepts:
        return CheckResult(True)
    play = min(pulled ^ accepts, key=position_key)
    side = "pullback, not the accept set" if play in pulled else "accept set, not the pullback"
    return CheckResult(False, f"play {format_position(play)} is in the {side}")


def build_base_covering(
    tree: GameTree,
    spec: ClosedSpec,
    level: int,
    *,
    frontier_max: int = DEFAULT_FRONTIER_MAX,
    node_max: int = DEFAULT_NODE_MAX,
) -> BaseCovering:
    """The base covering unraveling the closed set realized by ``spec``.

    An odd level is rounded up (a deeper identity level is a fortiori also
    the shallower covering).  Any full-depth play with no frontier prefix
    avoids every generator (see ``_generator_floor``), so the pulled-back
    payoff is exactly the accept-branch full-depth plays and is decided at
    ``level + 2``; the same certificate covers the complement.
    """
    if level < 0:
        raise ValueError(f"level {level} is negative")
    k = level + level % 2
    if k + 2 > tree.depth:
        raise ValueError(f"level {k} needs depth {k + 2}, bound is {tree.depth}")
    leaves = realize(tree, Closed(spec))  # checks the generators first
    floor = _generator_floor(k, tree.depth)
    for generator in spec.generators:
        if len(generator) < floor:
            raise ValueError(
                f"generator {format_position(generator)} too shallow for level {k}"
                f" (need depth >= {floor})"
            )
    meets = _meets(tree, leaves)
    ordered, first, labels_of, tags = tree._ordered, tree._first, tree._labels, tree._tags

    children: dict[Position, list] = {}
    taboo: dict[Position, Player] = {}
    table: dict[Position, Position] = {}
    frontiers: dict[tuple[Position, Label], tuple[Position, ...]] = {}
    accepts: dict[Label, Accept] = {}
    challenges: dict[Position, Challenge] = {}

    def add(node: Position, image: int, tag: Player | None) -> list:
        """Store ``node`` with target node ``image`` as its image; its child list."""
        kids = children[node] = []
        table[node] = ordered[image]
        if tag is not None:
            taboo[node] = tag
        if len(children) > node_max:
            raise ResourceLimitError(f"covering source exceeds {node_max} nodes")
        return kids

    def copy(node, image, cut, path=()):
        """Copy the subtree at target node ``image`` below ``node``: a target
        node in ``cut`` is a terminal with the verdict it maps to, and above
        the end of ``path`` only the move along ``path`` is kept.

        Depth first with an explicit stack, so deep chains cannot hit the
        recursion limit; children are pushed in reverse so nodes are added
        in preorder, the order the position table keeps.
        """
        stack = [(node, image)]
        while stack:
            node, image = stack.pop()
            if image in cut:
                add(node, image, cut[image])
                continue
            kids = add(node, image, _OWNERS[tags[image]])
            lo, labels = first[image], labels_of[image]
            if len(node) < len(path):
                if not labels:
                    raise InternalInvariantError(
                        f"terminal position {format_position(ordered[image])}"
                        " on a challenged chain"
                    )
                move = path[len(node)]
                kids.append(move)
                stack.append((node + (move,), lo + labels.index(move)))
            else:
                kids.extend(labels)
                stack.extend((node + (labels[n],), lo + n) for n in reversed(range(len(labels))))

    level_k: list[int] = []
    for i, position in enumerate(ordered):
        if len(position) > k:
            break
        kids = add(position, i, _OWNERS[tags[i]])
        if len(position) < k:
            kids.extend(labels_of[i])
        else:
            level_k.append(i)

    for i in level_k:
        p = ordered[i]
        for base in range(first[i], first[i + 1]):
            base_child = ordered[base]
            a = base_child[-1]
            child_tag = _OWNERS[tags[base]]
            front_ids = _frontier(tree, meets, base)
            if len(front_ids) > frontier_max:
                raise ResourceLimitError(
                    f"frontier size {len(front_ids)} exceeds cap {frontier_max}"
                    f" at {format_position(base_child)}"
                )
            front = tuple(ordered[q] for q in front_ids)
            frontiers[(p, a)] = front
            challenges.update((q, Challenge(q, q[k + 1])) for q in front)
            for claimed_ids in _subsets_counter(front_ids):
                claimed = tuple(ordered[q] for q in claimed_ids)
                move = Claim(a, claimed)
                node = p + (move,)
                children[p].append(move)
                kids = add(node, base, child_tag)
                if child_tag is not None:
                    continue
                # Claim verdict: claimed frontier positions are losses for the
                # second player, unclaimed ones concessions by the first.
                verdicts = dict.fromkeys(front_ids, Player.I)
                verdicts.update(dict.fromkeys(claimed_ids, Player.II))
                lo = first[base]
                for n, b in enumerate(labels_of[base]):
                    reply = accepts.setdefault(b, Accept(b))
                    kids.append(reply)
                    copy(node + (reply,), lo + n, verdicts)
                for challenged in claimed:
                    reply = challenges[challenged]
                    kids.append(reply)
                    step = lo + labels_of[base].index(reply.move)
                    copy(node + (reply,), step, {}, challenged)

    source = GameTree(tree.depth, children, taboo)
    transform, lift = _strategy_maps(tree, k, frontiers, accepts, challenges)
    return BaseCovering(source, tree, k, table, transform, lift, frontiers, spec)


class _LazyChoices(Mapping):
    """The choices of a mapped strategy, each computed on its first lookup
    and then kept.  The keys are the owner's decision positions of the
    target (``GameTree.decisions``), so ``len``, iteration and ``in`` never
    compute a choice.

    ``Mapping.get`` reads a ``KeyError`` as "no choice", so one raised while
    a choice is computed (a source strategy that is not total) leaves as a
    ``ValueError`` naming the position instead.
    """

    __slots__ = ("_keys", "_choose", "_known")

    def __init__(self, keys: Mapping[Position, tuple[Label, ...]], choose):
        self._keys = keys
        self._choose = choose
        self._known: dict[Position, Label] = {}

    def __getitem__(self, position: Position) -> Label:
        try:
            return self._known[position]
        except KeyError:
            labels = self._keys[position]  # a KeyError here is "no choice"
        try:
            choice = self._known[position] = self._choose(position, labels)
        except KeyError:
            raise ValueError(
                f"mapped strategy has no choice at {format_position(position)}:"
                " the source strategy is not total"
            ) from None
        return choice

    def __iter__(self) -> Iterator[Position]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, position: object) -> bool:
        return position in self._keys


def _strategy_maps(tree: GameTree, k: int, frontiers, accepts, challenges):
    """The strategy map and the constructive lift of a base covering.

    Both rest on one locator: given a source strategy, ``locate(x)`` names
    the source node that a target position ``x`` past level ``k`` comes
    from, and whether it is exact.  The claim on the way is player I's own
    claim move (``(None, False)`` if ``x`` takes another move); for player
    II it is the claim of the frontier part II never challenges, unless
    ``x`` enters a frontier position II does challenge, where it is the
    first claim (binary-counter order) II answers with that challenge; one
    scan of II's replies to the claims on a move finds both.  Past a
    frontier position the owner gave up (unclaimed by I, claimed but
    unchallenged against II) the node is the one cut at that position, a
    taboo against the owner, and inexact.  The replies are the
    construction's own objects, ``accepts`` by move label and
    ``challenges`` by frontier position (its keys are every frontier
    position).  The transform follows the strategy at exact nodes and
    takes the least move elsewhere; the lift is the located node.

    The image is lazy: its choices are a ``_LazyChoices`` over the target's
    decision table, and each is located and computed on its first lookup,
    so a check that reads only the choices along consistent plays computes
    only those.  The invariant that player II's reply to the
    never-challenged claim is an accept is therefore checked when that
    choice is looked up, not when the strategy is mapped.

    The two maps remember the last strategy they saw, by identity (a
    strategy's choices never change), with its locator and its image, so a
    check that maps a strategy and then lifts its plays maps it once, scans
    II's replies once, and keeps the choices already computed.
    """

    def frontier_prefix(x: Position) -> Position | None:
        for end in range(k + 2, len(x) + 1):
            if x[:end] in challenges:
                return x[:end]  # the frontier is an antichain: first hit is the only one
        return None

    def locator(strategy: Strategy):
        first = strategy.owner is Player.I
        chosen = strategy.choices
        scans: dict = {}

        def scan(p: Position, a: Label) -> tuple[Claim, dict]:
            """II's replies to every claim on ``(p, a)``, read once: the claim
            of exactly the frontier part never challenged, and for each
            challenged position the first claim (binary-counter order)
            answered by challenging it."""
            found = scans.get((p, a))
            if found is None:
                front = frontiers[(p, a)]
                rebased: dict[Position, Claim] = {}
                if front:  # with nothing to claim there is nothing to challenge
                    for claimed in _subsets_counter(front):
                        claim = Claim(a, claimed)
                        reply = chosen[p + (claim,)]
                        if isinstance(reply, Challenge):
                            rebased.setdefault(reply.target, claim)
                quiet = Claim(a, tuple(q for q in front if q not in rebased))
                found = scans[(p, a)] = (quiet, rebased)
            return found

        def locate(x: Position) -> tuple[Position | None, bool]:
            p, a = x[:k], x[k]
            if first:
                claim = chosen[p]
                if claim.move != a:
                    return None, False  # off the described play
            else:
                claim, rebased = scan(p, a)
            if len(x) == k + 1:
                return p + (claim,), True
            hit = frontier_prefix(x)
            if hit is None:
                return p + (claim, accepts[x[k + 1]]) + x[k + 2 :], True
            if first and hit in claim.claimed:
                return p + (claim, challenges[hit]) + x[k + 2 :], True
            if not first and hit not in claim.claimed:
                if hit not in rebased:
                    raise InternalInvariantError("no claimed set challenges the position")
                return p + (rebased[hit], challenges[hit]) + x[k + 2 :], True
            return p + (claim, accepts[x[k + 1]]) + hit[k + 2 :], False

        return locate

    last = (None, None, None)  # the last strategy seen, its locate, its image once mapped

    def remembered(strategy: Strategy):
        nonlocal last
        if last[0] is not strategy:  # identity, not ==: strategies compare whole dicts
            last = (strategy, locator(strategy), None)
        return last[1]

    def transform(strategy: Strategy) -> Strategy:
        nonlocal last
        locate = remembered(strategy)
        if last[2] is None:
            last = (strategy, locate, image(strategy, locate))
        return last[2]

    def image(strategy: Strategy, locate) -> Strategy:
        chosen = strategy.choices

        def choose(x: Position, labels: tuple[Label, ...]) -> Label:
            n = len(x)
            if n < k:
                return chosen[x]
            if n == k:
                return chosen[x].move
            node, exact = locate(x)
            if not exact:
                return labels[0]  # off the play or past a conceded frontier
            choice = chosen[node]
            if n == k + 1:  # player II's reply to the never-challenged claim
                if not isinstance(choice, Accept):
                    raise InternalInvariantError(
                        "reply to the never-challenged claim must be an accept"
                    )
                return choice.move
            return choice

        return Strategy(strategy.owner, _LazyChoices(tree.decisions(strategy.owner), choose))

    def lift(strategy: Strategy, x: Position) -> Position:
        return x if len(x) <= k else remembered(strategy)(x)[0]

    return transform, lift


def unravel_payoff(
    tree: GameTree,
    payoff: PayoffSpec,
    level: int,
    *,
    frontier_max: int = DEFAULT_FRONTIER_MAX,
    node_max: int = DEFAULT_NODE_MAX,
) -> tuple[Covering, int]:
    """Covering unraveling a payoff expression, plus the depth at which the
    pulled-back payoff is decided, by induction on the expression.

    A closed set is one base covering, decided two levels past ``level``;
    a complement takes its operand's covering and depth.  A union unravels
    part ``n``, pulled back through the composite so far, at the smallest
    even level at least ``level + n``; the complement of the pulled-back
    union is then closed at the deepest depth the parts return, and one
    more base covering at ``level`` finishes.
    """
    caps = dict(frontier_max=frontier_max, node_max=node_max)
    if isinstance(payoff, Closed):
        covering = build_base_covering(tree, payoff.spec, level, **caps)
        return covering, covering.level + 2
    if isinstance(payoff, Not):
        return unravel_payoff(tree, payoff.payoff, level, **caps)
    if not isinstance(payoff, Union):
        raise TypeError(f"not a payoff spec: {payoff!r}")

    k = level + level % 2
    composite: Covering | None = None
    current = tree
    deepest = 0
    for n, part in enumerate(payoff.parts):
        stage = k + n
        stage += stage % 2
        if composite is not None:
            part = map_closed(part, lambda spec: pullback_closed_spec(composite, spec))
        try:
            built, decided = unravel_payoff(current, part, stage, **caps)
        except ValueError as error:
            raise ValueError(f"stage {n}: {error}") from None
        composite = built if composite is None else compose(composite, built)
        current = composite.source
        deepest = max(deepest, decided)

    if len(payoff.parts) == 1:
        return composite, deepest

    union_leaves = pullback(composite, realize(tree, payoff))
    certificate = decided_by_depth(current, union_leaves, deepest)
    if not certificate:
        raise InternalInvariantError(
            f"pulled-back union not decided at the stage depth: {certificate.detail}"
        )
    complement = _complement_generators(current, union_leaves, deepest)
    finishing = build_base_covering(current, complement, k, **caps)
    return compose(composite, finishing), k + 2


def unravel_union(
    tree: GameTree,
    specs: Iterable[ClosedSpec],
    level: int,
    *,
    frontier_max: int = DEFAULT_FRONTIER_MAX,
    node_max: int = DEFAULT_NODE_MAX,
) -> tuple[Covering, int]:
    """``unravel_payoff`` on the union of ``specs``; kept only because the
    ``union`` bench workload calls and traces it under this name."""
    return unravel_payoff(
        tree, ClosedUnion(specs), level, frontier_max=frontier_max, node_max=node_max
    )
