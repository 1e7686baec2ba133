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

The labels are tagged tuples: ``Claim(move, claimed)`` is
``(1, move, claimed)``, ``Accept(move)`` is ``(2, move)`` and
``Challenge(target, move)`` is ``(3, target, move)``.  A source holds
claims only at level k, replies only at k + 1 and its target's labels
everywhere else, so tuple order is its canonical order: the claims on a
move by their claimed positions, and accepts before challenges.

The construction writes its source in id form (see ``unraveling.core``),
breadth first and so already in canonical order: each node gets its id
when its parent is walked, and its child labels and tag are its target
image's unless it is a claim, a reply, a cut frontier position or a node
on a challenged chain.  Before any node is written the frontier of every
move is read off the generator marks, in the reverse pass that sums the
target's subtree sizes, and the source's exact node count is summed move
by move from them, so either cap fails at the same move, with the same
message, as if the nodes were built one by one.

``unravel_payoff`` unravels any payoff expression by induction: unions
stack their parts' coverings at climbing identity levels and finish with
one more base covering over the decided complement of the pulled-back
union; a complement reuses its operand's covering.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import count, islice
from operator import itemgetter

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
    format_position,
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
    _banned,
    _complement_generators,
    decided_by_depth,
    map_closed,
    realize,
)

DEFAULT_FRONTIER_MAX = 10


def _fields(label: tuple) -> tuple:
    """A tagged label's constructor arguments: everything past its tag, so
    copies and pickles rebuild it through its constructor."""
    return label[1:]


class Claim(tuple):
    """First player's decorated move: a base move plus the claimed frontier
    part, the tuple ``(1, move, claimed)``."""

    __slots__ = ()
    move = property(itemgetter(1))
    claimed = property(itemgetter(2))
    __getnewargs__ = _fields

    def __new__(cls, move: Label, claimed: tuple[Position, ...]):
        return tuple.__new__(cls, (1, move, claimed))

    def __str__(self) -> str:
        inner = ",".join(format_position(q) for q in self.claimed)
        return f"{self.move}[{inner}]"


class Accept(tuple):
    """Second player accepts the claim and plays a base move: ``(2, move)``."""

    __slots__ = ()
    move = property(itemgetter(1))
    __getnewargs__ = _fields

    def __new__(cls, move: Label):
        return tuple.__new__(cls, (2, move))

    def __str__(self) -> str:
        return f"acc({self.move})"


class Challenge(tuple):
    """Second player challenges one claimed position; the move toward it is
    forced: ``(3, target, move)``."""

    __slots__ = ()
    target = property(itemgetter(1))
    move = property(itemgetter(2))
    __getnewargs__ = _fields

    def __new__(cls, target: Position, move: Label):
        return tuple.__new__(cls, (3, target, move))

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
    of the set a game asks to solve for; if not, the first play (in id
    order, so the least) on which the two differ is named with the side it
    is on."""
    source, reply = covering.source, covering.level + 1
    pulled = pullback(covering, realize(covering.target, Closed(covering.spec))).mask
    accepts = bytes(isinstance(leaf[reply], Accept) for leaf in source.full_depth_plays())
    if pulled == accepts:
        return CheckResult(True)
    n = next(n for n, (a, b) in enumerate(zip(pulled, accepts)) if a != b)
    play = source._ordered[source._levels[source.depth] + n]
    side = "pullback, not the accept set" if pulled[n] else "accept set, not the pullback"
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

    The source is written breadth first, level by level: up to ``level``
    the target's own nodes and ids, then the claims on each move in the
    order of their claimed index tuples, then each claim's accepts in
    base-label order and its challenges in claimed order, then the copies.
    Both caps are checked first, from the exact node count of each move's
    claims (see ``_checked_frontiers``).  Each node's target image id is
    recorded when the node is written, and that array is the covering's
    position map.
    """
    if level < 0:
        raise ValueError(f"level {level} is negative")
    k = level + level % 2
    if k + 2 > tree.depth:
        raise ValueError(f"level {k} needs depth {k + 2}, bound is {tree.depth}")
    banned = _banned(tree, spec)  # checks the generators first
    floor = _generator_floor(k, tree.depth)
    for generator in spec.generators:
        if len(generator) < floor:
            raise ValueError(
                f"generator {format_position(generator)} too shallow for level {k}"
                f" (need depth >= {floor})"
            )
    ordered, first, labels_of, tags = tree._ordered, tree._first, tree._labels, tree._tags
    at_k, moves = tree._levels[k], tree._levels[k + 1]  # the first level-k id and the first move
    fronts = _checked_frontiers(tree, banned, k, frontier_max, node_max)

    # A node copies the child labels and the tag of its image unless
    # ``labels_at`` or ``tags_at`` names others.
    out: list[Position] = list(ordered[:moves])  # source positions by id
    images = array("i", range(moves))  # target image ids by source id
    labels_at: dict[int, tuple[Label, ...]] = {}
    tags_at: dict[int, int] = {}
    frontiers: dict[tuple[Position, Label], tuple[Position, ...]] = {}
    accepts: dict[Label, Accept] = {}
    challenges: dict[Position, Challenge] = {}

    # The claims on a move come in the order of their claimed index tuples:
    # the frontier is in lexicographic order, so that is the label order.
    claim_rows = []  # per claim: its move's (id, frontier ids, accepts, challenges), claimed indices
    for i in range(at_k, moves):
        p = ordered[i]
        claims = []
        for base, a in zip(range(first[i], first[i + 1]), labels_of[i]):
            front_ids = fronts[base - moves]
            front = tuple(ordered[q] for q in front_ids)
            frontiers[(p, a)] = front
            row = (
                base,
                front_ids,
                tuple(accepts.setdefault(b, Accept(b)) for b in labels_of[base]),
                [challenges.setdefault(q, Challenge(q, q[k + 1])) for q in front],
            )
            for claimed in sorted(_subsets_counter(range(len(front)))):
                claim = Claim(a, tuple(front[n] for n in claimed))
                claims.append(claim)
                out.append(p + (claim,))
                images.append(base)
                claim_rows.append((row, claimed))
        labels_at[i] = tuple(claims)

    # A claim's replies: its accepts in base-label order, each copying the
    # child it names with the claim's verdicts cut in, then its challenges
    # in claimed order, each following the chain to its claimed position
    # and copying that whole.  Claimed frontier positions are losses for
    # the second player, unclaimed ones concessions by the first.
    against_i, against_ii = _OWNERS.index(Player.I), _OWNERS.index(Player.II)
    whole: dict[int, int] = {}  # the verdicts of a whole copy: none
    branches: list = []  # by id from level k + 2 on: verdicts, or the chain's end
    for i, ((base, front_ids, kept, replies), claimed) in enumerate(claim_rows, moves):
        position, lo, base_labels = out[i], first[base], labels_of[base]
        verdicts = dict.fromkeys(front_ids, against_i)
        verdicts.update((front_ids[n], against_ii) for n in claimed)
        out += [position + (reply,) for reply in kept]
        images.extend(range(lo, lo + len(kept)))
        branches += [verdicts] * len(kept)
        chosen = tuple(replies[n] for n in claimed)
        for reply in chosen:
            out.append(position + (reply,))
            images.append(lo + base_labels.index(reply.move))
            branches.append(reply.target if len(reply.target) > k + 2 else whole)
        labels_at[i] = kept + chosen

    # Every later node copies its image: whole or up to the verdicts cut in,
    # or, on a challenged chain, only the move toward the chain's end.
    start = moves + len(claim_rows)
    walk = zip(count(start), islice(out, start, None), islice(images, start, None), branches)
    for i, position, image, branch in walk:  # the lists grow while they are walked
        if branch.__class__ is dict:
            verdict = branch.get(image)
            if verdict is not None:
                labels_at[i], tags_at[i] = (), verdict
                continue
            labels = labels_of[image]
            if labels:
                lo = first[image]
                out += [position + (label,) for label in labels]
                images.extend(range(lo, lo + len(labels)))
                branches += [branch] * len(labels)
        else:
            labels = labels_of[image]
            if not labels:
                raise InternalInvariantError(
                    f"terminal position {format_position(ordered[image])} on a challenged chain"
                )
            move = branch[len(position)]
            labels_at[i] = (move,)
            out.append(position + (move,))
            images.append(first[image] + labels.index(move))
            branches.append(branch if len(position) + 1 < len(branch) else whole)
    del branches, claim_rows

    out_labels = list(map(labels_of.__getitem__, images))
    for i, labels in labels_at.items():
        out_labels[i] = labels
    out_tags = bytearray(map(tags.__getitem__, images))
    for i, tag in tags_at.items():
        out_tags[i] = tag
    source = GameTree._from_ids(tree.depth, out, out_labels, out_tags)
    transform, lift = _strategy_maps(tree, k, frontiers, accepts, challenges)
    return BaseCovering(source, tree, k, images, transform, lift, frontiers, spec)


def _checked_frontiers(
    tree: GameTree, banned: bytearray, k: int, frontier_max: int, node_max: int
) -> list[list[int]]:
    """The frontier ids of every move on a level-``k`` node, in move order,
    checked against both caps in the order the construction meets them.
    One reverse pass over the ids past the moves finds subtree sizes and
    ``meets``, the nodes the closed set passes through: a full-depth play
    that is not ``banned`` (``_banned``), or a node with such a child.

    The source counts its nodes up to level ``k``, then, move by move,
    checks the move's frontier and adds the nodes of its claims; either cap
    fails at the first move past it, before any node is built.  A claim on
    move ``b`` with claimed set S has 1 node, plus the accept copies of the
    children of ``b`` (a subtree where a node outside ``meets`` is a leaf:
    its frontier is cut), plus for each claimed ``q`` the chain of
    ``len(q) - (k + 2)`` nodes down to it and its whole subtree.  Summed
    over the subsets S of the frontier, each ``q`` is in half of them.
    """
    ordered, first, levels = tree._ordered, tree._first, tree._levels
    moves = levels[k + 1]
    below = levels[k + 2]  # the first id past the moves
    plays = levels[tree.depth]  # the first full-depth play
    total = moves
    if total > node_max:
        raise ResourceLimitError(f"covering source exceeds {node_max} nodes")
    size = [1] * len(ordered)  # subtree sizes by id, past the moves
    cut = [1] * len(ordered)  # the same with a node outside ``meets`` a leaf
    meets = bytearray(len(ordered))  # 1 where a play of the closed set passes
    for i in range(len(ordered) - 1, below - 1, -1):
        lo, hi = first[i], first[i + 1]
        if lo < hi:
            size[i] += sum(size[lo:hi])
            if meets.find(1, lo, hi) >= 0:
                meets[i] = 1
                cut[i] += sum(cut[lo:hi])
        elif i >= plays and not banned[i]:
            meets[i] = 1
    fronts = []
    for base in range(moves, below):
        front = _frontier(tree, meets, base)
        if len(front) > frontier_max:
            raise ResourceLimitError(
                f"frontier size {len(front)} exceeds cap {frontier_max}"
                f" at {format_position(ordered[base])}"
            )
        claims = 1 << len(front)
        accepted = sum(cut[first[base] : first[base + 1]])
        chains = sum(len(ordered[q]) - (k + 2) + size[q] for q in front)
        total += claims * (1 + accepted) + claims // 2 * chains
        if total > node_max:
            raise ResourceLimitError(f"covering source exceeds {node_max} nodes")
        fronts.append(front)
    return fronts


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

    The two maps share one record of the last strategy seen, by identity
    (a strategy's choices never change), with its locator and its image,
    so a check that maps a strategy and then lifts its plays maps it once,
    scans II's replies once, and keeps the choices already computed.
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

    last = (None, None, None)  # the last strategy seen, its locate and its image

    def mapped(strategy: Strategy):
        nonlocal last
        if last[0] is not strategy:  # identity, not ==: strategies compare whole dicts
            locate = locator(strategy)
            last = (strategy, locate, image(strategy, locate))
        return last

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

    def transform(strategy: Strategy) -> Strategy:
        return mapped(strategy)[2]

    def lift(strategy: Strategy, x: Position) -> Position:
        return x if len(x) <= k else mapped(strategy)[1](x)[0]

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
    a complement takes its operand's covering and depth.  A union is
    realized first (a byte operation), so a bad generator fails before any
    stage is built; part ``n``, pulled back through the composite so far,
    unravels at the smallest even level at least ``level + n``; the
    complement of the pulled-back union is then closed at the deepest depth
    the parts return, and one more base covering at ``level`` finishes.
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
    leaves = realize(tree, payoff)  # checks every part's generators first
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

    union_leaves = pullback(composite, leaves)
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
