"""Unraveling: decorated claim games, and the induction over payoff expressions.

Given a structurally closed payoff set, the base construction builds a
covering whose pulled-back payoff is decided two levels past the covering's
identity level.  At the first decorated level the first player augments a
move with a *claimed* subset of the move's frontier; the second player
either accepts (play continues normally but stops with a taboo verdict the
moment a frontier position is reached) or challenges one claimed position
(play is then confined to its subtree).  One subtree copy builds both
branches.  Every claim in a build shares the same accepts, one
``Accept`` per base move, and the accepts that answer a move are one
tuple per tuple of its child labels; the claims on one move share its
challenges, one ``Challenge`` per frontier position, which lies below
that move alone.  The strategy maps read strategies by node id: each
move's claims and frontier ids, kept as the build writes them, locate a
target node from its parent, and player II's replies to the claims on a
move are read in a single scan.

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

The construction writes its source in id form (see ``unraveling.core``)
one depth at a time, so already in canonical order.  A pass per level,
deepest first, marks where a play of the closed set passes (``_meets``).
Each move then gets its templates, built once from those marks: the
accept template holds, per depth, the runs of target ids its accept
copy holds, split only at the frontier nodes, which stay as leaves; a
challenge template holds the chain down to one frontier position and
then its subtree, one id range per depth.  Their lengths give the move's
exact node count, so either cap fails at the same move, with the same
message, as if the nodes were built one by one.  The claim order of a
frontier depends on its size alone, so it is one table per size for the
whole process (``_claim_order``), read only after the move passed both
caps; a move with an empty frontier has one claim, of nothing, and gets
no frontier work at all.  Below the claims each depth is the claims'
templates at that depth, written in claim order as target ids.  A
node's child labels and tag are its image's unless it is a level-k node
(its claims), a claim (its replies), a cut frontier node or a chain
node, and positions follow from their parents' positions and child
labels.

``unravel_payoff`` unravels any payoff expression by induction: unions
stack their parts' coverings at climbing identity levels and finish with
one more base covering over the decided complement of the pulled-back
union; a complement reuses its operand's covering.
"""

from __future__ import annotations

import functools
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import itemgetter, lt

from .core import (
    DEFAULT_NODE_MAX,
    LABELS_PER_NODE,
    ArenaError,
    CheckResult,
    Choices,
    GameTree,
    InternalInvariantError,
    Label,
    Player,
    Position,
    ResourceLimitError,
    Strategy,
    _FLIP,
    _NoChoice,
    _OWNERS,
    _as_choices,
    _check_label_budget,
    _positions_below,
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


@functools.cache
def _claim_order(size: int) -> tuple[tuple[int, ...], ...]:
    """The claimed index tuples of a frontier of ``size`` positions, in
    claim order (lexicographic).  Shared by every build in the process; a
    build asks for a size only once ``1 << size`` claims passed its node
    cap, so no table holds more claims than that build may write.  A table
    outlives the build that filled it: after one build with large caps,
    its ``1 << size`` tuples stay in memory until the process ends."""
    return tuple(sorted(_subsets_counter(range(size))))


@functools.cache
def _claim_ranks(size: int) -> tuple[int, ...]:
    """By the mask of a claimed part of a frontier of ``size`` positions
    (bit n for frontier index n, so binary-counter order), the index of its
    claim in claim order (``_claim_order``); one table per size for the
    whole process."""
    rank = {claimed: n for n, claimed in enumerate(_claim_order(size))}
    return tuple(rank[claimed] for claimed in _subsets_counter(range(size)))


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


def _meets(tree: GameTree, banned: bytearray, k: int) -> bytearray:
    """By id from level ``k + 2`` on, 1 where a play of the closed set
    passes: a full-depth play that is not ``banned`` (``_banned``), or a
    node with such a child.  One pass per level, deepest first: a node
    meets iff the running count of 1s on its child level rises across its
    ``_first`` range."""
    first, levels, depth = tree._first, tree._levels, tree.depth
    meets = bytearray(len(banned))
    meets[levels[depth] :] = banned[levels[depth] :].translate(_FLIP)
    counts = [0] * (len(banned) + 1)  # by id: the 1s on its level before it
    for d in range(depth - 1, k + 1, -1):
        lo, hi, end = levels[d], levels[d + 1], levels[d + 2]
        counts[hi : end + 1] = accumulate(meets[hi:end], initial=0)
        at = list(map(counts.__getitem__, first[lo : hi + 1]))
        meets[lo:hi] = bytes(map(lt, at, islice(at, 1, None)))
    return meets


def _accept_template(tree: GameTree, meets: bytearray, base: int, k: int):
    """The accept copy below move ``base``, per depth from ``k + 2``: the
    target ids it holds and its frontier nodes there, as (offset in those
    ids, id) pairs; then every frontier id, depth by depth.  A frontier
    node is a non-terminal outside ``meets``.  It stays as a leaf, so a run
    of ids splits only at one: the next depth's runs are the child ranges
    between the splits."""
    first, depth = tree._first, tree.depth
    runs = [(first[base], first[base + 1])]
    blocks, cuts, found = [], [], []
    for d in range(k + 2, depth + 1):
        block, cut, below = array("i"), [], []
        for lo, hi in runs:
            start = lo
            i = meets.find(0, lo, hi) if d < depth else -1  # no children to cut at the bound
            while i >= 0:
                if first[i] < first[i + 1]:  # not an early terminal
                    cut.append((len(block) + i - lo, i))
                    found.append(i)
                    below.append((first[start], first[i]))
                    start = i + 1
                i = meets.find(0, i + 1, hi)
            below.append((first[start], first[hi]))
            block.extend(range(lo, hi))
        blocks.append(block)
        cuts.append(cut)
        runs = [run for run in below if run[0] < run[1]]
    return blocks, cuts, found


def _challenge_template(tree: GameTree, base: int, q: int, k: int):
    """A challenge of frontier node ``q`` below move ``base``, per depth
    from ``k + 2``: its target ids, and the child labels that replace
    theirs or None.  The chain down to ``q`` keeps only the move toward
    it; from ``q`` on the whole subtree is copied, one id range a level."""
    first, labels_of, position = tree._first, tree._labels, tree._ordered[q]
    rows, i = [], base
    for d in range(k + 2, len(position)):
        i = first[i] + labels_of[i].index(position[d - 1])
        rows.append((array("i", (i,)), (position[d],)))
    lo, hi = q, q + 1
    for _ in range(len(position), tree.depth + 1):
        rows.append((array("i", range(lo, hi)), None))
        lo, hi = first[lo], first[hi]
    return rows


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

    Up to ``level`` the source holds the target's own nodes and ids.  Each
    move then gets its accept template (``_accept_template``), its
    frontier is checked against ``frontier_max``, it gets one
    ``_challenge_template`` per frontier node, the node count of its
    claims, summed from the template lengths, is checked against
    ``node_max``, and its claims are written in the order of their
    claimed index tuples: the process-wide table of its frontier size
    (``_claim_order``), read only now.  Each claim is answered by the
    build's one tuple of accepts for the move's child labels plus the
    challenges of its claimed positions.  A move with an empty frontier
    skips the sort, the challenge templates, their sums and the cut remap,
    and writes its one claim ``Claim(a, ())`` answered by that tuple
    alone.  Below the claims the source is written one depth at a time:
    for each claim in order, the target ids of its accept template at that
    depth, then those of its claimed positions' challenge templates.  That
    array is the covering's position map; child labels and tags are its
    images' except at the claims, the replies, the cut frontier nodes (no
    children and a verdict tag) and the chain nodes (only the move toward
    the challenged position), which are recorded as their ids are written.
    That map gives the source's label count (``_check_label_budget``);
    then positions follow, one depth at a time, from parents and labels.
    The strategy maps (``_strategy_maps``) get what the claims were
    written from: per move its level-``k`` node, its first claim's id and
    its frontier ids, and per frontier id its move and frontier index.
    """
    if level < 0:
        raise ValueError(f"level {level} is negative")
    k = level + level % 2
    if k + 2 > tree.depth:
        named = f"level {level}" + (f" (rounded up to {k})" if level % 2 else "")
        raise ValueError(f"{named} needs depth {k + 2}, bound is {tree.depth}")
    banned = _banned(tree, spec)  # checks the generators first
    floor = _generator_floor(k, tree.depth)
    for generator in spec.generators:
        if len(generator) < floor:
            raise ArenaError(
                f"generator {format_position(generator)} too shallow for level {k}"
                f" (need depth >= {floor})",
                generator,
            )
    ordered, first, labels_of, tags = tree._ordered, tree._first, tree._labels, tree._tags
    levels = tree._levels
    at_k, moves = levels[k], levels[k + 1]  # the first level-k id and the first move
    # The source's nodes, counted and capped move by move before anything is written.
    total = moves
    if total > node_max:
        raise ResourceLimitError(f"covering source exceeds {node_max} nodes")
    meets = _meets(tree, banned, k)

    # A node copies the child labels and the tag of its image, except a
    # level-k node (its claims), a claim (its replies) and the nodes that
    # ``labels_at`` or ``tags_at`` names.
    images = array("i", range(moves))  # target image ids by source id
    labels_at: dict[int, tuple[Label, ...]] = {}
    tags_at: dict[int, int] = {}
    frontiers: dict[tuple[Position, Label], tuple[Position, ...]] = {}
    accepts: dict[Label, Accept] = {}
    kept_for: dict[tuple[Label, ...], tuple[Accept, ...]] = {}  # accepts by child labels
    claims_of = []  # per move: its level-k node, its first claim's id, its frontier ids
    front_at: dict[int, tuple[int, int]] = {}  # by frontier id: its move, its frontier index

    # The claims on a move come in the order of their claimed index tuples:
    # the frontier is in lexicographic order, so that is the label order.
    # Claimed frontier positions are losses for the second player,
    # unclaimed ones concessions by the first.
    against_i, against_ii = _OWNERS.index(Player.I), _OWNERS.index(Player.II)
    node_claims = []  # per level-k node: its claims
    replied = []  # per claim: its replies
    move_rows = []  # per move: its templates and its claims' claimed indices
    for i in range(at_k, moves):
        p = ordered[i]
        claims = []
        for base, a in zip(range(first[i], first[i + 1]), labels_of[i]):
            blocks, cuts, front_ids = _accept_template(tree, meets, base, k)
            size = len(front_ids)
            if size > frontier_max:
                raise ResourceLimitError(
                    f"frontier size {size} exceeds cap {frontier_max}"
                    f" at {format_position(ordered[base])}"
                )
            subsets = 1 << size  # each frontier node is claimed in half of them
            total += subsets * (1 + sum(map(len, blocks)))
            chains = []
            if size:
                front_ids.sort(key=ordered.__getitem__)  # lexicographic: an antichain
                chains = [_challenge_template(tree, base, q, k) for q in front_ids]
                total += subsets // 2 * sum(len(ids) for template in chains for ids, _ in template)
            if total > node_max:
                raise ResourceLimitError(f"covering source exceeds {node_max} nodes")
            child_labels = labels_of[base]
            kept = kept_for.get(child_labels)
            if kept is None:
                kept = kept_for[child_labels] = tuple(
                    accepts.setdefault(b, Accept(b)) for b in child_labels
                )
            order = _claim_order(size)  # only now: 1 << size claims passed the node cap
            claims_of.append((i, moves + len(replied), front_ids))
            if size:
                for n, q in enumerate(front_ids):
                    front_at[q] = (base, n)
                cuts = [[(offset, front_at[q][1]) for offset, q in cut] for cut in cuts]
                front = frontiers[(p, a)] = tuple(map(ordered.__getitem__, front_ids))
                replies = [Challenge(q, q[k + 1]) for q in front]
                for claimed in order:
                    claims.append(Claim(a, tuple(map(front.__getitem__, claimed))))
                    replied.append(kept + tuple(map(replies.__getitem__, claimed)))
                images.extend(repeat(base, subsets))
            else:  # one claim, of nothing, answered by the accepts alone
                frontiers[(p, a)] = ()
                claims.append(Claim(a, ()))
                replied.append(kept)
                images.append(base)
            move_rows.append((blocks, cuts, chains, order))
        node_claims.append(tuple(claims))

    for t in range(tree.depth - k - 1):  # depth k + 2 + t, down to the bound
        for blocks, cuts, chains, order in move_rows:
            block, cut = blocks[t], cuts[t]
            for claimed in order:
                at = len(images)
                images += block
                for offset, n in cut:
                    labels_at[at + offset] = ()
                    tags_at[at + offset] = against_ii if n in claimed else against_i
                for n in claimed:
                    ids, labels = chains[n][t]
                    if labels:
                        labels_at[len(images)] = labels
                    images += ids

    out_labels = list(map(labels_of.__getitem__, images))
    out_labels[at_k:moves] = node_claims
    out_labels[moves : moves + len(replied)] = replied
    for i, labels in labels_at.items():
        out_labels[i] = labels
    out_tags = bytearray(map(tags.__getitem__, images))
    for i, tag in tags_at.items():
        out_tags[i] = tag
    if tree.depth > LABELS_PER_NODE:  # else the node cap keeps the labels within budget
        held = sum(map(len, map(ordered.__getitem__, images)))  # each as long as its image's
        _check_label_budget("covering source", held, node_max)
    out = _positions_below(list(ordered[:moves]), out_labels, at_k)  # source positions by id
    source = GameTree._from_ids(tree.depth, out, out_labels, out_tags)
    transform, lift = _strategy_maps(source, tree, k, images, claims_of, front_at)
    return BaseCovering(source, tree, k, images, transform, lift, frontiers, spec)


# The located id of a node under a move that player I's claim passes by:
# no node's id, nor the complement ``~id`` of one.
_OFF = -(1 << 40)


def _strategy_maps(source: GameTree, tree: GameTree, k: int, images, claims_of, front_at):
    """The strategy map and the constructive lift of a base covering.

    Both rest on one locator: given a source strategy, it names by id the
    source node that a target node past level ``k`` comes from, and
    whether it is exact.  It keeps one record per move (a target id at
    depth ``k + 1``), made on the move's first lookup from the build's
    ``claims_of`` (by move, in id order: its level-``k`` node, its first
    claim's source id and its frontier ids): the claim node, the
    claim's claimed frontier indices and player II's rebased challenges.
    The claim is player I's own claim (off the play, ``_OFF``, if it is
    on another move); for player II it is the claim of the frontier part
    II never challenges, and each frontier node II does challenge has the
    reply node of the first claim (binary-counter order) II answers with
    that challenge.  One read of II's replies to the claims on the move
    finds both.

    Below the move, a node's located id is its parent's source child at
    the same child index: claims, accepts and copies keep their image's
    child order.  It jumps only at a frontier id of its move
    (``front_at``, by id: the move and the node's frontier index); the
    frontier is an antichain, so a node passes at most one.  At a
    frontier node the owner kept (claimed by I, challenged against II) it
    is the end of the challenge chain, one child a level below the reply;
    at one the owner gave up it is the cut node, a taboo against the
    owner, kept as ``~id``: inexact, and so is every node below it.
    Located ids are kept by target id as they are found (the child a
    computed choice moves to with it), so each node is located once, from
    the nearest located node above it, by the target's parent table.  The
    transform follows the strategy at exact nodes and takes the least move
    elsewhere; the lift is the source position of the located id.

    The image is a ``Choices`` of the target with every entry unknown,
    each computed on its first read through one call, so a check that
    reads only the choices along consistent plays computes only those.
    Below level ``k`` a choice is the source's at the same id, and at
    level ``k`` the move of player I's claim, read off the position map.
    The invariant that player II's reply to the never-challenged claim is
    an accept is therefore checked when that choice is read, not when the
    strategy is mapped.

    The two maps share one record of the last strategy seen, by identity
    (a strategy's choices never change), with its image and its locator,
    so a check that maps a strategy and then lifts its plays maps it once,
    makes each move's record once, and keeps the choices already computed.
    """
    first_s, first_t, target_labels, target_ordered = (
        source._first, tree._first, tree._labels, tree._ordered
    )
    at_k, moves, below = tree._levels[k], tree._levels[k + 1], tree._levels[k + 2]
    node_count = len(target_ordered)

    def image(strategy: Strategy):
        owner = strategy.owner
        first = owner is Player.I
        chosen = _as_choices(source, strategy)
        held, read = chosen.picks, chosen._read
        located: dict[int, int] = {}  # by target id past level k
        records: dict[int, tuple] = {}  # by move: claim node, claimed indices, rebased

        walk: list[int] = []  # the nodes ``locate`` passes up, reused by each call

        def locate(t: int) -> int:
            """The located id of target node ``t`` past level ``k``, kept:
            up to the nearest node already located, or to the move, whose
            record is made now, then down again, each node the source child
            of its parent's at the same child index, unless it is a
            frontier node of its move, kept or given up."""
            at = located.get(t)
            if at is not None:
                return at
            parents = tree._parents
            walk.clear()  # of a call that raised
            while t >= below:
                walk.append(t)
                t = parents[t]
                at = located.get(t)
                if at is not None:
                    break
            else:  # ``t`` is a move: its record, and its claim node
                i, start, front = claims_of[t - moves]
                size = len(front)
                order = _claim_order(size)
                rebased: dict[int, int] = {}  # frontier index -> the node its challenge enters
                if first:
                    pick = held[i]
                    at = first_s[i] + (pick if pick >= 0 else read(i))
                    if images[at] != t:
                        at = _OFF  # off the described play
                else:
                    kept = (1 << size) - 1  # the frontier indices II never challenges
                    if size:  # with nothing to claim there is nothing to challenge
                        accepts = len(target_labels[t])
                        ranks = _claim_ranks(size)
                        for mask in range(1 << size):
                            claim = start + ranks[mask]
                            pick = held[claim]
                            reply = (pick if pick >= 0 else read(claim)) - accepts
                            if reply >= 0:
                                n = order[ranks[mask]][reply]
                                if n not in rebased:
                                    rebased[n] = first_s[claim] + accepts + reply
                                    kept &= ~(1 << n)
                    at = start + _claim_ranks(size)[kept]
                if at >= 0:
                    records[t] = (at, order[at - start], rebased)
                located[t] = at
            while walk:
                t = walk.pop()
                if at >= 0:  # else inexact, and so is every node below
                    at = first_s[at] + t - first_t[parents[t]]
                    if t in front_at:
                        m, n = front_at[t]
                        claim, claimed, rebased = records[m]
                        if first and n in claimed:
                            at = first_s[claim] + len(target_labels[m]) + claimed.index(n)
                        elif not first and n not in claimed:
                            if n not in rebased:
                                raise InternalInvariantError(
                                    "no claimed set challenges the position"
                                )
                            at = rebased[n]
                        else:
                            at = ~at  # the cut node
                        if at >= 0:
                            for _ in range(len(target_ordered[t]) - k - 2):  # down the chain
                                at = first_s[at]
                located[t] = at
            return at

        picks = [-1] * node_count

        def fill(t: int) -> int:
            try:
                if t >= below:
                    at = locate(t)
                    if at < 0:
                        pick = 0  # off the play or past a conceded frontier
                    else:
                        pick = held[at]
                        if pick < 0:
                            pick = read(at)
                        child = first_t[t] + pick  # located now: the node a play reads next
                        if child not in front_at:
                            located[child] = first_s[at] + pick
                elif t >= moves:  # player II's reply to the never-challenged claim
                    at = locate(t)
                    pick = held[at]
                    if pick < 0:
                        pick = read(at)
                    if pick >= len(target_labels[t]):
                        raise InternalInvariantError(
                            "reply to the never-challenged claim must be an accept"
                        )
                else:  # the same node and child labels in the source, or a claim
                    pick = held[t]
                    if pick < 0:
                        pick = read(t)
                    if t >= at_k:  # player I's claim: the index of its move
                        pick = images[first_s[t] + pick] - first_t[t]
            except _NoChoice:
                raise ValueError(
                    f"mapped strategy has no choice at {format_position(target_ordered[t])}:"
                    " the source strategy is not total"
                ) from None
            picks[t] = pick
            return pick

        return strategy, Strategy(owner, Choices(tree, owner, picks, fill)), locate

    last = (None, None, None)  # the last strategy seen, its image and its locator

    def mapped(strategy: Strategy):
        nonlocal last
        if last[0] is not strategy:  # identity, not ==: strategies compare all choices
            last = image(strategy)
        return last

    def transform(strategy: Strategy) -> Strategy:
        return (last if last[0] is strategy else mapped(strategy))[1]

    def lift(strategy: Strategy, x: Position) -> Position | None:
        if len(x) <= k:
            return x
        try:
            t = tree._id(x)
        except ValueError:  # a label that is not a child's
            raise ValueError(f"unknown position {format_position(x)}") from None
        at = mapped(strategy)[2](t)
        if at == _OFF:
            return None
        return source._ordered[at if at >= 0 else ~at]

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
    stage is built; part 0 unravels at ``level`` as given, and part ``n``,
    pulled back through the composite so far, at the smallest even level
    at least ``k + n``, ``k`` being ``level`` rounded up to even; the
    complement of the pulled-back union is then closed at the deepest depth
    the parts return, and one more base covering at ``k`` finishes.
    A ``ValueError`` or ``ResourceLimitError`` from a stage names it
    (``stage n: ``), and an ``ArenaError`` its position's image in
    ``tree``; the finishing covering is not a stage, so its errors do not.
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
            built, decided = unravel_payoff(current, part, stage if n else level, **caps)
        except ArenaError as error:  # named by its image, as the expression writes it
            image = error.position
            if composite is not None and image is not None:
                image = tree._ordered[composite.images[current._id(image)]]
            stages, colon, fault = str(error).rpartition(": ")  # the fault names it once
            fault = fault.replace(format_position(error.position), format_position(image), 1)
            raise ArenaError(f"stage {n}: {stages}{colon}{fault}", image) from None
        except (ValueError, ResourceLimitError) as error:
            raise type(error)(f"stage {n}: {error}") from None
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
