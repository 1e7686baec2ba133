"""Independent brute-force oracles the tests check the library against.

Each oracle recomputes a result by direct enumeration of the defining
condition, sharing as little code as possible with the implementation path
it is used to check.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_left
from itertools import count, islice
from typing import Callable

from unraveling.core import (
    DEFAULT_NODE_MAX,
    ArenaError,
    CheckResult,
    GameTree,
    InternalInvariantError,
    Label,
    Player,
    Position,
    ResourceLimitError,
    Strategy,
    _OWNERS,
    _check_label_budget,
    format_position,
)
from unraveling.covering import Covering
from unraveling.payoff import Closed, ClosedSpec, Not, Union, _banned
from unraveling.solver import PruneResult, Solution
from unraveling.unravel import (
    DEFAULT_FRONTIER_MAX,
    Accept,
    BaseCovering,
    Challenge,
    Claim,
    _generator_floor,
    _strategy_maps,
    _subsets_counter,
)


def assert_matches_checked_build(tree: GameTree) -> None:
    """``tree`` is, array for array, the tree that the checked constructor
    builds from its positions and taboo tags, and every position query on
    it answers as on that tree.  Its level offsets are, for every depth up
    to one past the bound, the first id of that length in canonical order."""
    checked = GameTree(tree.depth, tree.positions(), dict(tree.taboo_items()))
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


def reference_random_tree(
    rng: random.Random,
    *,
    depth: int = 4,
    branching: int = 2,
    taboos: int = 2,
    node_max: int = DEFAULT_NODE_MAX,
) -> GameTree:
    """``randgen.random_tree`` by its position-keyed walk: the same rng
    calls in the same order, a child-label dict grown in preorder, the
    taboos cut by walking their child lists, and the checked constructor
    sorting the result."""
    if depth >= node_max:
        raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
    _check_label_budget("random arena", depth * (depth + 1) // 2, node_max)
    children: dict[Position, list[int]] = {}
    stack: list[Position] = [()]
    while stack:
        position = stack.pop()
        if len(children) >= node_max:
            raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
        if len(position) >= depth:
            children[position] = []
            continue
        width = rng.randint(1, branching)
        children[position] = list(range(width))
        stack.extend(position + (label,) for label in reversed(range(width)))

    candidates = [p for p in children if 0 < len(p) < depth]
    rng.shuffle(candidates)
    chosen: list[Position] = []
    wanted = rng.randint(0, taboos)
    for candidate in candidates:
        if len(chosen) >= wanted:
            break
        if any(is_prefix(c, candidate) or is_prefix(candidate, c) for c in chosen):
            continue
        chosen.append(candidate)

    taboo: dict[Position, Player] = {}
    for position in chosen:
        below = [position + (label,) for label in children[position]]
        while below:
            node = below.pop()
            below.extend(node + (label,) for label in children.pop(node))
        children[position] = []
        taboo[position] = rng.choice([Player.I, Player.II])
    return GameTree(depth, list(children), taboo)


def to_move(position: Position) -> Player:
    """Player I moves at even-length positions, player II at odd."""
    return Player.I if len(position) % 2 == 0 else Player.II


def taboo_owner(tree: GameTree, position: Position) -> Player | None:
    """The player an early terminal is a loss for, or ``None`` if untagged."""
    return dict(tree.taboo_items()).get(position)


def plays(tree: GameTree) -> list[Position]:
    """The terminal positions, in canonical order."""
    return [p for p in tree.positions() if not tree.children_of(p)]


def strategy_from(
    tree: GameTree,
    owner: Player,
    choose: Callable[[Position, tuple[Label, ...]], Label],
) -> Strategy:
    """Total strategy built by calling ``choose`` at each decision position;
    a choice that is not a child label is a ``ValueError``."""
    choices = {}
    for position, labels in decision_table(tree, owner).items():
        choice = choose(position, labels)
        if choice not in labels:
            raise ValueError(f"illegal choice at {format_position(position)}")
        choices[position] = choice
    return Strategy(owner, choices)


def least_strategy(tree: GameTree, owner: Player) -> Strategy:
    """The lexicographic default: always the least available move."""
    return strategy_from(tree, owner, lambda _, labels: labels[0])


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def is_consistent(position: Position, strategy: Strategy) -> bool:
    """True iff the owner's moves along ``position`` all follow the strategy,
    each read by position."""
    get = strategy.choices.get
    start = 0 if strategy.owner is Player.I else 1
    return all(get(position[:k]) == position[k] for k in range(start, len(position), 2))


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


def reference_realize(tree: GameTree, payoff) -> frozenset:
    """The frozenset of full-depth plays a payoff expression denotes, by
    definition: a closed set's avoid every generator as a prefix."""
    plays = frozenset(p for p in tree.positions() if len(p) == tree.depth)
    if isinstance(payoff, Closed):
        return frozenset(
            p for p in plays if not any(is_prefix(g, p) for g in payoff.spec.generators)
        )
    if isinstance(payoff, Not):
        return plays - reference_realize(tree, payoff.payoff)
    if isinstance(payoff, Union):
        return frozenset().union(*(reference_realize(tree, part) for part in payoff.parts))
    raise TypeError(f"not a payoff spec: {payoff!r}")


def reference_pullback(covering: Covering, payoff_leaves) -> frozenset:
    """The frozenset of full-depth source plays whose image, looked up as a
    target position, is in ``payoff_leaves``."""
    source, targets = covering.source, covering.target.positions()
    return frozenset(
        p
        for p, image in zip(source.positions(), covering.images)
        if len(p) == source.depth and targets[image] in payoff_leaves
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
    return GameTree(tree.depth, list(children), taboo)


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
        if not tree.children_of(q):
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


def decision_table(tree: GameTree, owner: Player) -> dict[Position, tuple[Label, ...]]:
    """The owner's decision positions, each with its child labels, in
    canonical order; read off the positions and the child labels by id, so
    it builds no position table in ``tree``."""
    return {
        p: labels
        for p, labels in zip(tree.positions(), tree._labels)
        if labels and to_move(p) is owner
    }


def sampled_strategies(
    covering: Covering, leaves, samples: int, seed: int, states: list | None = None
) -> list[Strategy]:
    """The source strategies ``verify`` maps, in order, drawn with one
    ``rng.choice`` per decision position in canonical order (and an
    ``rng.random`` before each mutation draw), in the seeds and loops of
    ``check_strategy_locality``, then ``check_lift``, then
    ``check_winning_transfer``, on a covering that passes them.  The
    pulled-back game is solved by ``reference_solve``.  With ``states``,
    the state of the check's ``rng`` when each strategy is mapped is
    appended to it: after a locality pair's redraw, after a lift sample's
    draw, and after the last mutation for every winning candidate."""
    source = covering.source
    decisions = {owner: decision_positions(source, owner) for owner in Player}
    out: list[Strategy] = []
    states = [] if states is None else states

    def drawn(rng: random.Random, owner: Player) -> dict:
        return {p: rng.choice(source.children_of(p)) for p in decisions[owner]}

    rng = random.Random(f"locality:{seed}")
    for _ in range(samples):
        owner = rng.choice([Player.I, Player.II])
        cutoff = rng.randint(0, source.depth)
        first = drawn(rng, owner)
        second = dict(first)
        for position in decisions[owner]:
            if len(position) >= cutoff:
                second[position] = rng.choice(source.children_of(position))
        out += [Strategy(owner, first), Strategy(owner, second)]
        states += [rng.getstate()] * 2

    rng = random.Random(f"unraveling:verify:{seed}")
    for owner in (Player.I, Player.II):
        for _ in range(max(1, samples // 2)):
            out.append(Strategy(owner, drawn(rng, owner)))
            states.append(rng.getstate())

    rng = random.Random(f"transfer:{seed}")
    pulled = reference_pullback(covering, leaves)
    solution = reference_solve(source, pulled)
    winning = [solution.strategy]
    attempts = 0
    while len(winning) < samples + 1 and attempts < samples * 8:
        attempts += 1
        choices = dict(solution.strategy.choices)
        for position in decisions[solution.winner]:
            if rng.random() < 0.3:
                choices[position] = rng.choice(source.children_of(position))
        candidate = Strategy(solution.winner, choices)
        if _some_losing_play(source, pulled, candidate) is None:
            winning.append(candidate)
    states += [rng.getstate()] * len(winning)
    return out + winning


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
    kept = [position for position in tree.positions() if position not in removed]
    return PruneResult(
        GameTree(tree.depth, kept), None, determined, frozenset(removed), witnesses
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
            choices[position] = strategy.choices[position]
            continue
        entry = position
        while entry[:-1] in pruned.removed:
            entry = entry[:-1]
        if pruned.determined[entry] is owner:
            choices[position] = pruned.witnesses[entry].choices[position]
        else:
            choices[position] = labels[0]
    return Strategy(owner, choices)


# ------------------------------------------------ the node-by-node base covering

# The base covering construction as it stood before its level-by-level
# rewrite, kept verbatim (renamed) as the oracle the builder is checked
# against: a reverse pass for subtree sizes and ``meets``, a depth-first
# search per move for its frontier, then a walk over every source node.


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



def reference_base_covering(
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
    claims_of = []  # per move, for the strategy maps: its level-k node, first claim, frontier ids
    front_at = {}  # by frontier id: its move and its frontier index
    for i in range(at_k, moves):
        p = ordered[i]
        claims = []
        for base, a in zip(range(first[i], first[i + 1]), labels_of[i]):
            front_ids = fronts[base - moves]
            claims_of.append((i, len(out), front_ids))
            front_at.update((q, (base, n)) for n, q in enumerate(front_ids))
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
    transform, lift = _strategy_maps(source, tree, k, images, claims_of, front_at)
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


def reference_strategy_maps(covering: BaseCovering, strategy: Strategy):
    """The image of ``strategy`` under a base covering's strategy map, as a
    dict over the owner's decision positions of the target, and its lift of
    a target position, found as the construction found them when it probed
    every prefix: the frontier position on a target position ``x`` is the
    first prefix of ``x``, from length ``k + 2`` on, that is a frontier
    position of any move.

    The claim on the way is player I's own claim; for player II it is the
    claim of the frontier part II never challenges, unless ``x`` enters a
    position II does challenge, where it is the first claim in
    binary-counter order that II answers with that challenge.  Past a
    frontier position the owner gave up the node is the cut one, inexact;
    an inexact or off-play position takes the least move."""
    tree, k, chosen = covering.target, covering.level, strategy.choices
    first = strategy.owner is Player.I
    every = {q for front in covering.frontiers.values() for q in front}

    def claims(p: Position, a: Label) -> tuple[Claim, dict[Position, Claim]]:
        if first:
            return chosen[p], {}
        front = covering.frontiers[(p, a)]
        rebased: dict[Position, Claim] = {}
        if front:  # with nothing to claim there is nothing to challenge
            for mask in range(1 << len(front)):
                claim = Claim(a, tuple(q for n, q in enumerate(front) if mask >> n & 1))
                reply = chosen[p + (claim,)]
                if isinstance(reply, Challenge):
                    rebased.setdefault(reply.target, claim)
        return Claim(a, tuple(q for q in front if q not in rebased)), rebased

    def locate(x: Position) -> tuple[Position | None, bool]:
        p, a = x[:k], x[k]
        claim, rebased = claims(p, a)
        if claim.move != a:
            return None, False
        if len(x) == k + 1:
            return p + (claim,), True
        hit = next((x[:end] for end in range(k + 2, len(x) + 1) if x[:end] in every), None)
        if hit is None:
            return p + (claim, Accept(x[k + 1])) + x[k + 2 :], True
        if first and hit in claim.claimed:
            return p + (claim, Challenge(hit, hit[k + 1])) + x[k + 2 :], True
        if not first and hit not in claim.claimed:
            return p + (rebased[hit], Challenge(hit, hit[k + 1])) + x[k + 2 :], True
        return p + (claim, Accept(x[k + 1])) + hit[k + 2 :], False

    def choose(x: Position, labels: tuple[Label, ...]) -> Label:
        if len(x) < k:
            return chosen[x]
        if len(x) == k:
            return chosen[x].move
        node, exact = locate(x)
        if not exact:
            return labels[0]
        return chosen[node].move if len(x) == k + 1 else chosen[node]

    image = {x: choose(x, labels) for x, labels in decision_table(tree, strategy.owner).items()}
    return image, lambda x: x if len(x) <= k else locate(x)[0]
