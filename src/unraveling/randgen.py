"""Seeded random games for fuzzing and property suites.

All generation is driven by string-seeded ``random.Random`` instances, so
identical seeds reproduce identical games on any platform or run.

``random_tree`` draws an arena in preorder and records only each node's
width, by preorder index, filed under its depth; no position exists until
the draw is done.  The taboos are an antichain of preorder indices, each
cutting the subtree interval that follows it.  A tree's labels are
``0..width-1``, so a level's preorder is its canonical order, and one
pass over the levels writes the child labels and the tag bytes by id.  The
positions follow from those one level at a time, and the tree enters
through ``GameTree._from_ids``: nothing is sorted or hashed.
"""

from __future__ import annotations

import random
from itertools import chain, compress, filterfalse, repeat

from .core import (
    DEFAULT_NODE_MAX,
    GameTree,
    Player,
    ResourceLimitError,
    _OWNERS,
    _check_depth,
    _check_label_budget,
    _positions_below,
)
from .payoff import ClosedSpec


def rng_for(seed) -> random.Random:
    return random.Random(f"unraveling:{seed}")


def random_tree(
    rng: random.Random,
    *,
    depth: int = 4,
    branching: int = 2,
    taboos: int = 2,
    node_max: int = DEFAULT_NODE_MAX,
) -> GameTree:
    """Random arena: grow a full tree, then cut an antichain into taboos.

    Growing more than ``node_max`` positions raises ``ResourceLimitError``;
    the cap only counts, so an arena within it is drawn as without one.  A
    depth of at least ``node_max`` raises before anything is drawn: the
    first path alone holds ``depth + 1`` positions.  So does a depth whose
    first path holds more position labels, ``depth * (depth + 1) / 2``,
    than the label budget of ``node_max`` allows.  An illegal depth bound
    is an ``ArenaError`` once the draw is done.
    """
    if depth >= node_max:
        raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
    _check_label_budget("random arena", depth * (depth + 1) // 2, node_max)
    # Depth first with an explicit stack of depths, so deep trees cannot hit
    # the recursion limit; ``rng`` is called in preorder, once per node
    # above the bound.  A node is its preorder index: the draw records its
    # width and files the index under its depth.
    randint = rng.randint
    widths: list[int] = []
    levels: list[list[int]] = [[] for _ in range(max(depth, 0) + 1)]
    stack = [0]
    while stack:
        d = stack.pop()
        n = len(widths)
        if n >= node_max:
            raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
        levels[d].append(n)
        if d >= depth:  # >=: a negative depth still ends the walk
            widths.append(0)
            continue
        width = randint(1, branching)
        widths.append(width)
        stack += repeat(d + 1, width)

    # Exactly the nodes strictly between the root and the bound have children.
    candidates = list(compress(range(1, len(widths)), widths[1:]))
    rng.shuffle(candidates)
    chosen: list[tuple[int, int]] = []  # each taboo's subtree as a preorder interval
    wanted = rng.randint(0, taboos)
    for candidate in candidates:
        if len(chosen) >= wanted:
            break
        end = _subtree_end(widths, candidate)
        if any(lo <= candidate < hi or candidate <= lo < end for lo, hi in chosen):
            continue
        chosen.append((candidate, end))

    cut = bytearray(len(widths))  # 1 below a taboo
    tags = bytearray(len(widths))
    for lo, hi in chosen:
        cut[lo + 1 : hi] = b"\x01" * (hi - lo - 1)
        widths[lo] = 0
        tags[lo] = _OWNERS.index(rng.choice([Player.I, Player.II]))
    _check_depth(depth)

    # Labels are 0..width-1, so a level's preorder is its canonical order.
    ids = list(filterfalse(cut.__getitem__, chain.from_iterable(levels)))
    shapes = {width: tuple(range(width)) for width in set(widths)}
    labels = [shapes[widths[i]] for i in ids]
    ordered = _positions_below([()], labels, 0)
    return GameTree._from_ids(depth, ordered, labels, bytearray(map(tags.__getitem__, ids)))


def _subtree_end(widths: list[int], i: int) -> int:
    """One past the last preorder index of node ``i``'s subtree."""
    pending = 1  # the nodes of the subtree not yet passed
    while pending:
        pending += widths[i] - 1
        i += 1
    return i


def random_closed_spec(
    rng: random.Random,
    tree: GameTree,
    *,
    max_generators: int = 3,
    min_depth: int = 1,
    min_generators: int = 0,
) -> ClosedSpec:
    candidates = [  # the non-terminal positions, which all lie above full depth
        p for p, labels in zip(tree.positions(), tree._labels) if labels and len(p) >= min_depth
    ]
    if not candidates:
        return ClosedSpec()
    count = rng.randint(min(min_generators, len(candidates)), min(max_generators, len(candidates)))
    return ClosedSpec(rng.sample(candidates, count))


def random_game(
    seed,
    *,
    depth: int = 4,
    branching: int = 2,
    taboos: int = 2,
    generators: int = 3,
    min_generator_depth: int = 1,
    node_max: int = DEFAULT_NODE_MAX,
) -> tuple[GameTree, ClosedSpec]:
    rng = rng_for(seed)
    tree = random_tree(rng, depth=depth, branching=branching, taboos=taboos, node_max=node_max)
    spec = random_closed_spec(
        rng, tree, max_generators=generators, min_depth=min_generator_depth
    )
    return tree, spec


def random_union_instance(
    seed,
    *,
    depth: int = 6,
    branching: int = 2,
    taboos: int = 2,
    parts: int = 2,
    level: int = 0,
    max_generators: int = 2,
) -> tuple[GameTree, list[ClosedSpec]]:
    """Tree plus closed specs whose generators are deep enough per stage."""
    rng = rng_for(seed)
    tree = random_tree(rng, depth=depth, branching=branching, taboos=taboos)
    specs = []
    for n in range(parts):
        stage = level + n
        stage += stage % 2
        specs.append(
            random_closed_spec(
                rng,
                tree,
                max_generators=max_generators,
                min_depth=stage + 2,
                min_generators=1,
            )
        )
    return tree, specs
