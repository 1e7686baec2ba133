"""Seeded random games for fuzzing and property suites.

All generation is driven by string-seeded ``random.Random`` instances, so
identical seeds reproduce identical games on any platform or run.
"""

from __future__ import annotations

import random

from .core import (
    DEFAULT_NODE_MAX,
    GameTree,
    Player,
    Position,
    ResourceLimitError,
    _check_label_budget,
    is_prefix,
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
    than the label budget of ``node_max`` allows.
    """
    if depth >= node_max:
        raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
    _check_label_budget("random arena", depth * (depth + 1) // 2, node_max)
    # Depth first with an explicit stack, so deep trees cannot hit the
    # recursion limit; children are pushed in reverse so that positions are
    # grown, and ``rng`` is called, in preorder.
    children: dict[Position, list[int]] = {}
    stack: list[Position] = [()]
    while stack:
        position = stack.pop()
        if len(children) >= node_max:
            raise ResourceLimitError(f"random arena exceeds {node_max} nodes")
        if len(position) >= depth:  # >=: a negative depth still ends the walk
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
        while below:  # cut the subtree by walking its child lists
            node = below.pop()
            below.extend(node + (label,) for label in children.pop(node))
        children[position] = []
        taboo[position] = rng.choice([Player.I, Player.II])
    return GameTree(depth, children, taboo)


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
