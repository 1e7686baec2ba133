"""Graphviz DOT export for game trees and coverings.

Node ordering follows the canonical position order, so output is
deterministic and diff-friendly.  Taboo terminals render as boxes tagged
with the losing player, payoff members as doubled circles.  A covering
export places source and target in two clusters and draws dashed links
from the decorated levels (the covering's identity level plus one and two)
to their images.
"""

from __future__ import annotations

from .core import _OWNERS, GameTree, ResourceLimitError, _as_plays, format_position
from .covering import Covering

_QUOTE = str.maketrans({'"': '\\"', "\\": "\\\\"})


def _quoted(text: str) -> str:
    return '"' + text.translate(_QUOTE) + '"'


def _node_lines(tree: GameTree, payoff_leaves, prefix: str) -> tuple[list[str], list[str]]:
    """A tree's node and edge lines, and its quoted node names by id."""
    positions, first, tags = tree.positions(), tree._first, tree._tags
    start = tree._levels[tree.depth]
    # The payoff's bytes padded to read by id; no payoff marks no play.
    inside = bytes(start) + (
        bytes(len(positions) - start)
        if payoff_leaves is None
        else _as_plays(tree, payoff_leaves).mask
    )
    paths = [format_position(position) for position in positions]
    names = [_quoted(prefix + path) for path in paths]
    lines = []
    for i, path in enumerate(paths):
        if tags[i]:
            style = f"shape=box, xlabel={_quoted(f'taboo:{_OWNERS[tags[i]]}')}"
        elif inside[i]:
            style = "shape=doublecircle"
        else:
            style = "shape=ellipse"
        lines.append(f"  {names[i]} [label={_quoted(path)}, {style}];")
    # canonical order lists each parent's children together, parents in order
    lines.extend(
        f"  {names[i]} -> {names[child]};"
        for i in range(len(names))
        for child in range(first[i], first[i + 1])
    )
    return lines, names


def _check_size(count: int, node_max: int) -> None:
    if count > node_max:
        raise ResourceLimitError(f"{count} nodes exceed the export cap {node_max}")


def tree_dot(tree: GameTree, payoff_leaves=None, *, node_max: int) -> str:
    _check_size(tree.node_count, node_max)
    lines = ["digraph game {", "  rankdir=TB;"]
    lines.extend(_node_lines(tree, payoff_leaves, "")[0])
    lines.append("}")
    return "\n".join(lines) + "\n"


def covering_dot(covering: Covering, payoff_leaves=None, *, node_max: int) -> str:
    """Both trees plus dashed position-map links from the decorated levels."""
    _check_size(covering.source.node_count + covering.target.node_count, node_max)
    source_lines, source_names = _node_lines(covering.source, None, "s:")
    target_lines, target_names = _node_lines(covering.target, payoff_leaves, "t:")
    lines = ["digraph covering {", "  rankdir=TB;"]
    lines.append("  subgraph cluster_source {")
    lines.append('    label="source";')
    lines.extend("  " + line for line in source_lines)
    lines.append("  }")
    lines.append("  subgraph cluster_target {")
    lines.append('    label="target";')
    lines.extend("  " + line for line in target_lines)
    lines.append("  }")
    for i, (position, image) in enumerate(zip(covering.source.positions(), covering.images)):
        if covering.level < len(position) <= covering.level + 2:
            lines.append(
                f"  {source_names[i]} -> {target_names[image]} [style=dashed, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
