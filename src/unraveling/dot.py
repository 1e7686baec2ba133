"""Graphviz DOT export for game trees and coverings.

Node ordering follows the canonical position order, so output is
deterministic and diff-friendly.  Taboo terminals render as boxes tagged
with the losing player, payoff members as doubled circles.  A covering
export places source and target in two clusters and draws dashed links
from the decorated levels (the covering's identity level plus one and two)
to their images.
"""

from __future__ import annotations

from .core import GameTree, ResourceLimitError, format_position
from .covering import Covering

_QUOTE = str.maketrans({'"': '\\"', "\\": "\\\\"})


def _quoted(text: str) -> str:
    return '"' + text.translate(_QUOTE) + '"'


def _node_lines(tree: GameTree, payoff_leaves, prefix: str) -> list[str]:
    positions = tree.positions()
    names = {position: _quoted(prefix + format_position(position)) for position in positions}
    lines = []
    for position in positions:
        owner = tree.taboo_owner(position)
        attrs = [f"label={_quoted(format_position(position))}"]
        if owner is not None:
            attrs.append("shape=box")
            attrs.append(f"xlabel={_quoted(f'taboo:{owner}')}")
        elif payoff_leaves is not None and position in payoff_leaves:
            attrs.append("shape=doublecircle")
        else:
            attrs.append("shape=ellipse")
        lines.append(f"  {names[position]} [{', '.join(attrs)}];")
    # canonical order lists each parent's children together, parents in order
    lines.extend(f"  {names[p[:-1]]} -> {names[p]};" for p in positions[1:])
    return lines


def _check_size(count: int, node_max: int) -> None:
    if count > node_max:
        raise ResourceLimitError(f"{count} nodes exceed the export cap {node_max}")


def tree_dot(tree: GameTree, payoff_leaves=None, *, node_max: int) -> str:
    _check_size(tree.node_count, node_max)
    lines = ["digraph game {", "  rankdir=TB;"]
    lines.extend(_node_lines(tree, payoff_leaves, ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def covering_dot(covering: Covering, payoff_leaves=None, *, node_max: int) -> str:
    """Both trees plus dashed position-map links from the decorated levels."""
    _check_size(covering.source.node_count + covering.target.node_count, node_max)
    lines = ["digraph covering {", "  rankdir=TB;"]
    lines.append("  subgraph cluster_source {")
    lines.append('    label="source";')
    lines.extend("  " + line for line in _node_lines(covering.source, None, "s:"))
    lines.append("  }")
    lines.append("  subgraph cluster_target {")
    lines.append('    label="target";')
    lines.extend("  " + line for line in _node_lines(covering.target, payoff_leaves, "t:"))
    lines.append("  }")
    targets = covering.target.positions()
    for position, image_id in zip(covering.source.positions(), covering.images):
        if covering.level < len(position) <= covering.level + 2:
            image = targets[image_id]
            lines.append(
                f"  {_quoted('s:' + format_position(position))} ->"
                f" {_quoted('t:' + format_position(image))}"
                " [style=dashed, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
