"""Graphviz DOT export for game trees and coverings.

Node ordering follows the canonical position order, so output is
deterministic and diff-friendly.  Taboo terminals render as boxes tagged
with the losing player, payoff members as doubled circles.  A covering
export places source and target in two clusters and draws dashed links
from the decorated levels (the covering's identity level plus one and two)
to their images.

Everything is written by node id: each node's slash path once, from its
parent's (``core._paths``), escaped once, and the edges into ids 1, 2, ...
in order, since canonical order lists each parent's children together.
The dashed links walk only the two decorated levels of the source.
"""

from __future__ import annotations

from .core import _OWNERS, GameTree, ResourceLimitError, _as_plays, _paths
from .covering import Covering

# The style of a node by its taboo tag byte; an untagged one is styled by the payoff.
_TABOO_STYLES = [None] + [f'shape=box, xlabel="taboo:{owner}"' for owner in _OWNERS[1:]]


def _escaped(text: str) -> str:
    """``text`` ready to go between DOT's double quotes: backslash first."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_lines(tree: GameTree, payoff_leaves, prefix: str) -> tuple[list[str], list[str]]:
    """A tree's node and edge lines, and its quoted node names by id.  Each
    path is written once, from its parent's, and escaped once; a node's
    name is that path behind ``prefix``."""
    tags, labels = tree._tags, tree._labels
    start = tree._levels[tree.depth]
    # The payoff's bytes padded to read by id; no payoff marks no play.
    inside = bytes(start) + (
        bytes(len(labels) - start)
        if payoff_leaves is None
        else _as_plays(tree, payoff_leaves).mask
    )
    paths = [_escaped(path) for path in _paths(tree)]
    names = [f'"{prefix}{path}"' for path in paths]
    styles = [
        _TABOO_STYLES[tag] if tag else "shape=doublecircle" if member else "shape=ellipse"
        for tag, member in zip(tags, inside)
    ]
    lines = list(map('  {} [label="{}", {}];'.format, names, paths, styles))
    # Canonical order lists each parent's children together, parents in
    # order, so the edges into ids 1, 2, ... come out in that order.
    parents = map(names.__getitem__, tree._parents[1:])
    lines.extend(map("  {} -> {};".format, parents, names[1:]))
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
    lines.extend(map("  ".__add__, source_lines))
    lines.append("  }")
    lines.append("  subgraph cluster_target {")
    lines.append('    label="target";')
    lines.extend(map("  ".__add__, target_lines))
    lines.append("  }")
    # The decorated levels k + 1 and k + 2 of the source, as far as it reaches.
    levels, images = covering.source._levels, covering.images
    last = len(levels) - 1
    for i in range(levels[min(covering.level + 1, last)], levels[min(covering.level + 3, last)]):
        lines.append(
            f"  {source_names[i]} -> {target_names[images[i]]} [style=dashed, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
