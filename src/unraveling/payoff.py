"""Symbolic payoff sets over the full-depth plays of a game tree.

Closedness is structural, never inferred: a closed set is given by the
generators of its open complement, i.e. the full-depth plays that avoid
every generator.  At finite depth every set of plays is trivially clopen,
so the generator representation is what carries the topological content;
generators are restricted to non-terminal positions strictly between the
root and the depth bound.

"Decided by depth d" is the finite rendering of clopen: membership of a
full-depth play depends only on its length-``d`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ArenaError,
    GameTree,
    Position,
    format_position,
    is_prefix,
    position_key,
)


@dataclass(frozen=True)
class ClosedSpec:
    """Generator set of an open complement; realizes to a closed set."""

    generators: tuple[Position, ...]

    def __init__(self, generators=()):
        ordered = tuple(sorted({tuple(g) for g in generators}, key=position_key))
        object.__setattr__(self, "generators", ordered)


@dataclass(frozen=True)
class Closed:
    spec: ClosedSpec


@dataclass(frozen=True)
class Open:
    spec: ClosedSpec


@dataclass(frozen=True)
class ClosedUnion:
    parts: tuple[ClosedSpec, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("union payoff must have at least one member")
        object.__setattr__(self, "parts", parts)


PayoffSpec = Closed | Open | ClosedUnion


def check_generators(tree: GameTree, spec: ClosedSpec) -> None:
    """Generators must be non-terminal tree positions of depth 1..depth-1."""
    for generator in spec.generators:
        if generator not in tree:
            fault = "generator on unknown position {}"
        elif not 1 <= len(generator) < tree.depth:
            fault = f"generator {{}} outside depth range 1..{tree.depth - 1}"
        elif tree.is_terminal(generator):
            fault = "generator {} is terminal"
        else:
            continue
        raise ArenaError(fault.format(format_position(generator)), generator)


def _closed_leaves(tree: GameTree, spec: ClosedSpec) -> frozenset:
    check_generators(tree, spec)
    return frozenset(
        leaf
        for leaf in tree.full_depth_plays()
        if not any(is_prefix(g, leaf) for g in spec.generators)
    )


def realize(tree: GameTree, payoff: PayoffSpec) -> frozenset:
    """The explicit set of full-depth plays a payoff spec denotes."""
    if isinstance(payoff, Closed):
        return _closed_leaves(tree, payoff.spec)
    if isinstance(payoff, Open):
        return frozenset(tree.full_depth_plays()) - _closed_leaves(tree, payoff.spec)
    if isinstance(payoff, ClosedUnion):
        out: frozenset = frozenset()
        for part in payoff.parts:
            out |= _closed_leaves(tree, part)
        return out
    raise TypeError(f"not a payoff spec: {payoff!r}")


def decided_by_depth(tree: GameTree, leaves, depth: int) -> bool:
    """True iff membership depends only on the length-``depth`` prefix."""
    if not 0 <= depth <= tree.depth:
        raise ValueError("depth out of range")
    verdict_by_prefix: dict[Position, bool] = {}
    for leaf in tree.full_depth_plays():
        prefix = leaf[:depth]
        verdict = leaf in leaves
        if verdict_by_prefix.setdefault(prefix, verdict) != verdict:
            return False
    return True


def _complement_generators(tree: GameTree, leaves, depth: int) -> ClosedSpec:
    """Generators at ``depth`` whose closed realization is the complement of
    a set decided by ``depth``.  Positions without full-depth descendants
    are skipped: they exclude nothing, and in a taboo tree they may be
    terminal."""
    generators = []
    for position in tree.positions():
        if len(position) != depth or tree.is_terminal(position):
            continue
        below = [leaf for leaf in tree.full_depth_plays() if is_prefix(position, leaf)]
        if below and all(leaf in leaves for leaf in below):
            generators.append(position)
    return ClosedSpec(generators)
