"""Symbolic payoff sets over the full-depth plays of a game tree.

Closedness is structural, never inferred: a closed set is given by the
generators of its open complement, i.e. the full-depth plays that avoid
every generator.  At finite depth every set of plays is trivially clopen,
so the generator representation is what carries the topological content;
generators are restricted to non-terminal positions strictly between the
root and the depth bound.

A payoff is one expression: ``Closed(spec)``, ``Not(e)`` (the complement
within the full-depth plays) or ``Union(e, ...)``.  ``Open(spec)`` builds
``Not(Closed(spec))`` and ``ClosedUnion(specs)`` a union of closed sets.

``realize`` turns an expression into the ``Plays`` it denotes, one byte
per full-depth play (see ``unraveling.core``): a closed set flips the
generator marks of ``_banned``, a complement flips the bytes and a union
ORs them.  The functions here that read a payoff set take a ``Plays`` of
the tree or any other set of positions, which they convert once.

"Decided by depth d" is the finite rendering of clopen: membership of a
full-depth play depends only on its length-``d`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import pairwise
from operator import or_

from .core import (
    ArenaError,
    CheckResult,
    GameTree,
    Plays,
    Position,
    _as_plays,
    format_position,
)


@dataclass(frozen=True)
class ClosedSpec:
    """Generator set of an open complement; realizes to a closed set."""

    generators: tuple[Position, ...]

    def __init__(self, generators=()):
        ordered = tuple(sorted({tuple(g) for g in generators}))
        object.__setattr__(self, "generators", ordered)


@dataclass(frozen=True)
class Closed:
    spec: ClosedSpec


@dataclass(frozen=True)
class Not:
    payoff: PayoffSpec


@dataclass(frozen=True)
class Union:
    parts: tuple[PayoffSpec, ...]

    def __init__(self, *parts):
        if not parts:
            raise ValueError("union payoff must have at least one member")
        object.__setattr__(self, "parts", parts)


PayoffSpec = Closed | Not | Union


def Open(spec: ClosedSpec) -> Not:
    return Not(Closed(spec))


def ClosedUnion(specs) -> Union:
    return Union(*map(Closed, specs))


def map_closed(payoff: PayoffSpec, leaf) -> PayoffSpec:
    """``payoff`` with each ``Closed(spec)`` replaced by ``Closed(leaf(spec))``."""
    if isinstance(payoff, Closed):
        return Closed(leaf(payoff.spec))
    if isinstance(payoff, Not):
        return Not(map_closed(payoff.payoff, leaf))
    if isinstance(payoff, Union):
        return Union(*(map_closed(part, leaf) for part in payoff.parts))
    raise TypeError(f"not a payoff spec: {payoff!r}")


def check_generators(tree: GameTree, spec: ClosedSpec) -> list[int]:
    """Generators must be non-terminal tree positions of depth 1..depth-1;
    returns their node ids, in generator order."""
    ids = []
    for generator in spec.generators:
        try:
            i = tree._id(generator)
        except ValueError:
            fault = "generator on unknown position {}"
        else:
            if not 1 <= len(generator) < tree.depth:
                fault = f"generator {{}} outside depth range 1..{tree.depth - 1}"
            elif not tree._labels[i]:
                fault = "generator {} is terminal"
            else:
                ids.append(i)
                continue
        raise ArenaError(fault.format(format_position(generator)), generator)
    return ids


def _banned(tree: GameTree, spec: ClosedSpec) -> bytearray:
    """By id, 1 on every node at or below a generator (``check_generators``
    first): one forward pass over the marked parents, which come before
    their children; a full-depth play is no parent.  The closed set is the
    full-depth plays left at 0."""
    first, end = tree._first, tree._levels[tree.depth]
    banned = bytearray(len(tree._ordered))
    for i in check_generators(tree, spec):
        banned[i] = 1
    i = banned.find(1, 0, end)
    while i >= 0:
        lo, hi = first[i], first[i + 1]
        banned[lo:hi] = b"\x01" * (hi - lo)
        i = banned.find(1, i + 1, end)
    return banned


def realize(tree: GameTree, payoff: PayoffSpec) -> Plays:
    """The full-depth plays a payoff expression denotes: a closed set's are
    the complement of the ``_banned`` ones, a complement flips its
    operand's bytes and a union ORs its parts' bytes."""
    if isinstance(payoff, Closed):
        banned = _banned(tree, payoff.spec)
        return ~Plays(tree, bytes(banned[tree._levels[tree.depth] :]))
    if isinstance(payoff, Not):
        return ~realize(tree, payoff.payoff)
    if isinstance(payoff, Union):
        masks = [realize(tree, part).mask for part in payoff.parts]
        union = reduce(or_, [int.from_bytes(mask, "big") for mask in masks])
        return Plays(tree, union.to_bytes(len(masks[0]), "big"))
    raise TypeError(f"not a payoff spec: {payoff!r}")


def decided_by_depth(tree: GameTree, leaves, depth: int) -> CheckResult:
    """Passes iff membership depends only on the length-``depth`` prefix; a
    failure names two full-depth plays with that prefix in common, the
    first in ``leaves`` and the second not.

    The full-depth plays below one length-``depth`` node are one
    consecutive block of ids, found by mapping the level's bounds through
    the first-child offsets down to the bound; the first block (in id
    order) whose plays disagree names its first play and the first play
    in it that disagrees with that one."""
    if not 0 <= depth <= tree.depth:
        raise ValueError("depth out of range")
    verdicts = _as_plays(tree, leaves).mask  # by id past ``start``
    ordered, first, levels = tree._ordered, tree._first, tree._levels
    bounds = range(levels[depth], levels[depth + 1] + 1)
    for _ in range(tree.depth - depth):
        bounds = list(map(first.__getitem__, bounds))
    start = levels[tree.depth]
    for lo, hi in pairwise(bounds):
        if lo == hi:
            continue  # no full-depth play below this node
        verdict = verdicts[lo - start]
        other = verdicts.find(verdict ^ 1, lo - start, hi - start)
        if other >= 0:
            inside, outside = ordered[lo], ordered[start + other]
            if not verdict:
                inside, outside = outside, inside
            return CheckResult(
                False,
                f"plays {format_position(inside)} (in) and {format_position(outside)} (out)"
                f" share the length-{depth} prefix",
            )
    return CheckResult(True)


def _complement_generators(tree: GameTree, leaves, depth: int) -> ClosedSpec:
    """Generators at ``depth`` whose closed realization is the complement of
    ``leaves``, which must be decided by ``depth`` (``decided_by_depth``):
    the length-``depth`` prefixes of its plays, all of whose full-depth
    plays are then in the set.  Positions without full-depth descendants
    are never candidates: they exclude nothing, and in a taboo tree they
    may be terminal.  A prefix of a full-depth play is non-terminal exactly
    when it is shorter than the bound, so at the bound there are none."""
    if depth == tree.depth:
        return ClosedSpec()
    return ClosedSpec(leaf[:depth] for leaf in _as_plays(tree, leaves))
