"""Seeded random arenas: the id-form draw against the reference walk, the
pinned stream of every benchmark and ``fuzz`` shape, and the draw's memory.

``fixtures/drawn_games.json`` holds, per shape, the sha256 digest of the
canonical text (``format_game``) of the games drawn from a fixed range of
seeds, so a change to what ``randgen`` draws, or to the rng calls it makes
on the way, fails here and not only in the benchmark's goldens.  To record
the digests again after a deliberate change of the stream, run
``PYTHONPATH=src python tests/test_randgen.py``; with ``--print-fuzz N`` it
prints the text of the first N games of every ``fuzz`` shape instead.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from unraveling.core import GameTree
from unraveling.gamedoc import format_game, to_document
from unraveling.payoff import Closed, ClosedUnion, Open
from unraveling.randgen import random_game, random_tree, random_union_instance, rng_for
from unraveling.unravel import _generator_floor

import oracles

def _draw(build, seed, shape):
    """What ``build`` makes of a fresh seeded rng: the tree, or the type and
    message of what it raised, with the rng state it left."""
    rng = rng_for(f"draw:{seed}")
    try:
        made = build(rng, **shape)
    except Exception as error:
        made = (type(error), str(error))
    return made, rng.getstate()


# Caps from the root alone up to a few thousand nodes: the smaller ones
# stop most deep draws part way, at a node above the bound or at the bound.
NODE_CAPS = (1, 2, 7, 40, 300, 3000)


@pytest.mark.parametrize("depth", range(-1, 11))
def test_random_tree_matches_the_reference_walk(depth):
    """Arrays, rng state and errors as the children-dict walk and the
    checked constructor give them, over branching 1-4, taboos 0-8 and
    node caps from 1 to 3000, including odd and illegal depth bounds."""
    drawn = 0
    for branching in range(1, 5):
        for taboos in range(9):
            for n, node_max in enumerate(NODE_CAPS):
                seed = f"{depth}:{branching}:{taboos}:{n}"
                shape = dict(depth=depth, branching=branching, taboos=taboos, node_max=node_max)
                tree, state = _draw(random_tree, seed, shape)
                expected, expected_state = _draw(oracles.reference_random_tree, seed, shape)
                assert state == expected_state, shape
                if not isinstance(expected, GameTree):
                    assert tree == expected, shape
                    continue
                for name in ("_ordered", "_labels", "_first", "_levels", "_tags"):
                    assert getattr(tree, name) == getattr(expected, name), (shape, name)
                oracles.assert_matches_checked_build(tree)
                drawn += 1
    assert drawn or depth < 2 or depth % 2


@pytest.mark.parametrize(
    "shape",
    [
        dict(depth=4, branching=0),  # ``randint(1, 0)`` at the root
        dict(depth=4, taboos=-1),  # ``randint(0, -1)`` after the draw
        dict(depth=-3, taboos=-1),
        dict(depth=6, node_max=0),
        dict(depth=-1, node_max=0),
        dict(depth=2, branching=5, taboos=3, node_max=6),
    ],
)
def test_random_tree_fails_as_the_reference_walk(shape):
    made, state = _draw(random_tree, "odd", shape)
    assert (made, state) == _draw(oracles.reference_random_tree, "odd", shape)


def _peak_and_kept(build):
    """The tracemalloc peak while ``build()`` runs, and what its result
    still holds when it returns."""
    tracemalloc.start()
    try:
        made = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert made is not None
    return peak, kept


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_tree(rng_for("chain"), depth=2000, branching=1, taboos=0),
        lambda: GameTree.complete(3000, 1),
    ],
    ids=["random_tree", "complete"],
)
def test_deep_chains_peak_near_the_finished_tree(build):
    """A chain's positions hold ``depth * (depth + 1) / 2`` labels, nearly
    all of its memory: the builders write each position once and keep no
    second table of them while they build."""
    peak, kept = _peak_and_kept(build)
    assert kept > 15_000_000  # bytes: the positions of the chain
    assert peak < 1.25 * kept


DIGESTS = Path(__file__).resolve().parent / "fixtures" / "drawn_games.json"
DRAWS = 60  # games per shape


def _bench_arena(i):
    tree, spec = random_game(
        f"bench:arena:1:{i}", depth=8, branching=3, taboos=6, generators=3, min_generator_depth=3
    )
    return tree, Closed(spec)


def _bench_union(i):
    tree, specs = random_union_instance(
        f"bench:union:1:{i}", depth=6, branching=2, taboos=3, parts=3
    )
    return tree, ClosedUnion(specs)


def _bench_cli(i):
    tree, spec = random_game(f"bench:cli:1:{i}", depth=6, branching=3, taboos=3, generators=3)
    return tree, Closed(spec)


def _fuzz(depth, branching):
    """The games ``fuzz --seed 7919`` draws at this shape, with their payoffs."""

    def draw(i):
        tree, spec = random_game(
            f"7919:{i}",
            depth=depth,
            branching=branching,
            taboos=3,
            generators=3,
            min_generator_depth=_generator_floor(0, depth),
        )
        return tree, Open(spec) if i % 2 else Closed(spec)

    return draw


SHAPES = {
    "bench-arena": _bench_arena,
    "bench-union": _bench_union,
    "bench-cli": _bench_cli,
    **{
        f"fuzz-depth{depth}-branch{branching}": _fuzz(depth, branching)
        for depth in (4, 6, 8)
        for branching in (2, 3)
    },
}


def drawn_texts(shape: str, draws: int = DRAWS):
    """The canonical game text of each of the shape's first ``draws`` games."""
    draw = SHAPES[shape]
    for i in range(draws):
        yield format_game(to_document(*draw(i)))


def digest(shape: str) -> str:
    hashed = hashlib.sha256()
    for text in drawn_texts(shape):
        hashed.update(text.encode())
    return hashed.hexdigest()


@pytest.mark.parametrize("shape", SHAPES)
def test_drawn_games_match_the_pinned_digests(shape):
    pinned = json.loads(DIGESTS.read_text())
    assert pinned["draws"] == DRAWS
    assert digest(shape) == pinned["sha256"][shape]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--print-fuzz"]:  # the first N games of every fuzz shape
        for shape in SHAPES:
            if shape.startswith("fuzz-"):
                sys.stdout.writelines(drawn_texts(shape, int(sys.argv[2])))
    else:
        record = {"draws": DRAWS, "sha256": {shape: digest(shape) for shape in SHAPES}}
        DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
