from pathlib import Path

import pytest

from unraveling.core import GameTree, Player

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def ex1() -> GameTree:
    """Complete binary tree, depth 4, no early terminals."""
    return GameTree.complete(4, 2)


@pytest.fixture(scope="session")
def ex2(ex1) -> GameTree:
    """EX1 with node 0/0 early-terminal, a loss for player II."""
    nodes = [p for p in ex1.positions() if p and not (len(p) > 2 and p[:2] == (0, 0))]
    return GameTree(4, nodes, {(0, 0): Player.II})


@pytest.fixture(scope="session")
def ex3() -> GameTree:
    """Chain of two, a binary fan at depth 2, then single chains to depth 4."""
    return GameTree(
        4, [(0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0)]
    )


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
