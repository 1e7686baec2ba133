import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    GameTree,
    Player,
    Strategy,
    _evaluate,
    consistent_plays,
    is_consistent,
    is_winning_strategy,
    random_strategy,
    strategy_from,
)
from unraveling.core import ResourceLimitError
from unraveling.randgen import random_tree, rng_for

import oracles


def always(label):
    return lambda position, labels: label if label in labels else labels[0]


# ---------------------------------------------------------------- GameTree


def test_tree_rejects_odd_depth():
    with pytest.raises(ValueError):
        GameTree(3, {(): []})


def test_tree_rejects_missing_parent():
    with pytest.raises(ValueError, match="prefix closure"):
        GameTree.from_nodes(2, [(0, 0)])


def test_tree_rejects_untagged_early_terminal():
    with pytest.raises(ValueError, match="partition"):
        GameTree.from_nodes(4, [(0,), (0, 0)])  # 0/0 terminal at depth 2


def test_tree_rejects_taboo_at_full_depth():
    with pytest.raises(ValueError, match="taboo at full depth"):
        GameTree.from_nodes(
            2, [(0,), (0, 0)], {(0, 0): Player.I}
        )


def test_tree_rejects_taboo_on_internal_node(ex1):
    with pytest.raises(ValueError, match="non-terminal"):
        GameTree.from_nodes(4, [p for p in ex1.positions() if p], {(0,): Player.I})


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_positions_match_sort_oracle(seed):
    tree = random_tree(rng_for(f"order:{seed}"), depth=6, branching=3, taboos=3)
    rng = rng_for(f"order-shuffle:{seed}")
    nodes = list(tree.positions())
    rng.shuffle(nodes)
    children = {p: rng.sample(tree.children_of(p), len(tree.children_of(p))) for p in nodes}
    rebuilt = GameTree(tree.depth, children, dict(tree.taboo_items()))
    assert list(rebuilt.positions()) == oracles.canonical_order_by_sort(nodes)
    assert rebuilt == tree


def test_random_tree_node_cap_only_counts():
    # within the cap an arena and the rng draws are those of an uncapped walk
    for seed in range(10):
        free, capped = rng_for(f"cap:{seed}"), rng_for(f"cap:{seed}")
        tree = random_tree(free, depth=6, branching=3, taboos=3)
        assert random_tree(capped, depth=6, branching=3, taboos=3, node_max=1093) == tree
        assert capped.getstate() == free.getstate()
    # a chain of depth 6 grows 7 positions
    assert random_tree(rng_for("chain"), depth=6, branching=1, taboos=0, node_max=7).node_count == 7
    with pytest.raises(ResourceLimitError, match="random arena exceeds 6 nodes"):
        random_tree(rng_for("chain"), depth=6, branching=1, taboos=0, node_max=6)


def test_complete_deep_chain_within_default_recursion_limit():
    chain = GameTree.complete(3000, 1)
    assert chain.node_count == 3001
    assert chain.positions()[-1] == (0,) * 3000


def test_ex_fixture_sizes(ex1, ex2, ex3):
    assert ex1.node_count == 31
    assert ex2.node_count == 25
    assert ex3.node_count == 7


# ----------------------------------------------------- oracles.subtree_at


def test_subtree_at_root_is_identity(ex1):
    assert oracles.subtree_at(ex1, ()) == ex1


def test_subtree_at_level_one(ex1):
    sub = oracles.subtree_at(ex1, (1,))
    assert sub.children_of(()) == (1,)
    assert sub.children_of((1,)) == (0, 1)
    assert sub.node_count == 1 + 1 + 2 + 4 + 8


def test_subtree_at_taboo_chain(ex2):
    sub = oracles.subtree_at(ex2, (0, 0))
    assert sorted(sub.positions(), key=len) == [(), (0,), (0, 0)]
    assert sub.taboo_owner((0, 0)) is Player.II
    assert sub.depth == 4


def test_subtree_unknown_position(ex1):
    with pytest.raises(ValueError, match="unknown position"):
        oracles.subtree_at(ex1, (5,))


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_subtree_matches_set_comprehension_oracle(seed):
    tree = random_tree(rng_for(f"sub:{seed}"), depth=4, branching=3, taboos=2)
    rng = rng_for(f"sub-pick:{seed}")
    position = rng.choice(list(tree.positions()))
    sub = oracles.subtree_at(tree, position)
    assert set(sub.positions()) == oracles.subtree_nodes(tree, position)
    for q in sub.positions():
        assert sub.taboo_owner(q) == tree.taboo_owner(q)


# ----------------------------------------------------- play classification


def test_classify_full_depth_leaves(ex1):
    for leaf in ex1.full_depth_plays():
        assert ex1.taboo_owner(leaf) is None
        assert _evaluate(ex1, leaf, frozenset()) is Player.II
        assert _evaluate(ex1, leaf, frozenset({leaf})) is Player.I


def test_classify_taboo_and_full_depth(ex2):
    everything = frozenset(ex2.full_depth_plays())
    assert _evaluate(ex2, (0, 0), everything) is Player.I  # taboo for II, whatever the payoff
    assert _evaluate(ex2, (1, 1, 0, 0), frozenset()) is Player.II


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_partition_property(seed):
    """Every play is either full-depth or tagged with exactly one taboo owner."""
    tree = random_tree(rng_for(f"part:{seed}"), depth=6, branching=2, taboos=3)
    for play in oracles.plays(tree):
        owner = tree.taboo_owner(play)
        if len(play) == tree.depth:
            assert owner is None
        else:
            assert owner in (Player.I, Player.II)


# ----------------------------------------------------------- is_consistent


def test_root_consistent_with_anything(ex1):
    assert is_consistent((), oracles.least_strategy(ex1, Player.I))
    assert is_consistent((), oracles.least_strategy(ex1, Player.II))


def test_consistency_examples(ex1):
    play_zero = strategy_from(ex1, Player.I, always(0))
    assert is_consistent((0, 1, 0, 1), play_zero)
    assert not is_consistent((1, 0, 0, 0), play_zero)


# -------------------------------------------------------- consistent_plays


def test_single_branching_gives_unique_play(ex3):
    least = oracles.least_strategy(ex3, Player.I)
    for strategy in (least, strategy_from(ex3, Player.I, always(1))):
        plays = consistent_plays(ex3, strategy)
        assert len(plays) == 1


def test_consistent_plays_examples(ex1, ex2):
    play_zero = strategy_from(ex1, Player.I, always(0))
    plays = set(consistent_plays(ex1, play_zero))
    assert plays == {(0, a, 0, b) for a in (0, 1) for b in (0, 1)}

    play_one = strategy_from(ex2, Player.II, always(1))
    plays = set(consistent_plays(ex2, play_one))
    assert plays == {(0, 1, a, 1) for a in (0, 1)} | {(1, 1, a, 1) for a in (0, 1)}
    assert (0, 0) not in plays


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_consistent_plays_match_filter_oracle_and_nonempty(seed):
    tree = random_tree(rng_for(f"cp:{seed}"), depth=4, branching=3, taboos=2)
    rng = rng_for(f"cp-strat:{seed}")
    for owner in (Player.I, Player.II):
        strategy = random_strategy(rng, tree, owner)
        plays = consistent_plays(tree, strategy)
        assert plays, "total strategies always produce at least one play"
        assert set(plays) == oracles.consistent_plays_filter(tree, strategy)


# ------------------------------------------------- evaluate / winning


def test_evaluate_play_clauses(ex1, ex2):
    assert _evaluate(ex2, (0, 0), frozenset()) is Player.I  # taboo for II
    leaf = (1, 1, 0, 0)
    assert _evaluate(ex1, leaf, frozenset()) is Player.II
    assert _evaluate(ex1, leaf, frozenset({leaf})) is Player.I


def test_evaluate_rejects_early_terminal_in_payoff(ex2):
    with pytest.raises(ValueError, match="full-depth"):
        is_winning_strategy(ex2, frozenset({(0, 0)}), oracles.least_strategy(ex2, Player.I))


def test_is_winning_strategy_examples(ex1, ex2):
    payoff = frozenset(l for l in ex1.full_depth_plays() if l[0] == 0)
    assert is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(0)))
    assert not is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(1)))
    assert is_winning_strategy(ex2, frozenset(), strategy_from(ex2, Player.II, always(1)))


# ----------------------------------------------------------------- misc


def test_strategy_move_at_missing_position(ex1):
    with pytest.raises(ValueError, match="not total"):
        Strategy(Player.I, {}).move_at((0, 0))


def test_tree_equality(ex1):
    assert ex1 == GameTree.complete(4, 2)
    assert ex1 != GameTree.complete(4, 3)


def test_tree_rejects_duplicate_siblings():
    with pytest.raises(ValueError, match="duplicate sibling"):
        GameTree(2, {(): [0, 0], (0,): []})


def test_children_and_tags_of_unknown_position(ex1):
    with pytest.raises(ValueError, match="unknown position"):
        ex1.children_of((7,))
    with pytest.raises(ValueError, match="unknown position"):
        ex1.taboo_owner((7,))


def test_strategy_from_rejects_illegal_choice(ex1):
    with pytest.raises(ValueError, match="illegal choice"):
        strategy_from(ex1, Player.I, lambda p, labels: 9)


def test_tree_repr(ex1):
    assert repr(ex1) == "GameTree(depth=4, nodes=31)"
