import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    ArenaError,
    GameTree,
    InternalInvariantError,
    Player,
    Strategy,
    _evaluate,
    consistent_plays,
    format_position,
    is_consistent,
    is_winning_strategy,
    random_strategy,
    strategy_from,
)
from unraveling.core import ResourceLimitError
from unraveling.randgen import random_tree, rng_for
from unraveling.unravel import Accept, Claim

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


def test_tree_rejects_siblings_of_different_kinds_naming_their_parent():
    claim, accept = Claim(0, ()), Accept(1)
    cases = [
        ({(): [claim, 0], (0,): [0], (0, 0): [], (claim,): [0], (claim, 0): []}, ()),
        ({(): [0], (0,): [1, accept], (0, 1): [], (0, accept): []}, (0,)),
    ]
    for children, parent in cases:
        with pytest.raises(ArenaError) as raised:
            GameTree(2, children)
        assert str(raised.value) == f"incomparable sibling labels under {format_position(parent)}"
        assert raised.value.position == parent


I, II = Player.I, Player.II


@pytest.mark.parametrize(
    "depth, children, taboo, message, position",
    [
        pytest.param(
            4,
            {(): [0, 1], (0,): [0], (0, 0): [], (1,): [0], (1, 0): [0], (1, 0, 0): [0],
             (1, 0, 0, 0): [], (5, 5): []},
            {},
            "position 5/5 unreachable (prefix closure)",
            (5, 5),
            id="stray-node-and-untagged-early-terminal",
        ),
        pytest.param(
            4, {(): [0], (0,): [1, 1], (0, 1): []}, {(0,): I},
            "duplicate sibling labels under 0", (0,),
            id="duplicate-siblings-and-tag-on-non-terminal",
        ),
        pytest.param(
            2, {(): [0, 1], (0,): [], (1,): [2], (1, 2): [3], (1, 2, 3): []}, {(0,): "I"},
            "node 1/2/3 exceeds depth bound 2", (1, 2, 3),
            id="tag-naming-no-player-and-node-past-depth",
        ),
        pytest.param(
            4,
            {(): [0, 1], (0,): [0], (0, 0): [0], (0, 0, 0): [0], (0, 0, 0, 0): [], (1,): []},
            {(0, 0, 0, 0): I, (9,): II},
            "taboo at full depth: 0/0/0/0",
            (0, 0, 0, 0),
            id="full-depth-tag-before-unknown-tag-and-untagged-early-terminal",
        ),
        pytest.param(
            4,
            {(): [0, 1, 2, 3], (0,): [], (1,): [], (2,): [0], (2, 0): [0], (2, 0, 0): [0],
             (2, 0, 0, 0): [], (3,): []},
            {(0,): I, (1,): None, (2,): II},
            "taboo tag on 1 must name a player",
            (1,),
            id="valid-tag-then-tag-naming-no-player-then-non-terminal-tag",
        ),
        pytest.param(
            4, {(): [1, 0], (0,): [], (2,): []}, {},
            "child 1 not stored (prefix closure)", (1,),
            id="missing-child-and-stray-node",
        ),
        pytest.param(
            4, {(): [0, 1], (1,): [], (0,): [0], (0, 0): []}, {},
            "early terminal 1 lacks a taboo tag (partition)", (1,),
            id="two-untagged-early-terminals-first-in-canonical-order",
        ),
        pytest.param(
            2, {(1,): []}, {(9,): II}, "missing root position", (),
            id="missing-root-before-stray-node-and-unknown-tag",
        ),
    ],
)
def test_tree_names_its_first_fault_on_inputs_with_several(
    depth, children, taboo, message, position
):
    with pytest.raises(ArenaError) as raised:
        GameTree(depth, children, taboo)
    assert str(raised.value) == message
    assert raised.value.position == position


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
    assert list(chain._levels) == [*range(3001), 3001]
    oracles.assert_matches_checked_build(chain)


def test_level_offsets_when_every_play_ends_in_an_early_taboo():
    """Levels past the deepest node are empty: each starts and ends at n."""
    tree = GameTree.from_nodes(6, [(0,), (1,), (0, 0)], {(1,): Player.I, (0, 0): Player.II})
    assert list(tree._levels) == [0, 1, 3, 4, 4, 4, 4, 4]
    assert list(tree.full_depth_plays()) == []
    oracles.assert_matches_checked_build(tree)
    from_ids = GameTree._from_ids(6, list(tree.positions()), tree._labels, tree._tags)
    oracles.assert_matches_checked_build(from_ids)


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
    assert oracles.taboo_owner(sub, (0, 0)) is Player.II
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
        assert oracles.taboo_owner(sub, q) == oracles.taboo_owner(tree, q)


# ----------------------------------------------------- play classification


def test_classify_full_depth_leaves(ex1):
    for leaf in ex1.full_depth_plays():
        assert oracles.taboo_owner(ex1, leaf) is None
        assert _evaluate(ex1, ex1._id(leaf), frozenset()) is Player.II
        assert _evaluate(ex1, ex1._id(leaf), frozenset({leaf})) is Player.I


def test_classify_taboo_and_full_depth(ex2):
    everything = frozenset(ex2.full_depth_plays())
    # taboo for II, whatever the payoff
    assert _evaluate(ex2, ex2._id((0, 0)), everything) is Player.I
    assert _evaluate(ex2, ex2._id((1, 1, 0, 0)), frozenset()) is Player.II


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_partition_property(seed):
    """Every play is either full-depth or tagged with exactly one taboo owner."""
    tree = random_tree(rng_for(f"part:{seed}"), depth=6, branching=2, taboos=3)
    for play in oracles.plays(tree):
        owner = oracles.taboo_owner(tree, play)
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
    assert _evaluate(ex2, ex2._id((0, 0)), frozenset()) is Player.I  # taboo for II
    leaf = (1, 1, 0, 0)
    assert _evaluate(ex1, ex1._id(leaf), frozenset()) is Player.II
    assert _evaluate(ex1, ex1._id(leaf), frozenset({leaf})) is Player.I


def test_evaluate_rejects_early_terminal_in_payoff(ex2):
    with pytest.raises(ValueError, match="full-depth"):
        is_winning_strategy(ex2, frozenset({(0, 0)}), oracles.least_strategy(ex2, Player.I))


def test_is_winning_strategy_examples(ex1, ex2):
    payoff = frozenset(l for l in ex1.full_depth_plays() if l[0] == 0)
    assert is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(0)))
    assert not is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(1)))
    assert is_winning_strategy(ex2, frozenset(), strategy_from(ex2, Player.II, always(1)))


def test_is_winning_strategy_names_the_first_lost_play(ex1):
    payoff = frozenset(l for l in ex1.full_depth_plays() if l[0] == 0)
    assert is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(0))).detail is None
    losing = is_winning_strategy(ex1, payoff, strategy_from(ex1, Player.I, always(1)))
    assert losing.detail == "loses play 1/0/1/0"


# ----------------------------------------------------------------- misc


def test_strategy_move_at_missing_position(ex1):
    with pytest.raises(ValueError, match="not total"):
        Strategy(Player.I, {}).move_at((0, 0))
    choices = dict(strategy_from(ex1, Player.I, always(0)).choices)
    choices[(0, 1)] = 7  # a label that is not a child
    with pytest.raises(ValueError, match="unknown position 0/1/7"):
        consistent_plays(ex1, Strategy(Player.I, choices))


def test_tree_equality(ex1):
    assert ex1 == GameTree.complete(4, 2)
    assert ex1 != GameTree.complete(4, 3)


def test_tree_is_unequal_to_other_types():
    assert not (GameTree.complete(2, 1) == "x")
    assert GameTree.complete(2, 1) != "x"


def test_tree_rejects_duplicate_siblings():
    with pytest.raises(ValueError, match="duplicate sibling"):
        GameTree(2, {(): [0, 0], (0,): []})


def test_children_and_tags_of_unknown_position(ex1):
    with pytest.raises(ValueError, match="unknown position"):
        ex1.children_of((7,))


def test_strategy_from_rejects_illegal_choice(ex1):
    with pytest.raises(ValueError, match="illegal choice"):
        strategy_from(ex1, Player.I, lambda p, labels: 9)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_decisions_filter_positions_once_per_player(seed):
    tree = random_tree(rng_for(f"decisions:{seed}"), depth=6, branching=3, taboos=3)
    for owner in Player:
        table = tree.decisions(owner)
        assert list(table) == oracles.decision_positions(tree, owner)
        assert all(labels == tree.children_of(p) for p, labels in table.items())
        assert tree.decisions(owner) is table
        with pytest.raises(TypeError):
            table[()] = ()  # read-only: shared by every strategy over the tree
        # a random strategy draws one choice per decision position, in canonical order
        drawn, replay = rng_for(f"draw:{seed}"), rng_for(f"draw:{seed}")
        expected = {
            p: replay.choice(tree.children_of(p))
            for p in oracles.decision_positions(tree, owner)
        }
        assert random_strategy(drawn, tree, owner).choices == expected


def test_id_form_entry_checks_the_tags_and_the_depth_bound(ex2):
    arrays = list(ex2._ordered), list(ex2._labels)

    def rebuilt(depth, tags):
        return GameTree._from_ids(depth, *arrays, tags)

    assert rebuilt(4, ex2._tags) == ex2
    faults = {
        "0/0": (ex2._id((0, 0)), 0),  # an early terminal left untagged
        "-": (0, 1),  # a tag on an inner node
        "1/1/1/1": (ex2.node_count - 1, 2),  # a tag on a full-depth play
    }
    for position, (i, tag) in faults.items():
        tags = bytearray(ex2._tags)
        tags[i] = tag
        with pytest.raises(InternalInvariantError, match=f"taboo tag at {position} does not"):
            rebuilt(4, tags)
    with pytest.raises(InternalInvariantError, match="1/1/1/1 exceeds depth bound 2"):
        rebuilt(2, ex2._tags)


def test_tree_repr(ex1):
    assert repr(ex1) == "GameTree(depth=4, nodes=31)"
