import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    ArenaError,
    Choices,
    GameTree,
    InternalInvariantError,
    Player,
    Strategy,
    _as_plays,
    _decision_ids,
    consistent_plays,
    format_position,
    is_winning_strategy,
    random_strategy,
)
from unraveling.core import ResourceLimitError
from unraveling.randgen import random_game, random_tree, rng_for
from unraveling.solver import prune
from unraveling.unravel import Accept, Claim, build_base_covering

import oracles
from oracles import strategy_from


def always(label):
    return lambda position, labels: label if label in labels else labels[0]


def mask(tree, plays):
    """The ``Plays`` bytes of a set of full-depth plays, as the kernels read them."""
    return _as_plays(tree, plays).mask


# ---------------------------------------------------------------- GameTree


def test_tree_rejects_odd_depth():
    with pytest.raises(ValueError):
        GameTree(3, [])


def test_tree_rejects_missing_parent():
    with pytest.raises(ValueError, match="prefix closure"):
        GameTree(2, [(0, 0)])


def test_tree_rejects_untagged_early_terminal():
    with pytest.raises(ValueError, match="partition"):
        GameTree(4, [(0,), (0, 0)])  # 0/0 terminal at depth 2


def test_tree_rejects_taboo_at_full_depth():
    with pytest.raises(ValueError, match="taboo at full depth"):
        GameTree(
            2, [(0,), (0, 0)], {(0, 0): Player.I}
        )


def test_tree_rejects_taboo_on_internal_node(ex1):
    with pytest.raises(ValueError, match="non-terminal"):
        GameTree(4, [p for p in ex1.positions() if p], {(0,): Player.I})


@pytest.mark.parametrize(
    "depth, taboo, message",
    [
        pytest.param(3, {(1,): Player.I}, "depth bound must be an even integer", id="odd-depth"),
        pytest.param(2, {(1,): Player.I, (0, 0): Player.II}, "taboo at full depth: 0/0",
                     id="tag-at-full-depth"),
        pytest.param(2, {(1,): Player.I, (0,): Player.II}, "taboo tag on non-terminal position 0",
                     id="tag-on-non-terminal"),
        pytest.param(2, {(1,): Player.I, (7,): Player.II}, "taboo tag on unknown position 7",
                     id="tag-on-unknown"),
        pytest.param(2, {(1,): "I"}, "taboo tag on 1 must name a player", id="tag-not-a-player"),
        pytest.param(4, {(1,): Player.I}, r"early terminal 0/0 lacks a taboo tag \(partition\)",
                     id="untagged-early-terminal"),
        pytest.param(2, {}, r"early terminal 1 lacks a taboo tag \(partition\)", id="no-tags"),
    ],
)
def test_from_nodes_in_canonical_order_rejects_as_the_constructor_does(depth, taboo, message):
    """Positions in canonical order are stored by the constructor's one
    pass, and positions in any other order after its sort; both get the
    same errors, and so does a game file (``test_gamedoc.py``)."""
    nodes = [(0,), (1,), (0, 0)]
    for order in (nodes, nodes[::-1]):
        with pytest.raises(ArenaError, match=message):
            GameTree(depth, order, taboo)


def test_from_nodes_in_canonical_order_rejects_a_node_past_the_depth_bound():
    nodes = [(0,), (0, 0), (0, 0, 0)]
    for order in (nodes, nodes[::-1]):
        with pytest.raises(ArenaError, match="node 0/0/0 exceeds depth bound 2"):
            GameTree(2, order)


def test_tree_rejects_siblings_of_different_kinds_naming_their_parent():
    claim, accept = Claim(0, ()), Accept(1)
    cases = [
        ([(0,), (0, 0), (claim,), (claim, 0)], ()),
        ([(claim,), (0,), (claim, 0), (0, 0)], ()),
        ([(0,), (0, 1), (0, accept)], (0,)),
        ([(0, accept), (0, 1), (0,)], (0,)),
    ]
    for nodes, parent in cases:
        with pytest.raises(ArenaError) as raised:
            GameTree(2, nodes)
        assert str(raised.value) == f"incomparable sibling labels under {format_position(parent)}"
        assert raised.value.position == parent


I, II = Player.I, Player.II


@pytest.mark.parametrize(
    "depth, nodes, taboo, message, position",
    [
        pytest.param(
            4, [(0,), (0, 0), (1,), (1, 0), (1, 0, 0), (1, 0, 0, 0), (5, 5)], {},
            "missing parent of 5/5 (prefix closure)", (5, 5),
            id="stray-node-and-untagged-early-terminal",
        ),
        pytest.param(
            2, [(0,), (1,), (1, 2), (1, 2, 3)], {(0,): "I"},
            "node 1/2/3 exceeds depth bound 2", (1, 2, 3),
            id="tag-naming-no-player-and-node-past-depth",
        ),
        pytest.param(
            4, [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (1,)],
            {(0, 0, 0, 0): I, (9,): II},
            "taboo at full depth: 0/0/0/0",
            (0, 0, 0, 0),
            id="full-depth-tag-before-unknown-tag-and-untagged-early-terminal",
        ),
        pytest.param(
            4, [(0,), (1,), (2,), (2, 0), (2, 0, 0), (2, 0, 0, 0), (3,)],
            {(0,): I, (1,): None, (2,): II},
            "taboo tag on 1 must name a player",
            (1,),
            id="valid-tag-then-tag-naming-no-player-then-non-terminal-tag",
        ),
        pytest.param(
            4, [(1,), (0,), (0, 0)], {},
            "early terminal 1 lacks a taboo tag (partition)", (1,),
            id="two-untagged-early-terminals-first-in-canonical-order",
        ),
    ],
)
def test_tree_names_its_first_fault_on_inputs_with_several(
    depth, nodes, taboo, message, position
):
    with pytest.raises(ArenaError) as raised:
        GameTree(depth, nodes, taboo)
    assert str(raised.value) == message
    assert raised.value.position == position


def test_tree_names_the_first_orphan_in_the_callers_order_before_any_other_fault():
    """A missing parent is named before the depth bound and every arena
    rule, and of two orphans the first the caller lists, whatever the
    canonical order, as a game file names the first orphan row."""
    nodes = [(0,), (1,), (1, 0, 0), (0,), (0, 5, 5), (0, 0)]
    for order, orphan in ((nodes, (1, 0, 0)), (nodes[::-1], (0, 5, 5))):
        for depth in (3, 2):  # an odd depth bound, and one the orphans exceed
            with pytest.raises(ArenaError) as raised:
                GameTree(depth, order, {(7,): "no player"})
            assert str(raised.value) == (
                f"missing parent of {format_position(orphan)} (prefix closure)"
            )
            assert raised.value.position == orphan


def test_tree_drops_the_root_and_repeated_positions():
    tree = GameTree(2, [(0, 0), (), (0,), (0, 0), (0, 1), (0,), ()])
    assert tree == GameTree(2, [(0,), (0, 0), (0, 1)])
    assert tree.positions() == ((), (0,), (0, 0), (0, 1))


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_positions_match_sort_oracle(seed):
    tree = random_tree(rng_for(f"order:{seed}"), depth=6, branching=3, taboos=3)
    rng = rng_for(f"order-shuffle:{seed}")
    nodes = list(tree.positions())
    rng.shuffle(nodes)
    rebuilt = GameTree(tree.depth, nodes, dict(tree.taboo_items()))
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


def test_random_tree_deeper_than_the_cap_raises_before_drawing():
    """The first path alone holds ``depth + 1`` positions, so a depth at or
    over the cap fails before any draw, not after growing that path."""
    rng = rng_for("deep")
    state = rng.getstate()
    with pytest.raises(ResourceLimitError, match="random arena exceeds 2000 nodes"):
        random_tree(rng, depth=10**6, node_max=2000)
    assert rng.getstate() == state


def test_random_tree_over_the_label_budget_raises_before_drawing():
    """At a cap of 2000 nodes the budget is 50 000 position labels: the
    first path of depth 316 holds 50 086 of them, that of depth 314 49 455."""
    rng = rng_for("labels")
    state = rng.getstate()
    with pytest.raises(
        ResourceLimitError, match=r"random arena exceeds 50000 position labels \(25 per node"
    ):
        random_tree(rng, depth=316, branching=1, node_max=2000)
    assert rng.getstate() == state
    assert random_tree(rng, depth=314, branching=1, node_max=2000).node_count == 315


def test_complete_over_the_label_budget_raises_before_building():
    """The default budget is 5 000 000 labels: a chain of depth 3162 holds
    5 000 703, and a binary tree of depth 20 about 40 million."""
    tracemalloc.start()
    try:
        for depth, branching in ((3162, 1), (20, 2), (10**6, 3)):
            with pytest.raises(
                ResourceLimitError, match="complete tree exceeds 5000000 position labels"
            ):
                GameTree.complete(depth, branching)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # bytes: not one deep position was built


def test_complete_deep_chain_within_default_recursion_limit():
    chain = GameTree.complete(3000, 1)
    assert chain.node_count == 3001
    assert chain.positions()[-1] == (0,) * 3000
    assert list(chain._levels) == [*range(3001), 3001]
    oracles.assert_matches_checked_build(chain)


def _complete_by_constructor(depth, branching):
    """``GameTree.complete`` by its positions and the checked constructor,
    or the type and message of what that raises."""
    nodes, level = [], [()]
    for _ in range(depth):
        level = [position + (label,) for position in level for label in range(branching)]
        nodes += level
    try:
        return GameTree(depth, nodes)
    except ArenaError as error:
        return type(error), str(error), error.position


@pytest.mark.parametrize("depth", [-2, 0, 1, 2, 3, 4, 6])
@pytest.mark.parametrize("branching", [-1, 0, 1, 2, 3])
def test_complete_matches_the_checked_constructor(depth, branching):
    expected = _complete_by_constructor(depth, branching)
    if not isinstance(expected, GameTree):
        with pytest.raises(ArenaError) as raised:
            GameTree.complete(depth, branching)
        assert (type(raised.value), str(raised.value), raised.value.position) == expected
        return
    tree = GameTree.complete(depth, branching)
    for name in ("_ordered", "_labels", "_first", "_levels", "_tags"):
        assert getattr(tree, name) == getattr(expected, name), name
    oracles.assert_matches_checked_build(tree)


def test_level_offsets_when_every_play_ends_in_an_early_taboo():
    """Levels past the deepest node are empty: each starts and ends at n."""
    tree = GameTree(6, [(0,), (1,), (0, 0)], {(1,): Player.I, (0, 0): Player.II})
    assert list(tree._levels) == [0, 1, 3, 4, 4, 4, 4, 4]
    assert list(tree.full_depth_plays()) == []
    oracles.assert_matches_checked_build(tree)
    from_ids = GameTree._from_ids(6, list(tree.positions()), tree._labels, tree._tags)
    oracles.assert_matches_checked_build(from_ids)


@pytest.mark.parametrize(
    "lookup",
    [
        lambda tree: (0, 1) in tree,
        lambda tree: tree.children_of((0,)),
        lambda tree: random_strategy(rng_for("lookup"), tree, Player.I).choices.get(()),
        lambda tree: () in random_strategy(rng_for("lookup"), tree, Player.I).choices,
    ],
)
def test_checked_tree_builds_its_position_table_on_first_lookup(lookup):
    """The checked constructor leaves the table to the first lookup, as
    ``_from_ids`` does; walking by id, drawing a strategy too, never builds
    it.  A strategy read by position reads the tree's one table."""
    nodes = GameTree.complete(4, 2).positions()
    for tree in (GameTree.complete(4, 2), GameTree(4, nodes), GameTree(4, nodes[::-1])):
        list(tree.taboo_items())
        list(tree.full_depth_plays())
        random_strategy(rng_for("lookup"), tree, Player.I)
        assert "_children" not in vars(tree)
        lookup(tree)
        assert vars(tree)["_children"] == dict(zip(tree.positions(), tree._labels))


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


def follows(tree, owner, play):
    """The owner's strategy that makes the owner's moves of ``play`` and
    the least move everywhere else."""
    return strategy_from(
        tree, owner, lambda p, labels: play[len(p)] if play[: len(p)] == p else labels[0]
    )


def test_classify_full_depth_leaves(ex1):
    """A full-depth play is won by I iff it is in the payoff: the strategy
    that follows it wins when every consistent play is in the payoff, and
    loses exactly that play when it alone is left out."""
    for leaf in ex1.full_depth_plays():
        assert oracles.taboo_owner(ex1, leaf) is None
        strategy = follows(ex1, Player.I, leaf)
        others = frozenset(consistent_plays(ex1, strategy)) - {leaf}  # ex1 has no taboos
        assert is_winning_strategy(ex1, others | {leaf}, strategy)
        losing = is_winning_strategy(ex1, others, strategy)
        assert losing.detail == f"loses play {format_position(leaf)}"


def test_classify_taboo_and_full_depth(ex2):
    everything = frozenset(ex2.full_depth_plays())
    # taboo for II, whatever the payoff: I wins it even with no play in the
    # payoff, so the first play I's strategy loses comes after it
    into = follows(ex2, Player.I, (0, 0))
    assert is_winning_strategy(ex2, everything, into)
    assert is_winning_strategy(ex2, frozenset(), into).detail == "loses play 0/1/0/0"
    leaf = (1, 1, 0, 0)
    strategy = follows(ex2, Player.I, leaf)
    others = frozenset(consistent_plays(ex2, strategy)) - {leaf}
    assert is_winning_strategy(ex2, others, strategy).detail == "loses play 1/1/0/0"


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
    assert oracles.is_consistent((), oracles.least_strategy(ex1, Player.I))
    assert oracles.is_consistent((), oracles.least_strategy(ex1, Player.II))


def test_consistency_examples(ex1):
    play_zero = strategy_from(ex1, Player.I, always(0))
    assert oracles.is_consistent((0, 1, 0, 1), play_zero)
    assert not oracles.is_consistent((1, 0, 0, 0), play_zero)


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
    """``is_winning_strategy`` reads both winner tables: a taboo for II is
    lost by II's strategy into it whatever the payoff, and for II a
    full-depth play is lost iff it is in the payoff."""
    into = follows(ex2, Player.II, (0, 0))
    for payoff in (frozenset(), frozenset(ex2.full_depth_plays())):
        assert is_winning_strategy(ex2, payoff, into).detail == "loses play 0/0"
    leaf = (1, 1, 0, 0)
    strategy = follows(ex1, Player.II, leaf)
    assert is_winning_strategy(ex1, frozenset(), strategy)
    assert is_winning_strategy(ex1, frozenset({leaf}), strategy).detail == "loses play 1/1/0/0"


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


def test_strategy_missing_choice_or_unknown_label(ex1):
    with pytest.raises(ValueError, match=r"^strategy has no choice at - \(not total\)$"):
        consistent_plays(ex1, Strategy(Player.I, {}))
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


def test_children_and_tags_of_unknown_position(ex1):
    with pytest.raises(ValueError, match="unknown position"):
        ex1.children_of((7,))


def test_strategy_from_rejects_illegal_choice(ex1):
    with pytest.raises(ValueError, match="illegal choice"):
        strategy_from(ex1, Player.I, lambda p, labels: 9)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_random_strategies_draw_once_per_decision_position(seed):
    """On a checked tree and on the trees its builders write in id form:
    base-covering sources at levels 0 and 2 and the pruned remainder."""
    tree, spec = random_game(f"decisions:{seed}", depth=6, branching=3, taboos=3)
    trees = [tree]
    for k in (0, 2):
        try:
            trees.append(build_base_covering(tree, spec, k, frontier_max=4).source)
        except ResourceLimitError:
            pass
    remainder = prune(tree).tree
    if remainder is not None:
        trees.append(remainder)
    # Nodes with 1 to 5 children: every pattern of rejected ``getrandbits``
    # draws (n = 1 and 3 reject one value of their 1 and 2 bits, 2 two of
    # 2 bits, 4 and 5 three to four of 3 bits).
    trees += [GameTree.complete(2, branching) for branching in range(1, 6)]
    mixed = [(a,) for a in range(5)] + [(a, b) for a in range(5) for b in range(a + 1)]
    trees.append(GameTree(2, mixed))  # 5 children at the root, 1 to 5 below it
    for tree in trees:
        for owner in Player:
            # a random strategy draws one choice per decision position, in
            # canonical order, held as a child index by id
            drawn, replay = rng_for(f"draw:{seed}"), rng_for(f"draw:{seed}")
            for _ in range(2):
                expected = [
                    (p, replay.choice(tree.children_of(p)))
                    for p in oracles.decision_positions(tree, owner)
                ]
                choices = random_strategy(drawn, tree, owner).choices
                assert isinstance(choices, Choices) and choices.tree is tree
                assert list(choices.items()) == expected
                assert [choices.picks[i] for i in _decision_ids(tree, owner)] == [
                    tree.children_of(p).index(label) for p, label in expected
                ]
                assert drawn.getstate() == replay.getstate()  # the same draws, rejections too


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
