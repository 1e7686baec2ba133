import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    GameTree,
    InternalInvariantError,
    Player,
    ResourceLimitError,
    is_prefix,
    is_winning_strategy,
)
from unraveling.covering import pullback
from unraveling.gamedoc import parse_game_bytes
from unraveling.payoff import Closed, ClosedUnion, realize
from unraveling.randgen import random_game, random_tree, random_union_instance, rng_for
from unraveling.solver import _winners, prune, solve, transfer_from_pruned
from unraveling.unravel import build_base_covering, unravel_payoff

import oracles


def leaves_with(tree, predicate):
    return frozenset(l for l in tree.full_depth_plays() if predicate(l))


# -------------------------------------------------------------------- solve


def test_solve_first_player_takes_left_half(ex1):
    payoff = leaves_with(ex1, lambda l: l[0] == 0)
    solution = solve(ex1, payoff)
    assert solution.winner is Player.I
    assert solution.strategy.choices[()] == 0
    assert is_winning_strategy(ex1, payoff, solution.strategy)


def test_solve_second_player_avoids_taboo(ex2):
    solution = solve(ex2, frozenset())
    assert solution.winner is Player.II
    assert solution.strategy.choices[(0,)] == 1
    assert is_winning_strategy(ex2, frozenset(), solution.strategy)


def test_solve_forced_taboo_variants(ex3):
    # EX3 with 0/0/1 made early-terminal: the mover at 0/0 is player I.
    nodes = [(0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 0, 0)]
    for owner, winner in ((Player.II, Player.I), (Player.I, Player.II)):
        tree = GameTree.from_nodes(4, nodes, {(0, 0, 1): owner})
        solution = solve(tree, frozenset())
        assert solution.winner is winner
        assert is_winning_strategy(tree, frozenset(), solution.strategy)


def test_solve_degenerate_root_terminal():
    tree = GameTree(2, {(): []}, {(): Player.II})
    solution = solve(tree, frozenset())
    assert solution.winner is Player.I
    assert solution.strategy.choices == {}


def test_solve_labels_every_node_with_its_subgame_winner(ex2):
    # the kernel's labeling for ``payoff``, by id, against each subgame's
    # winner by enumeration of every strategy
    payoff = leaves_with(ex2, lambda l: l[1] == 0)
    values = _winners(ex2, payoff)
    for i, position in enumerate(ex2.positions()):
        subgame = oracles.subtree_at(ex2, position)
        sub_payoff = payoff & frozenset(subgame.full_depth_plays())
        assert values[i] is oracles.zermelo_winner(subgame, sub_payoff)


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_solve_always_verified(seed):
    tree, spec = random_game(f"solve:{seed}", depth=6, branching=2, taboos=3)
    payoff = realize(tree, Closed(spec))
    solution = solve(tree, payoff)
    assert is_winning_strategy(tree, payoff, solution.strategy)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_zermelo_agreement_on_small_games(seed):
    tree, spec = random_game(f"zerm:{seed}", depth=4, branching=2, taboos=2)
    payoff = realize(tree, Closed(spec))
    solution = solve(tree, payoff)
    loser_nodes = oracles.decision_positions(tree, solution.winner.opponent)
    if len(loser_nodes) > 12:
        return
    assert oracles.zermelo_winner(tree, payoff) is solution.winner


# ------------------------------------------------------------ prune witnesses


def choices_below(strategy, position):
    return {p: move for p, move in strategy.choices.items() if is_prefix(position, p)}


def test_taboo_strategy_and_prune_witnesses_match_solve_oracle():
    witnessed = 0
    for seed in range(30):
        tree = random_tree(rng_for(f"taboo-oracle:{seed}"), depth=6, branching=2, taboos=4)
        result = prune(tree)
        for position, witness in result.witnesses.items():
            owner = result.determined[position]
            expected = oracles.taboo_strategy_by_solve(tree, position, owner)
            assert witness.owner is owner
            assert choices_below(witness, position) == choices_below(expected, position)
            witnessed += 1
    assert witnessed > 30


def test_prune_labels_each_position_with_its_one_forcing_player_or_none():
    """``determined`` names, at every position, the one player with a
    forcing strategy by the solve oracle, and misses the positions where
    neither player can force a taboo against the other."""
    undetermined = 0
    for seed in range(30):
        tree = random_tree(rng_for(f"taboo-labels:{seed}"), depth=6, branching=2, taboos=4)
        result = prune(tree)
        for position in tree.positions():
            forcing = [
                player
                for player in Player
                if oracles.taboo_strategy_by_solve(tree, position, player) is not None
            ]
            assert len(forcing) <= 1
            assert result.determined.get(position) is (forcing[0] if forcing else None)
            undetermined += not forcing
    assert undetermined > 30


def test_prune_builds_only_the_remainder_and_shares_witnesses(monkeypatch):
    """Player I forces a taboo at 0/0 and at 1/0, player II at 1/1/1: three
    minimal removed positions, one forcing strategy per player, no tree
    built but the remainder."""
    nodes = [
        (0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 1, 0), (0, 1), (0, 1, 0), (0, 1, 0, 0),
        (1,), (1, 0), (1, 0, 0), (1, 0, 1), (1, 0, 0, 0),
        (1, 1), (1, 1, 0), (1, 1, 0, 0), (1, 1, 1),
    ]
    taboo = {(0, 0, 0): Player.II, (1, 0, 1): Player.II, (1, 1, 1): Player.I}
    tree = GameTree.from_nodes(4, nodes, taboo)
    built = []
    store = GameTree._store  # both entries, the checked one and ``_from_ids``, end here

    def counting_store(self, *args):
        built.append(self)
        store(self, *args)

    monkeypatch.setattr(GameTree, "_store", counting_store)
    result = prune(tree)
    assert result.determined == {
        (0, 0): Player.I, (0, 0, 0): Player.I, (1, 0): Player.I,
        (1, 0, 1): Player.I, (1, 1, 1): Player.II,
    }
    assert len(built) == 1 and built[0] is result.tree
    assert set(result.witnesses) == {(0, 0), (1, 0), (1, 1, 1)}
    forcing = result.witnesses[(0, 0)]
    assert result.witnesses[(1, 0)] is forcing
    assert forcing.choices[(0, 0)] == 0 and forcing.choices[(1, 0)] == 1
    assert result.witnesses[(1, 1, 1)].owner is Player.II


# --------------------------------------------------------------------- prune


def test_prune_keeps_pruned_tree_intact(ex1):
    result = prune(ex1)
    assert result.determined == {}
    assert result.removed == frozenset()
    assert result.tree == ex1


def test_prune_removes_taboo_node(ex2):
    result = prune(ex2)
    assert result.determined == {(0, 0): Player.I}
    assert result.removed == frozenset({(0, 0)})
    assert result.tree.node_count == ex2.node_count - 1
    assert all(len(p) == 4 for p in oracles.plays(result.tree))


def test_prune_root_determined():
    # Both root moves lead to taboos against player II.
    tree = GameTree.from_nodes(2, [(0,), (1,)], {(0,): Player.II, (1,): Player.II})
    result = prune(tree)
    assert result.tree is None
    assert result.root_determined is Player.I
    assert is_winning_strategy(tree, frozenset(), result.witnesses[()])


def test_prune_closure_counterexample():
    """A taboo-determined position can have non-determined children.

    At 0/0 the mover (player I) forces the taboo via 0/0/0, but the sibling
    branch 0/0/1 has no taboos at all.  Pruning therefore removes the whole
    subtree under 0/0, not just the determined positions themselves.
    """
    nodes = [
        (0,),
        (0, 0), (0, 1),
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (0, 0, 1, 0), (0, 0, 1, 1),
        (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1),
    ]
    tree = GameTree.from_nodes(4, nodes, {(0, 0, 0): Player.II})
    result = prune(tree)
    assert result.determined == {(0, 0): Player.I, (0, 0, 0): Player.I}
    assert (0, 0, 1) not in result.determined  # determinedness is not child-hereditary
    assert (0, 0, 1) in result.removed  # upward closure restores prefix-closedness
    assert result.removed == frozenset(
        {(0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)}
    )
    remainder = result.tree
    assert remainder is not None
    for position in remainder.positions():
        assert all(position[:n] in remainder for n in range(len(position)))
    assert all(len(p) == remainder.depth for p in oracles.plays(remainder))

    # The level-by-level equivalence still holds on this very tree.
    payoff = frozenset()
    direct = solve(tree, payoff)
    pruned_solution = solve(remainder, payoff)
    assert pruned_solution.winner is direct.winner
    transferred = transfer_from_pruned(tree, result, pruned_solution.strategy)
    assert is_winning_strategy(tree, payoff, transferred)


@given(st.integers(0, 800))
@settings(max_examples=60, deadline=None)
def test_prune_structure_properties(seed):
    tree = random_tree(rng_for(f"prune:{seed}"), depth=6, branching=2, taboos=3)
    result = prune(tree)
    # Exclusivity comes out of the determined map being single-valued, and
    # the removed set is the upward closure of the determined positions.
    for position in result.removed:
        assert any(
            is_prefix(q, position) for q in result.determined
        ), "removed positions have a determined prefix"
    for position in result.determined:
        for child_label in tree.children_of(position):
            assert position + (child_label,) in result.removed
    if result.tree is not None:
        assert all(len(p) == tree.depth for p in oracles.plays(result.tree))


# ------------------------------------------------------ transfer_from_pruned


def test_transfer_identity_when_nothing_removed(ex1):
    result = prune(ex1)
    strategy = oracles.least_strategy(result.tree, Player.I)
    transferred = transfer_from_pruned(ex1, result, strategy)
    assert transferred.choices == strategy.choices


def test_transfer_wins_with_empty_payoff(ex2):
    result = prune(ex2)
    pruned_solution = solve(result.tree, frozenset())
    assert pruned_solution.winner is Player.II
    transferred = transfer_from_pruned(ex2, result, pruned_solution.strategy)
    assert is_winning_strategy(ex2, frozenset(), transferred)


def test_transfer_follows_witness_on_deviation():
    """Player II deviates into a region where player I forces the taboo."""
    nodes = [(0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0), (0, 0, 0, 0)]
    tree = GameTree.from_nodes(4, nodes, {(0, 1, 0): Player.II})
    payoff = frozenset({(0, 0, 0, 0)})
    result = prune(tree)
    assert result.determined[(0, 1)] is Player.I
    pruned_solution = solve(result.tree, payoff & frozenset(result.tree.full_depth_plays()))
    assert pruned_solution.winner is Player.I
    transferred = transfer_from_pruned(tree, result, pruned_solution.strategy)
    assert transferred.choices[(0, 1)] == 0  # the stored forcing witness
    assert is_winning_strategy(tree, payoff, transferred)
    # Both of II's replies at 0: staying in the remainder runs into the
    # payoff leaf, deviating to 0/1 runs into the taboo.
    from unraveling.core import consistent_plays

    assert set(consistent_plays(tree, transferred)) == {(0, 0, 0, 0), (0, 1, 0)}


def test_transfer_rejects_an_opponent_entry_determined_against_the_owner():
    """A planted fault: the entry 0/1, which player II moves into, marked as
    determined for player II."""
    nodes = [(0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0), (0, 0, 0, 0)]
    tree = GameTree.from_nodes(4, nodes, {(0, 1, 0): Player.II})
    result = prune(tree)
    faulty = dataclasses.replace(result, determined={**result.determined, (0, 1): Player.II})
    strategy = oracles.least_strategy(result.tree, Player.I)
    with pytest.raises(
        InternalInvariantError, match="^opponent enters 0/1 determined against the owner$"
    ):
        transfer_from_pruned(tree, faulty, strategy)


def test_transfer_rejects_root_determined():
    tree = GameTree.from_nodes(2, [(0,)], {(0,): Player.II})
    result = prune(tree)
    other = oracles.least_strategy(GameTree.complete(2, 1), Player.I)
    with pytest.raises(ValueError, match="root"):
        transfer_from_pruned(tree, result, other)


@given(st.integers(0, 800))
@settings(max_examples=60, deadline=None)
def test_level_by_level_equivalence(seed):
    """Winner is preserved by pruning and the transferred strategy wins."""
    tree, spec = random_game(f"lvl:{seed}", depth=6, branching=2, taboos=3)
    payoff = realize(tree, Closed(spec))
    direct = solve(tree, payoff)
    result = prune(tree)
    if result.tree is None:
        assert result.root_determined is direct.winner
        assert is_winning_strategy(tree, payoff, result.witnesses[()])
        return
    remainder_payoff = payoff & frozenset(result.tree.full_depth_plays())
    pruned_solution = solve(result.tree, remainder_payoff)
    assert pruned_solution.winner is direct.winner
    transferred = transfer_from_pruned(tree, result, pruned_solution.strategy)
    assert is_winning_strategy(tree, payoff, transferred)


def assert_transfers_match_the_reference(tree, payoff):
    """The winner's strategy on the remainder and the loser's least one
    transfer to the same choices, in the same order, as the position walk."""
    result = prune(tree)
    if result.tree is None:
        return
    solution = solve(result.tree, payoff & frozenset(result.tree.full_depth_plays()))
    loser = oracles.least_strategy(result.tree, solution.winner.opponent)
    for strategy in (solution.strategy, loser):
        transferred = transfer_from_pruned(tree, result, strategy)
        expected = oracles.reference_transfer_from_pruned(tree, result, strategy)
        assert transferred.owner is expected.owner
        assert list(transferred.choices.items()) == list(expected.choices.items())


def test_transfer_matches_the_reference_on_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.game")):
        document = parse_game_bytes(path.read_bytes())
        payoff = realize(document.tree, document.payoff)
        assert_transfers_match_the_reference(document.tree, payoff)


def test_transfer_matches_the_reference_on_seeded_arenas():
    for seed in range(200):
        tree, spec = random_game(f"transfer:{seed}", depth=6, branching=3, taboos=5)
        assert_transfers_match_the_reference(tree, realize(tree, Closed(spec)))


# ------------------------------------------- the tuple-keyed reference kernel


def assert_matches_reference(tree, payoff):
    """``solve`` and ``prune`` agree exactly with the tuple-keyed kernel in
    ``oracles``: winners, every choice, the key order of the choices, the
    determined map, the removed set, the witnesses and the remainder."""
    solution, expected = solve(tree, payoff), oracles.reference_solve(tree, payoff)
    assert solution.winner is expected.winner
    assert solution.strategy.owner is expected.strategy.owner
    assert list(solution.strategy.choices.items()) == list(expected.strategy.choices.items())

    result, reference = prune(tree), oracles.reference_prune(tree)
    assert result.root_determined is reference.root_determined
    assert list(result.determined.items()) == list(reference.determined.items())
    assert result.removed == reference.removed
    assert list(result.witnesses) == list(reference.witnesses)
    for position, witness in result.witnesses.items():
        other = reference.witnesses[position]
        assert witness.owner is other.owner
        assert list(witness.choices.items()) == list(other.choices.items())
    if reference.tree is None:
        assert result.tree is None
    else:
        assert result.tree == reference.tree
        assert result.tree.positions() == reference.tree.positions()


@given(st.integers(0, 10**6), st.sampled_from([4, 6, 8]), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_solve_and_prune_match_the_reference_on_random_arenas(seed, depth, branching):
    tree, spec = random_game(f"reference:{seed}", depth=depth, branching=branching, taboos=4)
    assert_matches_reference(tree, realize(tree, Closed(spec)))


@given(st.integers(0, 10**6), st.sampled_from([0, 2]))
@settings(max_examples=30, deadline=None)
def test_solve_and_prune_match_the_reference_on_base_covering_sources(seed, k):
    tree, spec = random_game(f"reference-base:{seed}", depth=6, branching=3, taboos=3)
    try:
        covering = build_base_covering(tree, spec, k, frontier_max=4)
    except ResourceLimitError:
        return
    leaves = realize(tree, Closed(spec))
    assert_matches_reference(covering.source, pullback(covering, leaves))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_solve_and_prune_match_the_reference_on_composite_sources(seed):
    tree, specs = random_union_instance(f"reference-union:{seed}", depth=6, taboos=2, parts=2)
    payoff = ClosedUnion(specs)
    try:
        covering, _ = unravel_payoff(tree, payoff, 0, frontier_max=3)
    except ResourceLimitError:
        return
    assert_matches_reference(covering.source, pullback(covering, realize(tree, payoff)))
