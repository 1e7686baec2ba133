import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    GameTree,
    Player,
    _evaluate,
    is_prefix,
    is_winning_strategy,
)
from unraveling.payoff import Closed, realize
from unraveling.randgen import random_game, random_tree, rng_for
from unraveling.solver import _winners, prune, solve, transfer_from_pruned

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
    # the labeling of the kernel under ``solve``'s leaf rule
    payoff = leaves_with(ex2, lambda l: l[1] == 0)
    values = _winners(ex2, lambda play: _evaluate(ex2, play, payoff))
    for position in ex2.positions():
        subgame = oracles.subtree_at(ex2, position)
        sub_payoff = payoff & frozenset(subgame.full_depth_plays())
        assert values[position] is solve(subgame, sub_payoff).winner


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
    init = GameTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GameTree, "__init__", counting_init)
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
