"""Payoff sets as ``Plays``: the set protocol against frozensets, the one
conversion of any other set of positions, and ``realize`` and ``pullback``
against their frozenset references."""

import operator
import re

import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    GameTree,
    Plays,
    Player,
    ResourceLimitError,
    format_position,
    is_winning_strategy,
)
import unraveling.cli as cli
from unraveling.covering import pullback, pullback_closed_spec
from unraveling.gamedoc import parse_game_bytes
from unraveling.payoff import (
    Closed,
    ClosedSpec,
    ClosedUnion,
    Not,
    Open,
    Union,
    decided_by_depth,
    map_closed,
    realize,
)
from unraveling.randgen import random_closed_spec, random_game, random_union_instance, rng_for
from unraveling.solver import prune, solve
from unraveling.unravel import build_base_covering, unravel_payoff

import oracles

SET_OPERATORS = (operator.and_, operator.or_, operator.sub, operator.xor)


def assert_same_set(plays, expected: frozenset) -> None:
    """``plays`` is a ``Plays`` holding exactly ``expected``, in canonical order."""
    assert isinstance(plays, Plays)
    assert plays == expected and expected == plays
    assert not plays != expected and not expected != plays
    assert len(plays) == len(expected)
    assert list(plays) == sorted(expected)  # same-length positions: canonical is tuple order
    assert hash(plays) == hash(expected)


# ------------------------------------------------------------ set protocol


def test_plays_combine_with_frozensets_on_either_side(ex1, ex2):
    for tree in (ex1, ex2):
        everything = frozenset(tree.full_depth_plays())
        rng = rng_for(f"plays-ops:{tree.node_count}")
        for _ in range(10):
            spec = random_closed_spec(rng, tree)
            plays = realize(tree, Closed(spec))
            expected = oracles.reference_realize(tree, Closed(spec))
            assert_same_set(plays, expected)
            assert_same_set(~plays, everything - expected)
            other = frozenset(p for p in everything if rng.random() < 0.5)
            for op in SET_OPERATORS:
                for result, wanted in (
                    (op(plays, other), op(expected, other)),
                    (op(other, plays), op(other, expected)),
                ):
                    assert type(result) is frozenset
                    assert result == wanted
            assert (plays <= other) == (expected <= other)
            assert (other <= plays) == (other <= expected)
            assert plays.isdisjoint(other) == expected.isdisjoint(other)


def test_plays_of_different_trees_compare_by_their_plays(ex1):
    spec = ClosedSpec([(1,)])
    twin = GameTree.complete(4, 2)
    assert realize(ex1, Closed(spec)) == realize(twin, Closed(spec))
    assert realize(ex1, Closed(spec)) != realize(twin, Open(spec))
    assert hash(realize(ex1, Closed(spec))) == hash(realize(twin, Closed(spec)))
    assert {realize(ex1, Closed(spec)): 1}[frozenset(realize(twin, Closed(spec)))] == 1


@pytest.mark.parametrize(
    "value",
    [(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0, 0), (9, 9, 9, 9), (0, 0, (0,), 0),
     [0, 1, 0, 0], {0}, None, 3, "0100"],
)
def test_a_value_that_is_no_full_depth_play_is_not_in_the_set(ex1, ex2, value):
    for tree in (ex1, ex2):
        everything = realize(tree, Closed(ClosedSpec()))
        assert len(everything) == len(list(tree.full_depth_plays()))
        assert value not in everything
    assert (0, 0, 0, 0) in realize(ex1, Closed(ClosedSpec()))
    assert (0, 0, 0, 0) not in realize(ex2, Closed(ClosedSpec()))  # below an early terminal


# ------------------------------------------------------------ conversion


@pytest.mark.parametrize(
    "member",
    [(0, 0), (0,), (), (0, 0, 0, 0), (1, 1, 1, 2), (1, 0, 1, 0, 0), [1, 0, 1, 0], 5],
)
def test_a_payoff_member_that_is_no_full_depth_play_is_rejected(ex2, member):
    """(0, 0) is an early terminal of ex2 and (0, 0, 0, 0) lies below it:
    of the right length, but not in the tree.  A member that is no
    position at all is named as it is, and an iterator payoff is read
    once."""
    name = format_position(member) if isinstance(member, (tuple, list)) else str(member)
    message = f"^payoff member {re.escape(name)} is not a full-depth play$"
    strategy = oracles.least_strategy(ex2, Player.I)
    identity = oracles.identity_covering(ex2)
    conversions = (
        lambda payoff: solve(ex2, payoff),
        lambda payoff: is_winning_strategy(ex2, payoff, strategy),
        lambda payoff: decided_by_depth(ex2, payoff, 2),
        lambda payoff: pullback(identity, payoff),
    )
    for members in ([member], list(ex2.full_depth_plays())[:3] + [member]):
        for convert in conversions:
            for payoff in (members, iter(members)):
                with pytest.raises(ValueError, match=message):
                    convert(payoff)


def test_a_plays_of_another_tree_is_converted_by_its_plays(ex1, ex2):
    everything = realize(ex1, Closed(ClosedSpec()))
    with pytest.raises(ValueError, match="^payoff member 0/0/0/0 is not a full-depth play$"):
        solve(ex2, everything)
    inside = realize(ex1, Closed(ClosedSpec([(0, 0)])))  # no play below 0/0
    assert solve(ex2, inside).winner is solve(ex2, frozenset(inside)).winner


def test_no_tree_gains_a_position_table_when_a_payoff_is_read(fixtures_dir, monkeypatch):
    """Converting a frozenset, a list, an iterator or another tree's
    ``Plays``, asking a ``Plays`` ``in`` and building the ``prune`` report
    add no table to any tree: conversion is one membership pass over the
    plays, ``in`` descends by id, and the remainder's payoff is read off
    the tree's bytes."""
    remainders = []  # each remainder with the attributes it was built with

    def recorded_prune(tree):
        result = prune(tree)
        if result.tree is not None:
            remainders.append((result.tree, set(vars(result.tree))))
        return result

    monkeypatch.setattr(cli, "prune", recorded_prune)
    for path in sorted(fixtures_dir.glob("*.game")):
        document, twin = (parse_game_bytes(path.read_bytes()) for _ in range(2))
        tree, leaves = document.tree, realize(document.tree, document.payoff)
        other = realize(twin.tree, twin.payoff)
        held = [set(vars(t)) for t in (tree, twin.tree)]
        strategy = oracles.least_strategy(tree, Player.I)
        identity = oracles.identity_covering(tree)
        winner = solve(tree, leaves).winner
        for payoff in (frozenset(leaves), list(leaves), iter(list(leaves)), other):
            assert solve(tree, payoff).winner is winner
        for convert in (
            lambda payoff: is_winning_strategy(tree, payoff, strategy),
            lambda payoff: decided_by_depth(tree, payoff, tree.depth),
            lambda payoff: pullback(identity, payoff),
        ):
            assert convert(frozenset(leaves)) == convert(list(leaves)) == convert(other)
        everything = list(tree.full_depth_plays())
        assert [play in leaves for play in everything] == list(leaves.mask)
        assert [play in other for play in everything] == list(leaves.mask)
        assert cli.prune_report(path.name, tree, document.payoff, leaves).ok
        assert [set(vars(t)) for t in (tree, twin.tree)] == held
    assert remainders
    for remainder, attributes in remainders:
        assert set(vars(remainder)) == attributes


# ------------------------------------------------ realize and pullback references


def assert_pullback_matches_the_reference(covering, leaves) -> None:
    for payoff in (leaves, frozenset(leaves)):
        pulled = pullback(covering, payoff)
        assert pulled.tree is covering.source
        assert_same_set(pulled, oracles.reference_pullback(covering, frozenset(leaves)))


def test_realize_and_pullback_match_the_references_on_the_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.game")):
        document = parse_game_bytes(path.read_bytes())
        tree, payoff = document.tree, document.payoff
        leaves = realize(tree, payoff)
        assert_same_set(leaves, oracles.reference_realize(tree, payoff))
        covering, _ = unravel_payoff(tree, payoff, 0)
        assert_pullback_matches_the_reference(covering, leaves)
        assert_pullback_matches_the_reference(covering, ~leaves)


@given(st.integers(0, 10**6), st.sampled_from([(4, 3), (6, 2), (6, 3)]))
@settings(max_examples=40, deadline=None)
def test_realize_matches_the_reference_on_taboo_trees(seed, shape):
    depth, branching = shape
    tree, _ = random_game(f"realize-reference:{seed}", depth=depth, branching=branching, taboos=4)
    rng = rng_for(seed)
    specs = [random_closed_spec(rng, tree) for _ in range(3)]
    for payoff in (
        Closed(specs[0]),
        Open(specs[1]),
        ClosedUnion(specs),
        Not(Union(Open(specs[0]), Not(Union(Closed(specs[1]), Open(specs[2]))))),
    ):
        assert_same_set(realize(tree, payoff), oracles.reference_realize(tree, payoff))


@given(st.integers(0, 10**6), st.sampled_from([0, 2]))
@settings(max_examples=20, deadline=None)
def test_realize_and_pullback_match_the_references_on_covering_sources(seed, k):
    """Source plays hold nested ``Claim`` labels; a second closed set pulled
    back as generators realizes on the source as its pulled-back plays."""
    tree, spec = random_game(f"pullback-reference:{seed}", depth=6, branching=2, taboos=3)
    try:
        covering = build_base_covering(tree, spec, k, frontier_max=4)
    except ResourceLimitError:
        return
    rng = rng_for(seed)
    other = random_closed_spec(rng, tree)
    for payoff in (Closed(spec), Open(spec), Closed(other), Union(Closed(spec), Open(other))):
        leaves = realize(tree, payoff)
        assert_pullback_matches_the_reference(covering, leaves)
        on_source = map_closed(payoff, lambda s: pullback_closed_spec(covering, s))
        realized = realize(covering.source, on_source)
        assert_same_set(realized, oracles.reference_realize(covering.source, on_source))
        assert realized == pullback(covering, leaves)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_pullback_matches_the_reference_on_composed_union_coverings(seed):
    tree, specs = random_union_instance(f"union-reference:{seed}", depth=6, parts=3)
    try:
        covering, _ = unravel_payoff(tree, ClosedUnion(specs), 0, frontier_max=3)
    except ResourceLimitError:
        return
    for payoff in (ClosedUnion(specs), Not(ClosedUnion(specs)), Closed(specs[1])):
        assert_pullback_matches_the_reference(covering, realize(tree, payoff))
