import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    GameTree,
    Player,
    Strategy,
    consistent_plays,
    random_strategy,
)
from unraveling.covering import (
    CheckResult,
    Covering,
    check_lift,
    check_position_map,
    check_strategy_locality,
    check_winning_transfer,
    compose,
    pullback,
    pullback_closed_spec,
    solve_via_covering,
    verify_lift,
)
from unraveling.payoff import Closed, ClosedSpec, decided_by_depth, realize
from unraveling.randgen import random_game, rng_for
from unraveling.solver import solve
from unraveling.unravel import build_base_covering

import oracles


def leaves_with(tree, predicate):
    return frozenset(l for l in tree.full_depth_plays() if predicate(l))


# --------------------------------------------------------- identity covering


def test_identity_covering_passes_all_checks(ex1):
    identity = oracles.identity_covering(ex1)
    assert check_position_map(identity)
    assert check_strategy_locality(identity, 20, seed=3)
    payoff = leaves_with(ex1, lambda l: l[0] == 0)
    assert check_winning_transfer(identity, payoff, 5, seed=3)
    strategy = oracles.least_strategy(ex1, Player.I)
    for play in consistent_plays(ex1, strategy):
        assert verify_lift(identity, strategy, play)
        assert identity.lift(strategy, play) == play
    assert check_lift(identity, 4, seed=0) == CheckResult(True, "16 plays")


def test_identity_pullback_is_identity(ex1):
    identity = oracles.identity_covering(ex1)
    payoff = leaves_with(ex1, lambda l: l[1] == 1)
    assert pullback(identity, payoff) == payoff
    assert pullback(identity, frozenset()) == frozenset()


def test_identity_solve_via_covering_matches_solve(ex1):
    payoff = leaves_with(ex1, lambda l: l[0] == 0)
    direct = solve(ex1, payoff)
    via = solve_via_covering(oracles.identity_covering(ex1), payoff, 2)
    assert via.winner is direct.winner


# --------------------------------------------------------------- the axioms


def test_position_map_catches_length_violation(ex1):
    identity = oracles.identity_covering(ex1)
    broken_table = dict(identity.position_map)
    broken_table[(0, 0)] = (0,)
    broken = Covering(
        ex1, ex1, 0, broken_table, identity.strategy_transform, identity.lift
    )
    result = check_position_map(broken)
    assert not result
    assert "length" in result.detail


def test_position_map_catches_monotonicity_violation(ex1):
    identity = oracles.identity_covering(ex1)
    broken_table = dict(identity.position_map)
    broken_table[(0, 0)] = (1, 0)
    broken = Covering(
        ex1, ex1, 0, broken_table, identity.strategy_transform, identity.lift
    )
    result = check_position_map(broken)
    assert not result
    assert "monotone" in result.detail


def test_position_map_catches_taboo_violation():
    from unraveling.core import GameTree

    target = GameTree.from_nodes(2, [(0,), (1,), (0, 0)], {(1,): Player.II})
    source = GameTree.from_nodes(2, [(0,), (1,), (0, 0)], {(1,): Player.I})
    broken = Covering(
        source, target, 0, {p: p for p in source.positions()}, lambda s: s, lambda s, x: x
    )
    result = check_position_map(broken)
    assert not result
    assert "taboo" in result.detail


@pytest.mark.parametrize(
    "fault, expected",
    [
        ("no image", "no image for 0/0"),
        ("image not in target", "image of 1/1 not in target"),
        ("not the identity", "not the identity at level 2 <= 2"),
        ("children differ", "children differ at -"),
        ("taboo tags differ", "taboo tags differ at 0/0"),
    ],
)
def test_position_map_catches_each_fault(ex1, ex2, fault, expected):
    source, target, level = ex1, ex1, 0
    table = {p: p for p in ex1.positions()}
    if fault == "no image":
        del table[(0, 0)]
    elif fault == "image not in target":
        table[(1, 1)] = (1, 2)
    elif fault == "not the identity":
        level, table[(0, 0)] = 2, (0, 1)
    elif fault == "children differ":  # the source drops the root's move 1
        source = GameTree.from_nodes(4, [p for p in ex1.positions() if p and p[0] == 0])
        level, table = 2, {p: p for p in source.positions()}
    else:  # the source tags 0/0 as a taboo the target does not have
        source, level, table = ex2, 2, {p: p for p in ex2.positions()}
    broken = Covering(source, target, level, table, lambda s: s, lambda s, x: x)
    assert check_position_map(broken) == CheckResult(False, expected)


def test_locality_catches_lookahead(ex1):
    """A strategy map reading one level deeper than it reports is rejected."""

    def nonlocal_transform(strategy: Strategy) -> Strategy:
        if strategy.owner is Player.I:
            choices = dict(strategy.choices)
            choices[()] = strategy.choices[(0, 0)]  # root choice reads depth 2
            return Strategy(strategy.owner, choices)
        return strategy

    broken = Covering(
        ex1,
        ex1,
        0,
        {p: p for p in ex1.positions()},
        nonlocal_transform,
        lambda s, x: x,
    )
    assert not check_strategy_locality(broken, 60, seed=11)


def test_verify_lift_rejects_inconsistent_play(ex1):
    identity = oracles.identity_covering(ex1)
    strategy = oracles.least_strategy(ex1, Player.I)  # always 0
    with pytest.raises(ValueError, match="not consistent"):
        verify_lift(identity, strategy, (1, 0, 0, 0))


def test_verify_lift_rejects_non_play(ex1):
    identity = oracles.identity_covering(ex1)
    with pytest.raises(ValueError, match="not a play"):
        verify_lift(identity, oracles.least_strategy(ex1, Player.I), (0,))


# -------------------------------------------------------------- composition


def test_compose_with_identity_behaves_like_original(ex1):
    spec = ClosedSpec([(1,)])
    payoff = realize(ex1, Closed(spec))
    base = build_base_covering(ex1, spec, 0)

    left = compose(oracles.identity_covering(ex1), base)
    right = compose(base, oracles.identity_covering(base.source))
    for composite in (left, right):
        assert composite.position_map == dict(base.position_map)
        assert check_position_map(composite)
        strategy = oracles.least_strategy(base.source, Player.I)
        composed_image = composite.strategy_transform(strategy)
        assert composed_image.choices == base.strategy_transform(strategy).choices
        via = solve_via_covering(composite, payoff, 2)
        assert via.winner is solve(ex1, payoff).winner


def test_compose_level_is_minimum(ex1):
    base = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    assert compose(oracles.identity_covering(ex1, level=4), base).level == 0
    two = oracles.identity_covering(ex1, level=2)
    four = oracles.identity_covering(ex1, level=4)
    assert compose(four, two).level == 2
    assert compose(two, four).level == 2


def test_compose_rejects_mismatched_trees(ex1, ex2):
    with pytest.raises(ValueError, match="mismatch"):
        compose(oracles.identity_covering(ex1), oracles.identity_covering(ex2))


def test_compose_two_base_coverings_passes_checks():
    from unraveling.core import GameTree

    tree = GameTree.complete(6, 2)
    first = build_base_covering(tree, ClosedSpec([(1, 0, 0)]), 0)
    second_spec = pullback_closed_spec(first, ClosedSpec([(0, 1, 0)]))
    second = build_base_covering(first.source, second_spec, 2)
    composite = compose(first, second)
    assert composite.level == 0
    assert check_position_map(composite)
    assert check_strategy_locality(composite, 12, seed=5)
    payoff = realize(tree, Closed(ClosedSpec([(0, 1, 0)])))
    assert check_winning_transfer(composite, payoff, 3, seed=5)


# ------------------------------------------------------------------ pullback


def test_pullback_of_base_covering_is_accept_half(ex1):
    from unraveling.unravel import Accept

    spec = ClosedSpec([(1,)])
    payoff = realize(ex1, Closed(spec))
    base = build_base_covering(ex1, spec, 0)
    pulled = pullback(base, payoff)
    assert pulled == frozenset(
        leaf for leaf in base.source.full_depth_plays()
        if isinstance(leaf[1], Accept) and leaf[0].move == 0
    )


def test_pullback_closed_spec_commutes_with_realize(ex1):
    base = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    for generators in ([(0,)], [(0, 1)], [(1, 0), (0, 1, 0)]):
        spec = ClosedSpec(generators)
        pulled_spec = pullback_closed_spec(base, spec)
        assert realize(base.source, Closed(pulled_spec)) == pullback(
            base, realize(ex1, Closed(spec))
        )


# ------------------------------------------------------------ strategy lift


def test_winning_transfer_examples(ex1, ex2):
    spec = ClosedSpec([(1,)])
    payoff = realize(ex1, Closed(spec))
    base = build_base_covering(ex1, spec, 0)
    assert check_winning_transfer(base, payoff, 10, seed=9)

    base2 = build_base_covering(ex2, ClosedSpec(), 0)
    assert check_winning_transfer(base2, frozenset(), 10, seed=9)


def test_solve_via_covering_requires_certificate(ex1):
    payoff = leaves_with(ex1, lambda l: l[3] == 0)  # decided only at depth 4
    with pytest.raises(ValueError, match="does not unravel"):
        solve_via_covering(oracles.identity_covering(ex1), payoff, 2)


def test_complement_certificate_equivalence(ex1):
    """A covering unravels a set iff it unravels the complement, same depth."""
    spec = ClosedSpec([(1,)])
    base = build_base_covering(ex1, spec, 0)
    payoff = realize(ex1, Closed(spec))
    complement = frozenset(ex1.full_depth_plays()) - payoff
    for depth in range(ex1.depth + 1):
        assert decided_by_depth(base.source, pullback(base, payoff), depth) == \
            decided_by_depth(base.source, pullback(base, complement), depth)


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_lift_reports_clean_on_built_coverings(seed):
    tree, spec = random_game(f"cover:{seed}", depth=4, branching=2, taboos=2)
    covering = build_base_covering(tree, spec, 0)
    rng = rng_for(f"cover-strat:{seed}")
    for owner in (Player.I, Player.II):
        strategy = random_strategy(rng, covering.source, owner)
        mapped = covering.strategy_transform(strategy)
        for play in consistent_plays(tree, mapped):
            assert verify_lift(covering, strategy, play).ok


# -------------------------------------------------- checker failure branches


def test_locality_catches_owner_flip(ex1):
    def owner_flipping(strategy: Strategy) -> Strategy:
        flipped = oracles.least_strategy(ex1, strategy.owner.opponent)
        return flipped

    broken = Covering(
        ex1, ex1, 0, {p: p for p in ex1.positions()}, owner_flipping, lambda s, x: x
    )
    result = check_strategy_locality(broken, 10, seed=2)
    assert not result
    assert "owner" in result.detail


def test_locality_requires_identity_below_level(ex1):
    def shifted(strategy: Strategy) -> Strategy:
        choices = dict(strategy.choices)
        if () in choices:
            choices[()] = 1 - choices[()]
        return Strategy(strategy.owner, choices)

    broken = Covering(
        ex1, ex1, 2, {p: p for p in ex1.positions()}, shifted, lambda s, x: x
    )
    result = check_strategy_locality(broken, 30, seed=2)
    assert not result


def test_verify_lift_flags_invalid_lift(ex1):
    broken = Covering(
        ex1,
        ex1,
        0,
        {p: p for p in ex1.positions()},
        lambda s: s,
        lambda s, x: (9, 9, 9),  # not a source position at all
    )
    result = verify_lift(broken, oracles.least_strategy(ex1, Player.I), (0, 0, 0, 0))
    assert result == CheckResult(False, "lift 9/9/9 is not a source play")


def test_verify_lift_flags_inconsistent_lift(ex1):
    broken = dataclasses.replace(oracles.identity_covering(ex1), lift=lambda s, x: (1,) + x[1:])
    result = verify_lift(broken, oracles.least_strategy(ex1, Player.I), (0, 0, 0, 0))
    assert result == CheckResult(False, "lift 1/0/0/0 is not consistent with the strategy")


def test_verify_lift_flags_image_off_the_play(ex1):
    identity = oracles.identity_covering(ex1)
    broken = dataclasses.replace(
        identity, position_map={**identity.position_map, (0, 0, 0, 0): (0, 0, 0, 1)}
    )
    result = verify_lift(broken, oracles.least_strategy(ex1, Player.I), (0, 0, 0, 0))
    assert result == CheckResult(
        False, "lift 0/0/0/0 has the image 0/0/0/1, not a prefix of the play"
    )


def test_verify_lift_flags_short_image_without_taboo_against_owner(ex1, ex2):
    """A lift may stop short of the play only at a taboo against the owner:
    ``0/0`` of ``ex2`` is a loss for player II, so it serves player II's
    strategy and not player I's."""
    broken = Covering(
        ex2,
        ex1,
        0,
        {p: p for p in ex2.positions()},
        lambda s: oracles.least_strategy(ex1, s.owner),
        lambda s, x: x[:2],
    )
    play = (0, 0, 0, 0)
    assert verify_lift(broken, oracles.least_strategy(ex2, Player.II), play)
    result = verify_lift(broken, oracles.least_strategy(ex2, Player.I), play)
    assert result == CheckResult(
        False, "lift 0/0 has the image 0/0, short of the play, with no taboo against player I"
    )


def test_winning_transfer_reports_counterexample(ex1):
    payoff = leaves_with(ex1, lambda l: l[0] == 0)

    def sabotaged(strategy: Strategy) -> Strategy:
        choices = dict(strategy.choices)
        if strategy.owner is Player.I:
            choices[()] = 1  # hand the root move to the losing half
        return Strategy(strategy.owner, choices)

    broken = Covering(
        ex1, ex1, 0, {p: p for p in ex1.positions()}, sabotaged, lambda s, x: x
    )
    result = check_winning_transfer(broken, payoff, 3, seed=4)
    assert not result
    assert "loses play" in result.detail
