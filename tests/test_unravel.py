import dataclasses
import itertools
import json
import math
import pickle
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import (
    DEFAULT_NODE_MAX,
    ArenaError,
    CheckResult,
    Choices,
    GameTree,
    InternalInvariantError,
    Player,
    ResourceLimitError,
    Strategy,
    consistent_plays,
    format_position,
    is_winning_strategy,
    _decision_ids,
    _paths,
    random_strategy,
)
from unraveling.covering import (
    check_lift,
    check_position_map,
    check_strategy_locality,
    pullback,
    solve_via_covering,
    verify_lift,
)
from unraveling.dot import _escaped, covering_dot
from unraveling.gamedoc import parse_game_bytes
from unraveling.payoff import (
    Closed,
    ClosedSpec,
    ClosedUnion,
    Not,
    Union,
    _banned,
    decided_by_depth,
    realize,
)
from unraveling.randgen import (
    random_closed_spec,
    random_game,
    random_tree,
    random_union_instance,
    rng_for,
)
from unraveling.solver import prune, solve
import unraveling.unravel as unravel_module
from unraveling.unravel import (
    Accept,
    BaseCovering,
    Challenge,
    Claim,
    build_base_covering,
    check_accept_set,
    unravel_payoff,
    unravel_union,
)

import oracles
from oracles import strategy_from


def image_of(covering, position):
    """The target position a source position maps to, read through its id."""
    return covering.target.positions()[covering.images[covering.source._id(position)]]


def leaves_with(tree, predicate):
    return frozenset(l for l in tree.full_depth_plays() if predicate(l))


def left_half(ex1):
    return realize(ex1, Closed(ClosedSpec([(1,)])))


# ----------------------------------------------------------------- frontier


def test_frontier_golden_values(ex1):
    frontiers = build_base_covering(ex1, ClosedSpec([(1,)]), 0).frontiers
    assert frontiers[((), 1)] == ((1, 0), (1, 1))
    assert frontiers[((), 0)] == ()


def test_frontier_empty_when_payoff_everywhere(ex1, ex2):
    for tree in (ex1, ex2):
        covering = build_base_covering(tree, ClosedSpec(), 0)
        assert covering.frontiers.keys() == {((), a) for a in tree.children_of(())}
        assert all(front == () for front in covering.frontiers.values())


@given(st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_frontier_matches_condition_scan_oracle(seed):
    tree, spec = random_game(f"front:{seed}", depth=6, branching=2, taboos=2)
    payoff = realize(tree, Closed(spec))
    for k in (0, 2):
        frontiers = build_base_covering(tree, spec, k).frontiers
        assert frontiers.keys() == {
            (p, a) for p in tree.positions() if len(p) == k for a in tree.children_of(p)
        }
        for (p, a), computed in frontiers.items():
            assert sorted(computed) == sorted(oracles.frontier_by_scan(tree, payoff, p, a))
            # antichain, and at most one member on any play
            for q in computed:
                for r in computed:
                    assert q == r or not oracles.is_prefix(q, r)
            for play in oracles.plays(tree):
                hits = [q for q in computed if oracles.is_prefix(q, play)]
                assert len(hits) <= 1


# ------------------------------------------------------- build_base_covering


def test_base_covering_root_children_golden(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    labels = covering.source.children_of(())
    assert len(labels) == 5
    assert set(labels) == {
        Claim(0, ()),
        Claim(1, ()),
        Claim(1, ((1, 0),)),
        Claim(1, ((1, 1),)),
        Claim(1, ((1, 0), (1, 1))),
    }


def test_base_covering_pullback_is_accept_branch(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    payoff = left_half(ex1)
    pulled = pullback(covering, payoff)
    assert decided_by_depth(covering.source, pulled, 2)
    accepts = frozenset(
        leaf for leaf in covering.source.full_depth_plays() if isinstance(leaf[1], Accept)
    )
    assert pulled == accepts
    assert all(leaf[0] == Claim(0, ()) for leaf in pulled)


def test_base_covering_trivial_spec_decorates_only(ex1):
    covering = build_base_covering(ex1, ClosedSpec(), 0)
    assert all(front == () for front in covering.frontiers.values())
    # one claim per move and the position map is a bijection on leaves
    assert len(covering.source.children_of(())) == 2
    images = [image_of(covering, leaf) for leaf in covering.source.full_depth_plays()]
    assert sorted(images) == sorted(ex1.full_depth_plays())
    assert len(set(images)) == len(images)


def test_base_covering_inherits_taboos(ex2):
    covering = build_base_covering(ex2, ClosedSpec(), 0)
    accept_to_taboo = (Claim(0, ()), Accept(0))
    assert oracles.taboo_owner(covering.source, accept_to_taboo) is Player.II
    assert image_of(covering, accept_to_taboo) == (0, 0)


def test_base_covering_taboo_claim_nodes():
    # the move itself lands on a taboo: every claim node carries the same tag
    tree = GameTree(
        4, [(0,), (1,), (1, 0), (1, 0, 0), (1, 0, 0, 0)], {(0,): Player.I}
    )
    covering = build_base_covering(tree, ClosedSpec(), 0)
    assert oracles.taboo_owner(covering.source, (Claim(0, ()),)) is Player.I
    assert not covering.source.children_of((Claim(0, ()),))


def test_base_covering_rounds_odd_level_up(ex1):
    tree = GameTree.complete(6, 2)
    covering = build_base_covering(tree, ClosedSpec([(1, 0, 0)]), 1)
    assert covering.level == 2


def test_base_covering_preconditions():
    tree = GameTree.complete(4, 2)
    with pytest.raises(ValueError, match="needs depth"):
        build_base_covering(tree, ClosedSpec(), 4)
    # at the depth boundary (k + 2 == bound) no generator is shallow enough
    with pytest.raises(ValueError, match="too shallow"):
        build_base_covering(tree, ClosedSpec([(0, 1, 0)]), 2)


def test_base_covering_resource_caps(ex1):
    with pytest.raises(ResourceLimitError, match="frontier"):
        build_base_covering(ex1, ClosedSpec([(1,)]), 0, frontier_max=1)
    with pytest.raises(ResourceLimitError, match="nodes"):
        build_base_covering(ex1, ClosedSpec([(1,)]), 0, node_max=10)


# ------------------------------------------------- strategy map and lifts


def test_lift_accept_branch_exact_projection(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)

    def first_move(position, labels):
        if position == ():
            return Claim(0, ())
        return labels[0]

    strategy = strategy_from(covering.source, Player.I, first_move)
    plays = consistent_plays(ex1, covering.strategy_transform(strategy))
    assert len(plays) == 4
    for play in plays:
        assert verify_lift(covering, strategy, play)
        lifted = covering.lift(strategy, play)
        assert lifted == (Claim(0, ()), Accept(play[1]), 0, play[3])
        assert image_of(covering, lifted) == play
    for unknown in ((9, 9), (0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match=f"^unknown position {format_position(unknown)}$"):
            covering.lift(strategy, unknown)


def test_lift_truncates_at_conceded_frontier(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)

    def first_move(position, labels):
        if position == ():
            return Claim(1, ())  # claims nothing: both frontier members conceded
        return labels[0]

    strategy = strategy_from(covering.source, Player.I, first_move)
    mapped = covering.strategy_transform(strategy)
    assert mapped.choices[()] == 1
    plays = consistent_plays(ex1, mapped)
    assert len(plays) == 4
    for play in plays:
        assert verify_lift(covering, strategy, play)
        lifted = covering.lift(strategy, play)
        assert lifted == (Claim(1, ()), Accept(play[1]))
        assert oracles.taboo_owner(covering.source, lifted) is Player.I
        assert image_of(covering, lifted) == play[:2]


def test_lift_switches_to_challenge_on_claimed_frontier(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    claim = Claim(1, ((1, 0), (1, 1)))

    def first_move(position, labels):
        if position == ():
            return claim
        return labels[0]

    strategy = strategy_from(covering.source, Player.I, first_move)
    plays = consistent_plays(ex1, covering.strategy_transform(strategy))
    assert len(plays) == 4
    for play in plays:
        assert verify_lift(covering, strategy, play)
        lifted = covering.lift(strategy, play)
        assert isinstance(lifted[1], Challenge)
        assert image_of(covering, lifted) == play


def test_second_player_strategy_maps_are_consistent(ex2):
    covering = build_base_covering(ex2, ClosedSpec(), 0)
    rng = rng_for("second-player")
    for _ in range(20):
        strategy = random_strategy(rng, covering.source, Player.II)
        mapped = covering.strategy_transform(strategy)
        assert mapped.owner is Player.II
        for play in consistent_plays(ex2, mapped):
            assert verify_lift(covering, strategy, play).ok


def test_strategy_map_locality_and_identity(ex1):
    tree = GameTree.complete(6, 2)
    covering = build_base_covering(tree, ClosedSpec([(0, 1, 0)]), 2)
    assert check_strategy_locality(covering, 30, seed=13)


def _several_frontiers(prefix, count, k, **shape):
    """Seeded base coverings at level ``k`` with at least two non-empty
    frontiers, one of them of two or more positions."""
    found = []
    for index in range(200):
        tree, spec = random_game(f"{prefix}:{index}", **shape)
        covering = build_base_covering(tree, spec, k)
        sizes = [len(front) for front in covering.frontiers.values() if front]
        if len(sizes) >= 2 and max(sizes) >= 2:
            found.append(covering)
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} coverings with several frontiers")


def _mapping_coverings(fixtures_dir, name, k):
    """The base coverings one case of the reference-map test checks."""
    if name == "drawn":
        shape = dict(depth=4 + k, branching=2, taboos=2 + k, generators=3)
        return _several_frontiers(f"reference-maps-k{k}", 3, k, **shape)
    document = parse_game_bytes((fixtures_dir / f"{name}.game").read_bytes())
    payoff = document.payoff  # closed or open: the covering of its closed set
    spec = (payoff.payoff if isinstance(payoff, Not) else payoff).spec
    return [build_base_covering(document.tree, spec, k)]


@pytest.mark.parametrize(
    "name, k",
    [
        ("ex1", 0), ("ex2", 0), ("ex3", 0), ("depth6", 0),
        ("ex2", 2), ("ex3", 2), ("depth6", 2),
        ("drawn", 0), ("drawn", 2),
    ],
)
def test_mapped_choices_and_lifts_match_the_prefix_probe_oracle(fixtures_dir, name, k):
    """Every choice of a mapped strategy over the owner's decision table,
    and the lift of every prefix of every play consistent with it, equal
    the reference maps', which probe every prefix against all frontier
    positions; sampled strategies of both players."""
    rng = rng_for(f"reference-maps:{name}:{k}")
    lifted = challenged = 0
    for covering in _mapping_coverings(fixtures_dir, name, k):
        for owner in Player:
            for _ in range(8):
                strategy = random_strategy(rng, covering.source, owner)
                expected, expected_lift = oracles.reference_strategy_maps(covering, strategy)
                mapped = covering.strategy_transform(strategy)
                assert dict(mapped.choices) == expected
                for play in consistent_plays(covering.target, mapped):
                    prefixes = [play[:n] for n in range(len(play) + 1)]
                    lifts = [covering.lift(strategy, x) for x in prefixes]
                    assert lifts == list(map(expected_lift, prefixes))
                    lifted += 1
                    challenged += len(play) > k + 1 and isinstance(lifts[-1][k + 1], Challenge)
    assert lifted > 0
    if name == "drawn":
        assert challenged > 0


def _composite_cases(fixtures_dir):
    """``union.game`` at level 0 and three seeded depth-6 unions that pass
    the caps, each as a function building its composite."""
    document = parse_game_bytes((fixtures_dir / "union.game").read_bytes())
    cases = [(document.tree, document.payoff)]
    for index in range(50):
        tree, specs = random_union_instance(f"composite-maps:{index}", depth=6, parts=3)
        try:
            unravel_payoff(tree, ClosedUnion(specs), 0)
        except ResourceLimitError:
            continue
        cases.append((tree, ClosedUnion(specs)))
        if len(cases) == 4:
            return cases
    raise AssertionError("fewer than three seeded unions within the caps")


def test_composite_maps_match_the_prefix_probe_oracle_stage_by_stage(fixtures_dir, monkeypatch):
    """A union's composite maps a strategy, and lifts every prefix of every
    play consistent with its image, as the reference maps of its base
    coverings do, applied stage by stage: the image is the stages' images
    from the last covering built to the first, and a lift goes through the
    first covering to the last, each with the strategy mapped so far.  The
    locator jumps at frontier ids in every stage it passes."""
    rng = rng_for("composite-maps")
    lifted = challenged = 0
    for tree, payoff in _composite_cases(fixtures_dir):
        stages = recorded_stages(monkeypatch)
        composite, _ = unravel_payoff(tree, payoff, 0)
        monkeypatch.undo()
        assert len(stages) >= 2 and composite.target is tree
        for owner in Player:
            for _ in range(8):
                strategy = random_strategy(rng, composite.source, owner)
                by_stage, lifts = [strategy], []  # innermost first
                for stage in reversed(stages):
                    image, lift = oracles.reference_strategy_maps(stage, by_stage[-1])
                    by_stage.append(Strategy(owner, image))
                    lifts.append(lift)
                mapped = composite.strategy_transform(strategy)
                assert dict(mapped.choices) == by_stage[-1].choices
                for play in consistent_plays(tree, mapped):
                    for x in (play[:n] for n in range(len(play) + 1)):
                        expected = x
                        for lift in reversed(lifts):  # the first covering built first
                            expected = lift(expected)
                            challenged += any(isinstance(label, Challenge) for label in expected)
                        assert composite.lift(strategy, x) == expected
                    lifted += 1
    assert lifted > 0 and challenged > 0


# ------------------------------------------------------------ closed unions


def test_unravel_union_is_unravel_payoff_of_the_closed_union():
    tree, specs = random_union_instance("union-entry", depth=6, branching=2, parts=2)
    covering, decided_depth = unravel_union(tree, specs, 0)
    direct, direct_depth = unravel_payoff(tree, ClosedUnion(specs), 0)
    assert decided_depth == direct_depth
    assert covering.source == direct.source
    assert covering.images == direct.images
    with pytest.raises(ValueError, match="at least one member"):
        unravel_union(tree, [], 0)


def test_union_certificate_failure_is_an_internal_fault(fixtures_dir, monkeypatch):
    document = parse_game_bytes((fixtures_dir / "union.game").read_bytes())
    monkeypatch.setattr(
        unravel_module, "decided_by_depth", lambda *args: CheckResult(False, "planted")
    )
    with pytest.raises(InternalInvariantError) as raised:
        unravel_payoff(document.tree, document.payoff, 0)
    assert str(raised.value) == "pulled-back union not decided at the stage depth: planted"


def test_union_single_spec_is_single_base_covering(ex1):
    covering, decided_depth = unravel_payoff(ex1, ClosedUnion([ClosedSpec([(1,)])]), 0)
    assert isinstance(covering, BaseCovering)
    assert decided_depth == 2
    direct = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    assert covering.source == direct.source
    assert covering.images == direct.images


def test_union_two_specs_enlarged_tree():
    tree = GameTree.complete(8, 2)
    specs = [ClosedSpec([(1,)]), ClosedSpec([(0,)])]
    payoff = realize(tree, ClosedUnion(specs))
    assert payoff == frozenset(tree.full_depth_plays())
    covering, decided_depth = unravel_payoff(tree, ClosedUnion(specs), 0)
    assert covering.level == 0
    assert check_position_map(covering)
    via = solve_via_covering(covering, payoff, decided_depth)
    assert via.winner is solve(tree, payoff).winner is Player.I


def test_union_exhaustion_errors_name_their_stage():
    # depth 4 leaves no room past stage 0: stage 1 runs at the depth
    # boundary, where no generator is deep enough
    tree = GameTree.complete(4, 2)
    with pytest.raises(ValueError, match="stage 1"):
        unravel_payoff(tree, ClosedUnion([ClosedSpec([(1,)]), ClosedSpec([(0,)])]), 0)
    # and once the stage level itself would need to exceed the bound
    deep = GameTree.complete(6, 2)
    with pytest.raises(ValueError, match="stage 3"):
        unravel_payoff(deep, ClosedUnion([ClosedSpec()] * 4), 2)


@pytest.mark.parametrize(
    "expression, level, stages, written",
    [
        (lambda a, b: Union(a, b), 2, "stage 1: ", (0, 1, 0, 1)),
        (lambda a, b: Union(a, Not(Union(a, b))), 0, "stage 1: stage 1: ", (0, 1, 0, 1)),
        (
            lambda a, b: Union(a, Not(Union(Not(Union(a, b)), a))),
            0,
            "stage 1: stage 0: stage 1: ",
            (0, 1, 0, 1),
        ),
        (lambda a, b: Union(a, Not(Union(a, b))), 2, "stage 1: stage 0: ", (1, 0, 0)),
    ],
    ids=["union-at-2", "nested-at-0", "nested-twice-at-0", "nested-at-2"],
)
def test_a_generator_a_stage_rejects_is_named_as_written(
    fixtures_dir, expression, level, stages, written
):
    """A later stage unravels generators pulled back through the composite
    so far; each union maps a rejected one to its image, so nested unions
    name the generator of the expression, and the error carries it."""
    document = parse_game_bytes((fixtures_dir / "union.game").read_bytes())
    payoff = expression(*document.payoff.parts)
    with pytest.raises(ArenaError) as raised:
        unravel_payoff(document.tree, payoff, level)
    assert raised.value.position == written
    assert str(raised.value) == (
        f"{stages}generator {format_position(written)} too shallow for level 4 (need depth >= 6)"
    )


def test_union_cap_errors_name_their_stage(fixtures_dir):
    """A cap met in a stage names the stage, as a bad generator does, and
    stays a ``ResourceLimitError``; the finishing covering is not a stage.
    On ``union.game`` the node cap 50 stops stage 0, 180 stage 1 and 190
    the finishing covering; at frontier cap 1 the seeded unions 0 and 3
    stop in stage 0 and union 2 in the finishing covering."""
    document = parse_game_bytes((fixtures_dir / "union.game").read_bytes())
    for node_max, stage in ((50, "stage 0: "), (180, "stage 1: "), (190, "")):
        with pytest.raises(ResourceLimitError) as raised:
            unravel_payoff(document.tree, document.payoff, 0, node_max=node_max)
        assert str(raised.value) == f"{stage}covering source exceeds {node_max} nodes"
    for index in (0, 3):
        tree, specs = random_union_instance(f"stage-cap:{index}", depth=6, branching=2)
        with pytest.raises(ResourceLimitError, match="^stage 0: frontier size 2 exceeds cap 1 at "):
            unravel_union(tree, specs, 0, frontier_max=1)
    tree, specs = random_union_instance("stage-cap:2", depth=6, branching=2)
    with pytest.raises(ResourceLimitError, match=r"^frontier size 2 exceeds cap 1 at 0\[\]$"):
        unravel_union(tree, specs, 0, frontier_max=1)


@pytest.mark.parametrize(
    "first, second, unknown",
    [((3, 0, 0), (1, 1, 1, 1), "3/0/0"), ((1, 0, 0), (3, 1, 1, 1), "3/1/1/1")],
    ids=["part-0", "part-1"],
)
def test_union_checks_every_parts_generators_before_any_stage(monkeypatch, first, second, unknown):
    stages = recorded_stages(monkeypatch)
    union = ClosedUnion([ClosedSpec([first]), ClosedSpec([second])])
    with pytest.raises(ArenaError, match=f"^generator on unknown position {unknown}$"):
        unravel_payoff(GameTree.complete(6, 2), union, 0)
    assert stages == []


def test_base_covering_never_realizes_its_closed_set(monkeypatch, ex1, fixtures_dir):
    """The frontiers are read off the generator marks by id."""
    depth6 = parse_game_bytes((fixtures_dir / "depth6.game").read_bytes())

    def refuse(*args):
        raise AssertionError("the base construction realized its closed set")

    monkeypatch.setattr(unravel_module, "realize", refuse)
    assert build_base_covering(ex1, ClosedSpec([(1,)]), 0).frontiers[((), 1)]
    assert build_base_covering(depth6.tree, depth6.payoff.spec, 2).frontiers


@given(st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_union_matches_direct_solve(seed):
    tree, specs = random_union_instance(f"union:{seed}", depth=6, branching=2, parts=2)
    payoff = realize(tree, ClosedUnion(specs))
    covering, decided_depth = unravel_payoff(tree, ClosedUnion(specs), 0)
    assert check_position_map(covering)
    via = solve_via_covering(covering, payoff, decided_depth)
    direct = solve(tree, payoff)
    assert via.winner is direct.winner
    assert is_winning_strategy(tree, payoff, via.strategy)


# ----------------------------------------------------------- unravel_payoff


def _random_payoff(rng, tree, nesting):
    """A closed set, or with ``nesting`` left a union of 2-3 such
    expressions, each under a ``Not`` three times in ten."""
    if nesting and rng.random() < (0.9 if nesting == 2 else 0.5):
        payoff = Union(*(_random_payoff(rng, tree, nesting - 1) for _ in range(rng.randint(2, 3))))
    else:
        payoff = Closed(random_closed_spec(rng, tree, max_generators=2, min_generators=1))
    return Not(payoff) if rng.random() < 0.3 else payoff


def _bare(payoff):
    while isinstance(payoff, Not):
        payoff = payoff.payoff
    return payoff


def _nests(payoff):
    """True iff the expression is a union with a union among its parts,
    complements aside."""
    payoff = _bare(payoff)
    return isinstance(payoff, Union) and any(isinstance(_bare(p), Union) for p in payoff.parts)


def test_payoff_expressions_unravel_by_induction():
    """Random expressions with complements at any level and unions nested
    two deep, on depth-8 trees with frontier cap 3: each covering that
    builds is a covering, certifies the payoff at the depth it returns,
    and decides the game as the direct solver does."""
    built = nested = 0
    for index in range(40):
        rng = rng_for(f"expression:{index}")
        tree = random_tree(rng, depth=8, branching=2, taboos=8)
        payoff = _random_payoff(rng, tree, 2)
        try:  # the node cap keeps the test fast; a capped draw is skipped
            covering, decided_depth = unravel_payoff(
                tree, payoff, 0, frontier_max=3, node_max=4000
            )
        except ResourceLimitError:
            continue
        leaves = realize(tree, payoff)
        assert check_position_map(covering)
        assert decided_by_depth(covering.source, pullback(covering, leaves), decided_depth)
        via = solve_via_covering(covering, leaves, decided_depth)
        assert via.winner is solve(tree, leaves).winner
        assert is_winning_strategy(tree, leaves, via.strategy)
        built += 1
        nested += _nests(payoff)
    assert built >= 18 and nested >= 10, (built, nested)


def test_complement_takes_the_covering_of_its_operand(ex1):
    spec = ClosedSpec([(1,)])
    closed, closed_depth = unravel_payoff(ex1, Closed(spec), 0)
    opened, open_depth = unravel_payoff(ex1, Not(Not(Not(Closed(spec)))), 0)
    assert open_depth == closed_depth == 2
    assert opened.source == closed.source
    assert opened.images == closed.images


def test_check_accept_set_names_a_play_on_the_wrong_side(ex1):
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    assert check_accept_set(covering)
    challenged = min(
        leaf for leaf in covering.source.full_depth_plays() if isinstance(leaf[1], Challenge)
    )
    images = array("i", covering.images)
    images[covering.source._id(challenged)] = ex1._id((0, 0, 0, 0))  # into the closed set
    result = check_accept_set(dataclasses.replace(covering, images=images))
    assert not result
    assert result.detail == (
        f"play {format_position(challenged)} is in the pullback, not the accept set"
    )


# --------------------------------------------------- end-to-end determinacy


@given(st.integers(0, 800))
@settings(max_examples=40, deadline=None)
def test_end_to_end_determinacy_base(seed):
    tree, spec = random_game(f"e2e:{seed}", depth=4, branching=2, taboos=2)
    payoff = realize(tree, Closed(spec))
    covering = build_base_covering(tree, spec, 0)
    via = solve_via_covering(covering, payoff, 2)
    direct = solve(tree, payoff)
    assert via.winner is direct.winner
    assert is_winning_strategy(tree, payoff, via.strategy)
    # the same covering certifies the complement at the same depth
    complement = frozenset(tree.full_depth_plays()) - payoff
    assert decided_by_depth(covering.source, pullback(covering, complement), 2)
    via_complement = solve_via_covering(covering, complement, 2)
    assert via_complement.winner is solve(tree, complement).winner


def test_lift_of_play_inside_copied_levels():
    # taboo at depth 1 sits inside the identity region of a level-2 covering;
    # its lift is the play itself
    tree = GameTree(
        6,
        [(0,), (1,)] + [tuple([0] * n) for n in range(2, 7)],
        {(1,): Player.II},
    )
    covering = build_base_covering(tree, ClosedSpec(), 2)
    strategy = random_strategy(rng_for("copied"), covering.source, Player.I)
    mapped = covering.strategy_transform(strategy)
    plays = consistent_plays(tree, mapped)
    for play in plays:
        assert verify_lift(covering, strategy, play)
        if len(play) <= 2:
            assert covering.lift(strategy, play) == play
    assert any(len(play) <= 2 for play in plays) or mapped.choices[()] == 0


def test_composite_lifts_satisfy_the_lifting_condition():
    """verify_lift through a full union composite (two stages + finishing)."""
    tree, specs = random_union_instance("composite-lift", depth=6, branching=2, parts=2)
    covering, _ = unravel_payoff(tree, ClosedUnion(specs), 0)
    rng = rng_for("composite-lift-strategies")
    checked = 0
    for owner in (Player.I, Player.II):
        for _ in range(4):
            strategy = random_strategy(rng, covering.source, owner)
            mapped = covering.strategy_transform(strategy)
            for play in consistent_plays(tree, mapped):
                assert verify_lift(covering, strategy, play).ok
                checked += 1
    assert checked > 0


def _strategy_count(tree, owner):
    nodes = oracles.decision_positions(tree, owner)
    return math.prod(len(tree.children_of(p)) for p in nodes)


def _check_every_strategy(tree, payoff, covering):
    """Each play consistent with a strategy's image lifts, and each strategy
    winning the pulled-back game maps to one winning the target."""
    pulled = pullback(covering, payoff)
    source = covering.source
    for owner in Player:
        nodes = oracles.decision_positions(source, owner)
        for combo in itertools.product(*(source.children_of(p) for p in nodes)):
            strategy = Strategy(owner, dict(zip(nodes, combo)))
            mapped = covering.strategy_transform(strategy)
            for play in consistent_plays(tree, mapped):
                assert verify_lift(covering, strategy, play).ok
            if is_winning_strategy(source, pulled, strategy):
                assert is_winning_strategy(tree, payoff, mapped)


def _small_base_coverings(prefix, count, k, strategies_max, **shape):
    """Base coverings at level ``k`` with a frontier of at least two (so the
    challenge and rebased-claim branches are reached) and at most
    ``strategies_max`` strategies per player."""
    found = []
    for index in range(600):
        tree, spec = random_game(f"{prefix}:{index}", **shape)
        covering = build_base_covering(tree, spec, k)
        if max(map(len, covering.frontiers.values()), default=0) < 2:
            continue
        if any(_strategy_count(covering.source, owner) > strategies_max for owner in Player):
            continue
        found.append((tree, realize(tree, Closed(spec)), covering))
        if len(found) == count:
            break
    assert len(found) == count
    return found


def test_every_strategy_lifts_and_transfers_wins_on_small_coverings():
    """Exhaustive over every strategy of both players on small coverings."""
    shape = dict(depth=4, branching=2, taboos=2, generators=3)
    for instance in _small_base_coverings("exh", 20, 0, 4096, **shape):
        _check_every_strategy(*instance)


def test_every_strategy_lifts_and_transfers_wins_at_level_two():
    shape = dict(depth=6, branching=2, taboos=4, generators=3)
    for instance in _small_base_coverings("exh2", 10, 2, 1024, **shape):
        _check_every_strategy(*instance)


def _claims_something(source):
    return any(isinstance(a, Claim) and a.claimed for p in source.positions() for a in p)


def test_every_strategy_lifts_and_transfers_wins_on_union_composites():
    """Two stages and the finishing covering, composed; each instance has a
    non-empty claim and 16 to 1024 strategies per player."""
    instances = []
    for index in range(400):
        tree, specs = random_union_instance(f"exhu:{index}", depth=6, branching=2, taboos=3)
        covering, _ = unravel_payoff(tree, ClosedUnion(specs), 0)
        source = covering.source
        counts = [_strategy_count(source, owner) for owner in Player]
        if not 16 <= min(counts) <= max(counts) <= 1024:
            continue
        if not _claims_something(source):
            continue
        instances.append((tree, realize(tree, ClosedUnion(specs)), covering))
        if len(instances) == 10:
            break
    assert len(instances) == 10
    for instance in instances:
        _check_every_strategy(*instance)


def _claiming_composite(prefix):
    """The first two-part union composite over a seed of ``prefix`` whose
    source has a claim with a non-empty claimed set."""
    for index in range(100):
        tree, specs = random_union_instance(f"{prefix}:{index}", depth=6, branching=2)
        if _claims_something(unravel_payoff(tree, ClosedUnion(specs), 0)[0].source):
            return lambda: unravel_payoff(tree, ClosedUnion(specs), 0)[0]
    raise AssertionError("no composite with a non-empty claim")


def _covering_builder(kind):
    """A function building the same covering afresh on each call."""
    if kind == "union":
        return _claiming_composite("memo-union")
    k = int(kind[1:])
    shape = dict(depth=4 + k, branching=2, taboos=2 + k, generators=3)
    _, _, covering = _small_base_coverings(f"memo-{kind}", 1, k, 4096, **shape)[0]
    return lambda: build_base_covering(covering.target, covering.spec, k)


@pytest.mark.parametrize("kind", ["k0", "k2", "union"])
def test_strategy_maps_remember_only_the_last_strategy(kind):
    """Mapping A, B, then A again, and lifting A's plays while B is the last
    strategy mapped, gives what freshly built coverings give; mapping one
    strategy twice in a row returns the same image object."""
    build = _covering_builder(kind)
    covering = build()
    rng = rng_for(f"memo-strategies:{kind}")
    lifted = 0
    for owner in Player:
        first, second = (random_strategy(rng, covering.source, owner) for _ in range(2))
        image_first = covering.strategy_transform(first)
        assert covering.strategy_transform(first) is image_first
        image_second = covering.strategy_transform(second)
        plays = consistent_plays(covering.target, image_first)
        lifts = [covering.lift(first, play) for play in plays]
        again = covering.strategy_transform(first)
        assert covering.strategy_transform(first) is again
        fresh_first, fresh_second = build(), build()
        assert image_first == again == fresh_first.strategy_transform(first)
        assert image_second == fresh_second.strategy_transform(second)
        assert lifts == [fresh_first.lift(first, play) for play in plays]
        assert all(verify_lift(covering, first, play).ok for play in plays)
        lifted += len(plays)
    assert lifted > 0


@pytest.mark.parametrize("kind", ["k0", "union"])
def test_lifting_a_mapped_strategy_maps_it_no_more(kind, monkeypatch):
    """Once a strategy is mapped, checking the lift of every play consistent
    with its image builds no further ``Strategy`` in the construction."""
    covering = _covering_builder(kind)()
    strategy = random_strategy(rng_for(f"memo-lift:{kind}"), covering.source, Player.II)
    mapped = covering.strategy_transform(strategy)
    built = []
    real = unravel_module.Strategy
    monkeypatch.setattr(unravel_module, "Strategy", lambda *args: built.append(args) or real(*args))
    plays = consistent_plays(covering.target, mapped)
    assert plays
    for play in plays:
        assert verify_lift(covering, strategy, play).ok
    assert built == []


def _assert_misses(choices, table, target, owner):
    """Positions that are not the owner's decisions are misses as in any
    ``Mapping``: the opponent's node, a terminal and tuples not in the tree
    read as no choice, and a list, unhashable, raises ``TypeError`` as the
    decision table itself does."""
    other = oracles.decision_table(target, owner.opponent)
    decision = next(iter(table))
    misses = [next(iter(other)), next(iter(target.full_depth_plays())), (99,), decision + (99, 99)]
    for p in misses:
        assert choices.get(p) is None
        assert p not in choices
        with pytest.raises(KeyError):
            choices[p]
    unhashable = list(decision)
    for mapping in (table, choices):
        for read in (mapping.get, mapping.__contains__, mapping.__getitem__):
            with pytest.raises(TypeError, match="unhashable"):
                read(unhashable)


@pytest.mark.parametrize("kind", ["k0", "k2", "union"])
def test_images_are_the_same_in_any_reading_order(kind):
    """An image read backwards equals one read forwards, and its keys, size
    and membership are the target's decision table, read without computing
    a choice; a miss reads as a miss before any choice is computed and
    after all of them are."""
    build = _covering_builder(kind)
    covering = build()
    target = covering.target
    rng = rng_for(f"lazy-order:{kind}")
    for owner in Player:
        strategy = random_strategy(rng, covering.source, owner)
        forward = covering.strategy_transform(strategy).choices
        backward = build().strategy_transform(strategy).choices
        assert isinstance(forward, Choices) and forward.tree is target and forward.owner is owner
        table = oracles.decision_table(target, owner)
        assert len(forward) == len(table)
        assert list(forward) == list(table)
        assert all(p in forward for p in table)
        assert not any(p in forward for p in target.positions() if p not in table)
        _assert_misses(forward, table, target, owner)
        assert max(forward.picks) == -1  # no choice computed
        read_backwards = {p: backward[p] for p in reversed(list(backward))}
        assert read_backwards == {p: forward[p] for p in forward}
        _assert_misses(forward, table, target, owner)
        known = [i for i, pick in enumerate(forward.picks) if pick >= 0]
        assert known == _decision_ids(target, owner)
        # ``get`` keeps the ``Mapping.get`` contract: a miss is the default,
        # a known choice is read without the fill, and a source without a
        # choice leaves ``[]`` and ``get`` alike with one ``ValueError``.
        missing = object()
        for p in (next(iter(target.full_depth_plays())), (99,)):
            assert forward.get(p, missing) is missing
        read, forward._read = forward._read, None  # a call would raise TypeError
        assert {p: forward.get(p, missing) for p in table} == read_backwards
        forward._read = read
        errors = []
        for read in ("__getitem__", "get"):
            holes = covering.strategy_transform(Strategy(owner, {})).choices
            with pytest.raises(ValueError, match="the source strategy is not total") as error:
                getattr(holes, read)(next(iter(table)))
            errors.append(str(error.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("kind", ["k0", "k2", "union"])
def test_a_win_check_computes_only_the_choices_on_consistent_plays(kind):
    covering = _covering_builder(kind)()
    rng = rng_for(f"lazy-win:{kind}")
    target = covering.target
    payoff = frozenset(target.full_depth_plays())
    for owner in Player:
        mapped = covering.strategy_transform(random_strategy(rng, covering.source, owner))
        is_winning_strategy(target, payoff, mapped)
        table = oracles.decision_table(target, owner)
        on_plays = {
            play[:n]
            for play in consistent_plays(target, mapped)
            for n in range(len(play))
            if play[:n] in table
        }
        known = {target._ordered[i] for i, pick in enumerate(mapped.choices.picks) if pick >= 0}
        assert known == on_plays
        assert len(on_plays) < len(table)


def test_a_missing_source_choice_is_an_error_at_lookup_not_no_choice(ex1):
    """A ``KeyError`` met while a choice is computed must not reach
    ``Mapping.get``, which would read it as "no choice"."""
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    claim = Claim(0, ())  # the closed set is every play through 0: no frontier
    total = strategy_from(
        covering.source, Player.I, lambda p, labels: claim if p == () else labels[0]
    )
    hole = (claim, Accept(1))  # read only for the target position 0/1
    choices = {p: c for p, c in total.choices.items() if p != hole}
    mapped = covering.strategy_transform(Strategy(Player.I, choices))
    assert mapped.choices[()] == 0
    assert mapped.choices[(0, 0)] == total.choices[(claim, Accept(0))]
    assert (0, 1) in mapped.choices
    for read in (mapped.choices.__getitem__, mapped.choices.get):
        with pytest.raises(ValueError, match="no choice at 0/1: the source strategy is not total"):
            read((0, 1))
    with pytest.raises(ValueError, match="no choice at 0/1"):
        oracles.is_consistent((0, 1, 0), mapped)


@pytest.mark.parametrize("k", [0, 2])
def test_a_challenged_never_challenged_claim_fails_at_lookup(k):
    """Player II answers every claim on one move by challenging the same
    frontier position q0, the claim without q0 too, where that challenge
    is no child (the strategy is not legal there).  Mapping it computes
    nothing; reading its reply at length k + 1, directly or through a win
    check, names the first reply that is not a child of its claim, in
    binary-counter order: the one to the claim of nothing."""
    tree = GameTree.complete(4 + k, 2)
    spec = ClosedSpec([(1,)])
    covering = build_base_covering(tree, spec, k)
    (p, a), front = next((key, front) for key, front in covering.frontiers.items() if front)
    q0 = front[0]
    choices = dict(strategy_from(covering.source, Player.II, lambda _, labels: labels[0]).choices)
    for claimed in unravel_module._subsets_counter(front):
        choices[p + (Claim(a, claimed),)] = Challenge(q0, q0[k + 1])
    mapped = covering.strategy_transform(Strategy(Player.II, choices))
    assert max(mapped.choices.picks) == -1
    illegal = format_position(p + (Claim(a, ()), Challenge(q0, q0[k + 1])))
    message = f"^unknown position {re.escape(illegal)}$"
    with pytest.raises(ValueError, match=message):
        mapped.choices[p + (a,)]
    with pytest.raises(ValueError, match=message):
        is_winning_strategy(tree, realize(tree, Closed(spec)), mapped)


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_wider_branching_coverings(seed):
    tree, spec = random_game(f"wide:{seed}", depth=4, branching=3, taboos=3, generators=3)
    try:
        covering = build_base_covering(tree, spec, 0)
    except ResourceLimitError:
        return
    payoff = realize(tree, Closed(spec))
    pulled = pullback(covering, payoff)
    assert decided_by_depth(covering.source, pulled, 2)
    accepts = frozenset(
        leaf for leaf in covering.source.full_depth_plays() if isinstance(leaf[1], Accept)
    )
    assert pulled == accepts
    assert solve_via_covering(covering, payoff, 2).winner is solve(tree, payoff).winner


def test_union_at_level_two():
    tree, specs = random_union_instance("level2-union", depth=8, branching=2, parts=2, level=2)
    covering, decided_depth = unravel_payoff(tree, ClosedUnion(specs), 2)
    assert covering.level == 2
    payoff = realize(tree, ClosedUnion(specs))
    assert solve_via_covering(covering, payoff, decided_depth).winner is solve(tree, payoff).winner


def test_construction_is_deterministic(ex1):
    first = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    second = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    assert first.source == second.source
    assert first.images == second.images
    assert first.frontiers == second.frontiers


# ----------------------------------------- tagged tuple labels, canonical order


def _nested_union_covering():
    tree, specs = random_union_instance("order:5", depth=6, branching=2, parts=3)
    covering, _ = unravel_payoff(tree, ClosedUnion(specs), 0)
    return covering


def _rebuilt(label):
    """An equal label built from fresh, equal parts all the way down."""
    if isinstance(label, int):
        return label

    def position(p):
        return tuple(_rebuilt(inner) for inner in p)

    if isinstance(label, Claim):
        return Claim(_rebuilt(label.move), tuple(position(q) for q in label.claimed))
    if isinstance(label, Accept):
        return Accept(_rebuilt(label.move))
    return Challenge(position(label.target), _rebuilt(label.move))


def test_union_source_order_matches_sort_oracle():
    covering = _nested_union_covering()
    source = covering.source
    assert any(
        isinstance(label, Claim) and any(not isinstance(x, int) for q in label.claimed for x in q)
        for position in source.positions()
        for label in position
    ), "the instance must nest claims inside claimed positions"
    assert list(source.positions()) == oracles.canonical_order_by_sort(source.positions())


def test_structured_labels_keep_equal_hashes_and_fresh_sort_keys():
    nested = _nested_union_covering().source
    base = build_base_covering(GameTree.complete(6, 2), ClosedSpec([(0, 1, 0), (1,)]), 2).source
    for source in (nested, base):
        for position in source.positions():
            labels = source.children_of(position)
            assert sorted(labels) == sorted(labels, key=oracles.fresh_label_key)
        labels = {label for position in source.positions() for label in position}
        assert {Claim, Accept, Challenge} <= {type(label) for label in labels}
        for label in labels:
            if isinstance(label, int):
                continue
            twin = _rebuilt(label)
            assert twin is not label
            assert twin == label and hash(twin) == hash(label)
            copied = pickle.loads(pickle.dumps(label))
            assert copied == label and type(copied) is type(label)
    move, position = 0, (0, 1, 0)
    assert Claim(position, move) != Challenge(position, move)
    assert Accept(move) != move and Accept(move) != Claim(move, ())


# ----------------------------------------- derived trees in id form, caps


def _derived_trees(covering, tree):
    """A covering's source and the pruned remainders of it and of ``tree``."""
    remainders = (prune(covering.source).tree, prune(tree).tree)
    return [covering.source] + [r for r in remainders if r is not None]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "depth6", "union"])
def test_derived_trees_match_the_checked_constructor_on_fixtures(fixtures_dir, name, k):
    document = parse_game_bytes((fixtures_dir / f"{name}.game").read_bytes())
    try:
        covering, _ = unravel_payoff(document.tree, document.payoff, k)
    except ValueError as error:  # a generator too shallow for level k
        assert "too shallow" in str(error)
        covering = build_base_covering(document.tree, ClosedSpec(), k)
    for derived in _derived_trees(covering, document.tree):
        oracles.assert_matches_checked_build(derived)


@given(st.integers(0, 400), st.sampled_from([(4, 3), (6, 2), (6, 3), (8, 2)]))
@settings(max_examples=25, deadline=None)
def test_derived_trees_match_the_checked_constructor_on_seeded_arenas(seed, shape):
    depth, branching = shape
    tree, spec = random_game(f"ids:{seed}", depth=depth, branching=branching, taboos=4)
    for k in (0, 2):
        if k + 2 == depth:  # no generator is deep enough (see _generator_floor)
            spec = ClosedSpec()
        try:
            covering = build_base_covering(tree, spec, k, frontier_max=4, node_max=20_000)
        except ResourceLimitError:
            continue
        for derived in _derived_trees(covering, tree):
            oracles.assert_matches_checked_build(derived)


def test_nested_union_source_matches_the_checked_constructor():
    covering = _nested_union_covering()
    for derived in _derived_trees(covering, covering.target):
        oracles.assert_matches_checked_build(derived)


def recorded_stages(monkeypatch) -> list:
    """Every base covering ``unravel_payoff`` builds from now on, in order."""
    stages = []
    build = unravel_module.build_base_covering

    def recording(*args, **kwargs):
        stages.append(build(*args, **kwargs))
        return stages[-1]

    monkeypatch.setattr(unravel_module, "build_base_covering", recording)
    return stages


def test_checking_a_base_covering_builds_no_position_table_on_its_source(monkeypatch):
    tree, spec = random_game("no-table:3", depth=6, branching=3, taboos=3)
    assert "_children" not in vars(tree)  # the closed set is drawn by id
    payoff = realize(tree, Closed(spec))
    for k in (0, 2):
        covering = build_base_covering(tree, spec, k)
        assert check_position_map(covering)
        pulled = pullback(covering, payoff)
        assert decided_by_depth(covering.source, pulled, k + 2)
        assert solve_via_covering(covering, payoff, k + 2).winner is solve(tree, payoff).winner
        assert check_lift(covering, 4, seed=k)
        assert "_children" not in vars(tree)  # each lifted play is found by id
        assert covering_dot(covering, payoff, node_max=DEFAULT_NODE_MAX)
        assert "_children" not in vars(covering.source)

    # A union: its stages, the pulled-back generators and the decided
    # complement are all found by id.
    tree, specs = random_union_instance("no-table:union", depth=6, branching=2, parts=3)
    assert "_children" not in vars(tree)
    payoff = realize(tree, ClosedUnion(specs))
    stages = recorded_stages(monkeypatch)
    covering, decided_depth = unravel_payoff(tree, ClosedUnion(specs), 0)
    assert len(stages) == 4 and covering.source is stages[-1].source
    assert check_position_map(covering)
    assert decided_by_depth(covering.source, pullback(covering, payoff), decided_depth)
    via = solve_via_covering(covering, payoff, decided_depth)
    assert via.winner is solve(tree, payoff).winner
    assert check_lift(covering, 4, seed=1)
    assert "_children" not in vars(tree)
    assert covering_dot(covering, payoff, node_max=DEFAULT_NODE_MAX)
    for stage in stages:
        assert covering_dot(stage, None, node_max=DEFAULT_NODE_MAX)
        assert "_children" not in vars(stage.source)


def test_composed_images_match_the_composed_position_maps(monkeypatch):
    """A union's composite maps every source position where the stage maps,
    composed one after the other as position tables, take it."""
    stages = recorded_stages(monkeypatch)
    checked = 0
    for seed in range(6):
        tree, specs = random_union_instance(f"compose-oracle:{seed}", depth=6, parts=3)
        stages.clear()
        try:
            covering, _ = unravel_payoff(tree, ClosedUnion(specs), 0, frontier_max=3)
        except ResourceLimitError:
            continue
        composed = None
        for stage in stages:
            targets = stage.target.positions()
            table = {
                position: targets[image]
                for position, image in zip(stage.source.positions(), stage.images)
            }
            if composed is not None:
                table = {position: composed[middle] for position, middle in table.items()}
            composed = table
        targets = covering.target.positions()
        assert composed == {
            position: targets[image]
            for position, image in zip(covering.source.positions(), covering.images)
        }
        checked += 1
    assert checked >= 3, checked


def test_cap_rejections_keep_their_messages_and_order(fixtures_dir):
    """Outcomes of a cap sweep, recorded from a construction that added its
    nodes one by one and checked the caps as it went: a node count, or the
    exact cap message."""
    recorded = json.loads((fixtures_dir / "cap_sweep.json").read_text())
    trees = {}
    for key, expected in recorded.items():
        seed, k, frontier_max, node_max = map(int, key.split("/"))
        if seed not in trees:
            trees[seed] = random_game(f"caps:{seed}", depth=6, branching=3)
        tree, spec = trees[seed]
        try:
            outcome = build_base_covering(
                tree, spec, k, frontier_max=frontier_max, node_max=node_max
            ).source.node_count
        except ResourceLimitError as error:
            outcome = str(error)
        assert outcome == expected, key


def test_node_cap_admits_exactly_the_node_count():
    for seed in range(6):
        tree, spec = random_game(f"caps:{seed}", depth=6, branching=3)
        for k in (0, 2):
            count = build_base_covering(tree, spec, k).source.node_count
            assert build_base_covering(tree, spec, k, node_max=count).source.node_count == count
            with pytest.raises(ResourceLimitError, match=f"exceeds {count - 1} nodes"):
                build_base_covering(tree, spec, k, node_max=count - 1)


def test_claim_tables_are_the_sorted_counter_order():
    for size in range(11):
        expected = sorted(unravel_module._subsets_counter(range(size)))
        assert list(unravel_module._claim_order(size)) == expected


def test_a_move_over_a_cap_asks_for_no_claim_table(monkeypatch):
    """Each move asks for the claim table of its frontier size only after
    its frontier and its nodes passed the caps, so a move that fails a cap
    builds no table of its size."""
    asked = []
    table = unravel_module._claim_order
    monkeypatch.setattr(
        unravel_module, "_claim_order", lambda size: (asked.append(size), table(size))[1]
    )
    checked = 0
    for seed in range(12):
        tree, spec = random_game(f"caps:{seed}", depth=6, branching=3)
        for k in (0, 2):
            asked.clear()
            covering = build_base_covering(tree, spec, k)
            sizes = [len(front) for front in covering.frontiers.values()]  # move order
            assert asked == sizes
            largest = sizes[-1]
            if largest <= max(sizes[:-1], default=0):
                continue  # wanted: the last move alone has the largest frontier
            checked += 1
            asked.clear()
            with pytest.raises(ResourceLimitError, match=f"frontier size {largest} exceeds"):
                build_base_covering(tree, spec, k, frontier_max=largest - 1)
            assert asked == sizes[:-1]
            asked.clear()
            count = covering.source.node_count
            with pytest.raises(ResourceLimitError, match=f"exceeds {count - 1} nodes"):
                build_base_covering(tree, spec, k, node_max=count - 1)
            assert asked == sizes[:-1]
    assert checked >= 2, checked


def assert_replies_are_shared(covering):
    """Every claim's replies are the construction's objects: one ``Accept``
    per move label and one ``Challenge`` per frontier position, by identity
    across moves; the claims of nothing on moves with equal child labels
    share one reply tuple."""
    source, k = covering.source, covering.level
    objects: dict = {}
    by_labels: dict = {}
    for claim_id in range(source._levels[k + 1], source._levels[k + 2]):
        replies = source._labels[claim_id]
        for reply in replies:
            assert objects.setdefault(reply, reply) is reply
        claim = source._ordered[claim_id][-1]
        if not claim.claimed:
            assert by_labels.setdefault(replies, replies) is replies
    challenged = {reply.target for reply in objects if isinstance(reply, Challenge)}
    assert challenged == {q for front in covering.frontiers.values() for q in front}
    return objects


def test_claims_share_their_reply_objects(ex1, fixtures_dir, monkeypatch):
    shared = assert_replies_are_shared(build_base_covering(ex1, ClosedSpec([(1,)]), 0))
    assert set(shared) == {Accept(0), Accept(1), Challenge((1, 0), 0), Challenge((1, 1), 1)}
    document = parse_game_bytes((fixtures_dir / "depth6.game").read_bytes())
    covering, _ = unravel_payoff(document.tree, document.payoff, 2)
    assert covering.level == 2 and any(covering.frontiers.values())
    assert_replies_are_shared(covering)
    stages = recorded_stages(monkeypatch)
    tree, specs = random_union_instance("shared-replies:0", depth=6, parts=3)
    unravel_payoff(tree, ClosedUnion(specs), 0, frontier_max=3)
    assert any(map(any, stages[-1].frontiers.values()))
    assert_replies_are_shared(stages[-1])


def _deep_trees():
    """Trees deeper than 25 whose base coverings hold far more than 25
    position labels a node: a fork whose branch 0/0 the closed set avoids
    (so 0/0 is the move's one frontier node, claimed or not, and
    challenged), and a binary top of depth 3 with a chain of 0s under
    each of its leaves, with two generators."""
    depth = 100
    fork = [(0,), *((0, branch) + (0,) * n for n in range(depth - 1) for branch in (0, 1))]
    yield GameTree(depth, fork), ClosedSpec([(0, 0, 0)]), 0
    top = [p for d in (1, 2, 3) for p in itertools.product((0, 1), repeat=d)]
    chains = [p + (0,) * n for p in top if len(p) == 3 for n in range(1, depth - 2)]
    for k in (0, 2):
        yield GameTree(depth, top + chains), ClosedSpec([(0, 0, 0), (1, 1, 1)]), k


def test_label_budget_admits_exactly_the_label_count(monkeypatch):
    """The source's position labels are counted exactly, once, from its
    position map before its positions are built, and the budget is 25 per
    node of the cap."""
    counted = []
    check = unravel_module._check_label_budget
    monkeypatch.setattr(
        unravel_module,
        "_check_label_budget",
        lambda what, labels, node_max: (counted.append(labels), check(what, labels, node_max)),
    )
    for tree, spec, k in _deep_trees():
        source = build_base_covering(tree, spec, k).source
        labels = sum(map(len, source.positions()))
        assert counted[-1] == labels
        node_max = -(-labels // 25)  # the least cap whose budget holds them
        assert source.node_count < node_max - 1
        assert build_base_covering(tree, spec, k, node_max=node_max).source == source
        with pytest.raises(
            ResourceLimitError,
            match=rf"covering source exceeds {25 * (node_max - 1)} position labels \(25 per",
        ):
            build_base_covering(tree, spec, k, node_max=node_max - 1)


def test_a_source_over_the_label_budget_builds_no_positions(monkeypatch):
    """The label budget is checked before the positions are built: just
    past it, the build raises and never reaches ``_positions_below``."""
    built = []
    below = unravel_module._positions_below
    monkeypatch.setattr(
        unravel_module, "_positions_below", lambda *args: (built.append(1), below(*args))[1]
    )
    for tree, spec, k in _deep_trees():
        labels = sum(map(len, build_base_covering(tree, spec, k).source.positions()))
        node_max = -(-labels // 25)
        built.clear()
        with pytest.raises(ResourceLimitError, match="position labels"):
            build_base_covering(tree, spec, k, node_max=node_max - 1)
        assert built == []


# ------------------------------- the level-by-level build, against its oracles


def build_outcome(build, tree, spec, k, **caps):
    """What a builder makes of one input: the source's arrays, the position
    map and the frontier table in key order, or the text of its error."""
    try:
        covering = build(tree, spec, k, **caps)
    except (ResourceLimitError, ValueError) as error:
        return type(error), str(error)
    source = covering.source
    frontiers = list(covering.frontiers.items())
    return source._ordered, source._labels, source._tags, covering.images, frontiers


def assert_builds_like_the_reference(tree, spec, k, **caps):
    expected = build_outcome(oracles.reference_base_covering, tree, spec, k, **caps)
    assert build_outcome(build_base_covering, tree, spec, k, **caps) == expected
    return expected


@pytest.mark.parametrize("depth", [4, 6, 8])
@pytest.mark.parametrize("branching", [2, 3])
def test_base_covering_matches_the_node_by_node_reference(depth, branching):
    built = 0
    for seed in range(6):
        tree, spec = random_game(
            f"reference:{depth}:{branching}:{seed}", depth=depth, branching=branching, taboos=3
        )
        for k in (0, 2):
            for frontier_max in (1, 2, 3, 10):
                outcome = assert_builds_like_the_reference(
                    tree, spec, k, frontier_max=frontier_max
                )
            if len(outcome) == 2:  # a cap or a generator too shallow at level k
                continue
            built += 1
            nodes = len(outcome[0])
            for node_max in (nodes, nodes - 1):
                assert_builds_like_the_reference(tree, spec, k, node_max=node_max)
    assert built >= 3, built


def test_union_stages_match_the_node_by_node_reference(monkeypatch):
    stages = recorded_stages(monkeypatch)
    for seed in range(8):
        tree, specs = random_union_instance(f"reference-union:{seed}", depth=6, parts=3)
        try:
            unravel_payoff(tree, ClosedUnion(specs), 0, frontier_max=3)
        except ResourceLimitError:
            pass
    assert len(stages) >= 12, len(stages)
    for stage in stages:
        assert_builds_like_the_reference(stage.target, stage.spec, stage.level, frontier_max=3)


@given(st.integers(0, 300), st.sampled_from([(6, 2), (6, 3), (8, 2)]))
@settings(max_examples=20, deadline=None)
def test_meets_pass_matches_the_leaf_walk_oracle(seed, shape):
    depth, branching = shape
    tree, spec = random_game(f"meets:{seed}", depth=depth, branching=branching, taboos=3)
    for k in (0, 2):
        try:
            build_base_covering(tree, spec, k)
        except ResourceLimitError:
            pass
    assert "_children" not in vars(tree)
    payoff = realize(tree, Closed(spec))
    for k in (0, 2):
        meets = unravel_module._meets(tree, _banned(tree, spec), k)
        for i, position in enumerate(tree.positions()):
            if len(position) >= k + 2:
                assert meets[i] == oracles.meets_by_leaf_walk(tree, position, payoff), position



# The fixtures whose generators are deep enough for a level-2 covering.
LEVEL_2_FIXTURES = ("depth6.game", "ex2.game", "ex3.game")


def test_paths_by_id_are_the_formatted_positions(fixtures_dir):
    """Each path written from its parent's equals ``format_position`` on
    every fixture tree and its covering sources at k = 0 and, where the
    generators allow, k = 2; ``union.game``'s composite source has claims
    whose labels hold nested positions."""
    trees = []
    for path in sorted(fixtures_dir.glob("*.game")):
        document = parse_game_bytes(path.read_bytes())
        trees.append(document.tree)
        for k in (0, 2) if path.name in LEVEL_2_FIXTURES else (0,):
            trees.append(unravel_payoff(document.tree, document.payoff, k)[0].source)
    assert len(trees) == 15
    nested = 0
    for tree in trees:
        paths = _paths(tree)
        assert paths == [format_position(position) for position in tree.positions()]
        nested += sum("[" in path and "," in path for path in paths)
    assert nested  # some claims hold more than one position


@given(st.text(alphabet='ab"\\/[,]', max_size=12))
@settings(max_examples=200, deadline=None)
def test_dot_escaping_is_the_translate_table(text):
    """Two replaces, backslash first, escape as the old translate table did."""
    table = str.maketrans({'"': '\\"', "\\": "\\\\"})
    assert _escaped(text) == text.translate(table)
    assert _escaped('say "a\\b"') == 'say \\"a\\\\b\\"'
