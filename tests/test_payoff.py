import pytest
from hypothesis import given, settings, strategies as st

from unraveling.core import CheckResult, GameTree, ResourceLimitError
from unraveling.payoff import (
    Closed,
    ClosedSpec,
    ClosedUnion,
    Open,
    Not,
    Union,
    _complement_generators,
    decided_by_depth,
    map_closed,
    realize,
)
from unraveling.covering import pullback
from unraveling.randgen import random_closed_spec, random_game, random_tree, rng_for
from unraveling.unravel import build_base_covering, unravel_payoff

import oracles


def leaves_with(tree, predicate):
    return frozenset(l for l in tree.full_depth_plays() if predicate(l))


# ---------------------------------------------------------------- realize


def test_realize_single_generator(ex1):
    assert realize(ex1, Closed(ClosedSpec([(1,)]))) == leaves_with(ex1, lambda l: l[0] == 0)


def test_realize_empty_generators_is_everything(ex1, ex2):
    for tree in (ex1, ex2):
        assert realize(tree, Closed(ClosedSpec())) == frozenset(tree.full_depth_plays())


def test_realize_union_of_complementary_halves(ex1):
    union = ClosedUnion([ClosedSpec([(1,)]), ClosedSpec([(0,)])])
    assert realize(ex1, union) == frozenset(ex1.full_depth_plays())
    assert len(realize(ex1, union)) == 16


def test_realize_rejects_bad_generators(ex1, ex2):
    with pytest.raises(ValueError, match="unknown position"):
        realize(ex1, Closed(ClosedSpec([(5,)])))
    with pytest.raises(ValueError, match="depth range"):
        realize(ex1, Closed(ClosedSpec([(0, 0, 0, 0)])))
    with pytest.raises(ValueError, match="terminal"):
        realize(ex2, Closed(ClosedSpec([(0, 0)])))


def test_closed_open_partition(ex1):
    spec = ClosedSpec([(1,)])
    closed, opened = realize(ex1, Closed(spec)), realize(ex1, Open(spec))
    assert closed | opened == frozenset(ex1.full_depth_plays())
    assert not closed & opened
    assert len(closed) == len(opened) == 8


# -------------------------------------------------------- decided_by_depth


def test_decided_trivial_cases(ex1):
    everything = frozenset(ex1.full_depth_plays())
    assert decided_by_depth(ex1, everything, 0)
    assert decided_by_depth(ex1, leaves_with(ex1, lambda l: l[0] == 0), 1)
    assert not decided_by_depth(ex1, leaves_with(ex1, lambda l: l[3] == 0), 2)


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_decided_monotone_in_depth(seed):
    rng = rng_for(f"mono:{seed}")
    tree = random_tree(rng, depth=4, branching=2, taboos=2)
    payoff = realize(tree, Closed(random_closed_spec(rng, tree)))
    decided_from = [d for d in range(tree.depth + 1) if decided_by_depth(tree, payoff, d)]
    assert decided_from, "every set is decided at full depth"
    first = decided_from[0]
    assert decided_from == list(range(first, tree.depth + 1))


def _assert_certificates_match_the_prefix_scan(tree, rng, payoff):
    """At every depth, on ``payoff``, its complement and two random sets."""
    plays = list(tree.full_depth_plays())
    sets = [payoff, frozenset(plays) - payoff]
    sets += [frozenset(p for p in plays if rng.random() < 0.5) for _ in range(2)]
    for leaves in sets:
        for depth in range(tree.depth + 1):
            assert decided_by_depth(tree, leaves, depth) == (
                oracles.reference_decided_by_depth(tree, leaves, depth)
            )


@given(st.integers(0, 10**6), st.sampled_from([(4, 3), (6, 2), (6, 3)]))
@settings(max_examples=40, deadline=None)
def test_decided_matches_the_prefix_scan_reference_on_taboo_trees(seed, shape):
    depth, branching = shape
    rng = rng_for(f"certificate:{seed}")
    tree = random_tree(rng, depth=depth, branching=branching, taboos=4)
    payoff = realize(tree, Closed(random_closed_spec(rng, tree)))
    _assert_certificates_match_the_prefix_scan(tree, rng, payoff)


@given(st.integers(0, 10**6), st.sampled_from([0, 2]))
@settings(max_examples=20, deadline=None)
def test_decided_matches_the_prefix_scan_reference_on_covering_sources(seed, k):
    tree, spec = random_game(f"certificate-source:{seed}", depth=6, branching=2, taboos=3)
    try:
        covering = build_base_covering(tree, spec, k, frontier_max=4)
    except ResourceLimitError:
        return
    pulled = pullback(covering, realize(tree, Closed(spec)))
    _assert_certificates_match_the_prefix_scan(covering.source, rng_for(seed), pulled)


# ----------------------------------------------- complement generators


def test_decided_conversion_examples(ex1):
    half = leaves_with(ex1, lambda l: l[0] == 0)
    spec = _complement_generators(ex1, half, 1)
    assert spec == ClosedSpec([(0,)])
    assert realize(ex1, Closed(spec)) == leaves_with(ex1, lambda l: l[0] == 1)

    assert _complement_generators(ex1, frozenset(), 1) == ClosedSpec()
    full = _complement_generators(ex1, frozenset(ex1.full_depth_plays()), 1)
    assert full == ClosedSpec([(0,), (1,)])
    assert realize(ex1, Closed(full)) == frozenset()


def test_complement_at_the_depth_bound_is_empty(ex1, ex2):
    for tree in (ex1, ex2):
        everything = frozenset(tree.full_depth_plays())
        assert _complement_generators(tree, everything, tree.depth) == ClosedSpec()
        assert _complement_generators(tree, everything, tree.depth - 1) != ClosedSpec()


def test_decided_conversion_round_trip(ex1):
    for d in (1, 2):
        for pick in (lambda l: l[0] == 0, lambda l: l[:2] == (1, 0), lambda l: False):
            payoff = leaves_with(ex1, pick)
            if not decided_by_depth(ex1, payoff, d):
                continue
            spec = _complement_generators(ex1, payoff, d)
            assert realize(ex1, Closed(spec)) == frozenset(ex1.full_depth_plays()) - payoff


# ------------------------------------------------------------- error paths


def test_union_must_be_non_empty():
    with pytest.raises(ValueError, match="at least one"):
        ClosedUnion([])


def test_realize_rejects_non_payoff(ex1):
    with pytest.raises(TypeError, match="not a payoff spec"):
        realize(ex1, ClosedSpec())


def test_expression_walks_reject_non_payoff():
    tree = GameTree.complete(4, 2)
    for call in (
        lambda: unravel_payoff(tree, ClosedSpec(), 0),
        lambda: unravel_payoff(tree, Union(ClosedSpec()), 0),
        lambda: map_closed(ClosedSpec(), lambda spec: spec),
    ):
        with pytest.raises(TypeError, match="not a payoff spec"):
            call()


def test_decided_depth_range(ex1):
    with pytest.raises(ValueError, match="out of range"):
        decided_by_depth(ex1, frozenset(), 5)


# ------------------------------------------------------------ expressions


def test_open_and_closed_union_are_expressions():
    spec, other = ClosedSpec([(1,)]), ClosedSpec([(0,)])
    assert Open(spec) == Not(Closed(spec))
    assert ClosedUnion([spec, other]) == Union(Closed(spec), Closed(other))


def test_realize_recurses_over_nested_expressions(ex1):
    left, right = ClosedSpec([(1,)]), ClosedSpec([(1, 0)])
    everything = frozenset(ex1.full_depth_plays())
    nested = Not(Union(Closed(left), Not(Closed(right))))
    expected = everything - (realize(ex1, Closed(left)) | (everything - realize(ex1, Closed(right))))
    assert realize(ex1, nested) == expected
    assert expected == leaves_with(ex1, lambda l: l[:2] == (1, 1))


def test_map_closed_keeps_the_shape_and_maps_every_leaf():
    nested = Not(Union(Closed(ClosedSpec([(1,)])), Not(Closed(ClosedSpec([(0, 0)])))))
    mapped = map_closed(nested, lambda spec: ClosedSpec(g + (1,) for g in spec.generators))
    assert mapped == Not(Union(Closed(ClosedSpec([(1, 1)])), Not(Closed(ClosedSpec([(0, 0, 1)])))))


def test_certificate_names_plays_on_both_sides(ex1):
    payoff = leaves_with(ex1, lambda l: l[:2] == (0, 0) or l == (1, 1, 0, 1))
    for depth in (2, 3):
        assert decided_by_depth(ex1, payoff, depth).detail == (
            f"plays 1/1/0/1 (in) and 1/1/0/0 (out) share the length-{depth} prefix"
        )
    assert decided_by_depth(ex1, payoff, 4) == CheckResult(True)
    complement = frozenset(ex1.full_depth_plays()) - payoff
    assert decided_by_depth(ex1, complement, 2).detail == (
        "plays 1/1/0/0 (in) and 1/1/0/1 (out) share the length-2 prefix"
    )
