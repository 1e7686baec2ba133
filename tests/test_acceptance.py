"""Acceptance suite: one test per criterion, each printing a verdict line.

Every sampled run is driven by fixed string seeds, so verdicts (and the
worked-example reports) are reproducible bit for bit.
"""

import contextlib
import io
import random
import time

from unraveling.core import (
    Player,
    ResourceLimitError,
    consistent_plays,
    is_winning_strategy,
    random_strategy,
)
from unraveling.covering import (
    CheckResult,
    check_position_map,
    check_strategy_locality,
    check_winning_transfer,
    pullback,
    solve_via_covering,
    verify_lift,
)
from unraveling.gamedoc import GameDocError, GameDocument, format_game, parse_game, parse_game_bytes
from unraveling.payoff import Closed, ClosedSpec, ClosedUnion, decided_by_depth, realize
from unraveling.randgen import random_game, random_union_instance, rng_for
from unraveling.solver import prune, solve, transfer_from_pruned
from unraveling.unravel import Accept, build_base_covering, unravel_payoff

import oracles


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _sample_games(count: int):
    """The shared 500-game sample: depth <= 6, branching <= 3, <= 3 taboos,
    closed payoffs with <= 3 generators."""
    for index in range(count):
        rng = rng_for(f"acceptance:shape:{index}")
        depth = rng.choice([2, 4, 4, 6, 6])
        branching = rng.choice([2, 2, 3])
        tree, spec = random_game(
            f"acceptance:game:{index}",
            depth=depth,
            branching=branching,
            taboos=3,
            generators=3,
        )
        yield index, tree, spec


SAMPLE_SIZE = 500


def test_criterion_1_determinacy_oracle():
    started = time.monotonic()
    verified = 0
    oracle_checked = 0
    for index, tree, spec in _sample_games(SAMPLE_SIZE):
        payoff = realize(tree, Closed(spec))
        solution = solve(tree, payoff)
        assert is_winning_strategy(tree, payoff, solution.strategy), f"game {index}"
        verified += 1
        loser_nodes = oracles.decision_positions(tree, solution.winner.opponent)
        if len(loser_nodes) <= 12:
            assert oracles.zermelo_winner(tree, payoff) is solution.winner, f"game {index}"
            oracle_checked += 1
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "determinacy-oracle",
        verified == SAMPLE_SIZE and elapsed <= 60.0,
        f"{verified}/{SAMPLE_SIZE} verified, {oracle_checked} oracle-checked, {elapsed:.1f}s",
    )


def test_criterion_2_pruning_suite():
    transferred_ok = 0
    for index, tree, spec in _sample_games(SAMPLE_SIZE):
        payoff = realize(tree, Closed(spec))
        direct = solve(tree, payoff)
        result = prune(tree)
        if result.tree is None:
            assert result.root_determined is direct.winner, f"game {index}"
            assert is_winning_strategy(tree, payoff, result.witnesses[()]), f"game {index}"
        else:
            remainder_payoff = payoff & frozenset(result.tree.full_depth_plays())
            pruned_solution = solve(result.tree, remainder_payoff)
            assert pruned_solution.winner is direct.winner, f"game {index}"
            # transfer_from_pruned raises InternalInvariantError if the
            # impossible entry sub-case is ever observed
            strategy = transfer_from_pruned(tree, result, pruned_solution.strategy)
            assert is_winning_strategy(tree, payoff, strategy), f"game {index}"
        transferred_ok += 1
    _verdict(2, "taboo-pruning", transferred_ok == SAMPLE_SIZE, f"{transferred_ok}/{SAMPLE_SIZE}")


COVERING_INSTANCES = 200


def _covering_instances():
    """200 (tree, spec, level) instances with level in {0, 2}, within caps."""
    built = 0
    attempt = 0
    while built < COVERING_INSTANCES:
        rng = rng_for(f"acceptance:cover-shape:{attempt}")
        level = rng.choice([0, 0, 2])
        depth = 6 if level == 2 else rng.choice([4, 4, 6])
        tree, spec = random_game(
            f"acceptance:cover:{attempt}",
            depth=depth,
            branching=2,
            taboos=3,
            generators=2,
        )
        attempt += 1
        try:
            covering = build_base_covering(tree, spec, level, node_max=60_000)
        except ResourceLimitError:
            continue  # outside the caps; the seed walk is still deterministic
        built += 1
        yield built - 1, tree, spec, covering


def test_criterion_3_base_covering_axioms():
    lift_plays = 0
    for index, tree, spec, covering in _covering_instances():
        assert check_position_map(covering), f"instance {index}"
        assert check_strategy_locality(covering, 50, seed=index), f"instance {index}"
        rng = rng_for(f"acceptance:lift:{index}")
        for owner in (Player.I, Player.II):
            for _ in range(20):
                strategy = random_strategy(rng, covering.source, owner)
                mapped = covering.strategy_transform(strategy)
                for play in consistent_plays(tree, mapped):
                    report = verify_lift(covering, strategy, play)
                    assert report.ok, f"instance {index}, owner {owner}, play {play}"
                    lift_plays += 1
    _verdict(
        3,
        "base-covering-axioms",
        True,
        f"{COVERING_INSTANCES} instances, {lift_plays} lifted plays",
    )


def test_criterion_4_clopen_certificate():
    for index, tree, spec, covering in _covering_instances():
        payoff = realize(tree, Closed(spec))
        pulled = pullback(covering, payoff)
        certificate_depth = covering.level + 2
        assert decided_by_depth(covering.source, pulled, certificate_depth), f"instance {index}"
        accepts = frozenset(
            leaf
            for leaf in covering.source.full_depth_plays()
            if isinstance(leaf[covering.level + 1], Accept)
        )
        assert pulled == accepts, f"instance {index}: pullback is not the accept set"
        complement = frozenset(tree.full_depth_plays()) - payoff
        assert decided_by_depth(
            covering.source, pullback(covering, complement), certificate_depth
        ), f"instance {index}: complement not certified"
    _verdict(4, "clopen-certificate", True, f"{COVERING_INSTANCES} instances")


def test_criterion_5_winning_transfer_end_to_end():
    for index, tree, spec, covering in _covering_instances():
        payoff = realize(tree, Closed(spec))
        direct = solve(tree, payoff)
        via = solve_via_covering(covering, payoff, covering.level + 2)
        assert via.winner is direct.winner, f"instance {index}"
        assert is_winning_strategy(tree, payoff, via.strategy), f"instance {index}"
        assert check_winning_transfer(covering, payoff, 20, seed=index), f"instance {index}"
    _verdict(5, "winning-strategy-transfer", True, f"{COVERING_INSTANCES} instances")


UNION_INSTANCES = 100


def test_criterion_6_union_unraveling():
    built = 0
    attempt = 0
    while built < UNION_INSTANCES:
        rng = rng_for(f"acceptance:union-shape:{attempt}")
        parts = rng.choice([2, 2, 3])
        depth = 8 if parts == 3 else rng.choice([6, 8])
        tree, specs = random_union_instance(
            f"acceptance:union:{attempt}", depth=depth, branching=2, taboos=3, parts=parts
        )
        attempt += 1
        try:
            covering, decided_depth = unravel_payoff(
                tree, ClosedUnion(specs), 0, node_max=60_000
            )
        except ResourceLimitError:
            continue
        built += 1
        index = built - 1
        assert covering.level == 0, f"instance {index}: composite level is not the minimum"
        assert check_position_map(covering), f"instance {index}"
        assert check_strategy_locality(covering, 6, seed=index), f"instance {index}"
        payoff = realize(tree, ClosedUnion(specs))
        via = solve_via_covering(covering, payoff, decided_depth)
        direct = solve(tree, payoff)
        assert via.winner is direct.winner, f"instance {index}"
        assert is_winning_strategy(tree, payoff, via.strategy), f"instance {index}"
    _verdict(6, "union-unraveling", built == UNION_INSTANCES, f"{built}/{UNION_INSTANCES}")


def test_criterion_7_worked_example_goldens(ex1, ex2):
    payoff = realize(ex1, Closed(ClosedSpec([(1,)])))
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    front = covering.frontiers[((), 1)]
    winner_1 = solve_via_covering(covering, payoff, 2).winner
    winner_2 = solve_via_covering(build_base_covering(ex2, ClosedSpec(), 0), frozenset(), 2).winner

    from unraveling.cli import main

    def report(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    first = report(["unravel", "tests/fixtures/ex1.game", "--k", "0"])
    second = report(["unravel", "tests/fixtures/ex1.game", "--k", "0"])
    third = report(["solve", "tests/fixtures/ex2.game"])
    fourth = report(["solve", "tests/fixtures/ex2.game"])

    ok = (
        front == ((1, 0), (1, 1))
        and len(covering.source.children_of(())) == 5
        and winner_1 is Player.I
        and winner_2 is Player.II
        and first == second
        and third == fourth
        and first[0] == third[0] == 0
        and "winner: II" in third[1]
    )
    _verdict(7, "worked-example-goldens", ok, "frontier/children/d/winners bit-identical")


FUZZ_STRINGS = 10_000


def test_criterion_8_cli_robustness(fixtures_dir, monkeypatch):
    rng = random.Random("acceptance:parser-fuzz")
    parsed = 0
    for _ in range(FUZZ_STRINGS):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        try:
            document = parse_game_bytes(blob)
            parsed += 1
            assert isinstance(document, GameDocument)
        except GameDocError:
            continue

    for path in sorted(fixtures_dir.glob("*.game")):
        text = path.read_text()
        assert format_game(parse_game(text)) == text, f"{path.name} round-trip"

    from unraveling import cli

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    ex1 = str(fixtures_dir / "ex1.game")
    contract = (
        run(["solve", ex1]) == 0
        and run(["solve", str(fixtures_dir / "missing.game")]) == 1
        and run(["unravel", ex1, "--k", "7"]) == 1
    )
    # a failing check must map to exit code 2 with the report marked VIOLATION
    monkeypatch.setattr(
        cli, "check_strategy_locality", lambda *a, **k: CheckResult(False, "injected failure")
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        injected = cli.main(["verify", ex1, "--k", "0", "--samples", "2", "--seed", "1"])
    contract = contract and injected == 2 and "VIOLATION" in out.getvalue()
    _verdict(
        8,
        "cli-robustness",
        contract,
        f"{FUZZ_STRINGS} fuzz strings ({parsed} parsed), round-trips, exit codes",
    )
