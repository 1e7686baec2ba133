import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest

from unraveling import cli
from unraveling.cli import main
from unraveling.core import (
    DEFAULT_NODE_MAX,
    CheckResult,
    Choices,
    ResourceLimitError,
    format_position,
)
import unraveling.covering as covering_module
from unraveling.covering import solve_via_covering
from unraveling.gamedoc import GameDocError, format_game, parse_game_bytes, to_document
from unraveling.payoff import Closed, ClosedUnion, Not, Open, realize
from unraveling.randgen import random_game, random_union_instance
from unraveling.solver import solve
import unraveling.unravel as unravel_module
from unraveling.unravel import unravel_payoff

import oracles
from oracles import strategy_from


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def game(fixtures_dir, name):
    return str(fixtures_dir / name)


# ------------------------------------------------------------------ solve


def test_solve_ex1(fixtures_dir):
    code, out, _ = run_cli("solve", game(fixtures_dir, "ex1.game"))
    assert code == 0
    assert "winner: I" in out
    assert "- -> 0" in out
    assert "result: verified" in out


def test_solve_ex2_empty_payoff(fixtures_dir):
    code, out, _ = run_cli("solve", game(fixtures_dir, "ex2.game"))
    assert code == 0
    assert "winner: II" in out


def solve_picking_the_last_child(monkeypatch):
    """Make ``cli.solve`` keep its winner but return the strategy that
    always moves to the last child."""
    real_solve = cli.solve

    def last_child(tree, leaves):
        solution = real_solve(tree, leaves)
        strategy = strategy_from(tree, solution.winner, lambda _, labels: labels[-1])
        return dataclasses.replace(solution, strategy=strategy)

    monkeypatch.setattr(cli, "solve", last_child)


def test_solve_failure_names_the_lost_play(fixtures_dir, monkeypatch):
    solve_picking_the_last_child(monkeypatch)
    code, out, _ = run_cli("solve", game(fixtures_dir, "ex1.game"))
    assert code == 2
    assert "check winning-strategy: FAIL (loses play 1/0/1/0)\nresult: VIOLATION\n" in out


# ------------------------------------------------------------------ prune


def test_prune_ex2(fixtures_dir):
    code, out, _ = run_cli("prune", game(fixtures_dir, "ex2.game"))
    assert code == 0
    assert "taboo-determined: 1" in out
    assert "winner: II" in out
    assert "check transferred-strategy-wins: ok" in out


def test_prune_failure_names_the_lost_play(fixtures_dir, monkeypatch):
    solve_picking_the_last_child(monkeypatch)
    code, out, _ = run_cli("prune", game(fixtures_dir, "ex1.game"))
    assert code == 2
    assert "check winner-matches-direct-solve: ok\n" in out
    assert "check transferred-strategy-wins: FAIL (loses play 1/0/1/0)\n" in out


def test_prune_winner_mismatch_names_the_direct_winner(fixtures_dir, monkeypatch):
    """The remainder is solved first; flip its winner and the check names
    the winner of the direct solve."""
    real_solve = cli.solve
    calls = []

    def flipped_first(tree, leaves):
        solution = real_solve(tree, leaves)
        calls.append(tree)
        if len(calls) > 1:
            return solution
        return dataclasses.replace(solution, winner=solution.winner.opponent)

    monkeypatch.setattr(cli, "solve", flipped_first)
    code, out, _ = run_cli("prune", game(fixtures_dir, "ex1.game"))
    assert code == 2
    assert "winner: II\n" in out
    assert "check winner-matches-direct-solve: FAIL (the direct solve is won by I)\n" in out


# ---------------------------------------------------------------- unravel


def test_unravel_ex1_report(fixtures_dir):
    code, out, _ = run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "0")
    assert code == 0
    assert "frontier-sizes: 0=0 1=2" in out
    assert "claim-moves: 5" in out
    assert "decided-at: 2" in out
    assert "winner: I" in out
    assert "check transferred-strategy-wins: ok" in out


def test_unravel_frontier_sizes_in_canonical_order(tmp_path):
    """On a 12-letter alphabet, move 10 comes after move 9, not after 1:
    only move 3 leads on, to 3/0, which the generator keeps out of the
    closed set; every other first move is a taboo."""
    nodes = [str(a) for a in range(12)] + ["3/0", "3/0/0", "3/0/0/0"]
    taboos = [f"{a} I" for a in range(12) if a != 3]
    lines = ["GAME v1", "ALPHABET 12", "DEPTH 4", "NODES", *nodes, "TABOOS", *taboos]
    path = tmp_path / "wide.game"
    path.write_text("\n".join(lines + ["PAYOFF closed", "3/0"]) + "\n")
    code, out, _ = run_cli("unravel", str(path))
    assert code == 0
    sizes = " ".join(f"{a}={int(a == 3)}" for a in range(12))
    assert f"frontier-sizes: {sizes}\n" in out


def test_unravel_reports_are_deterministic(fixtures_dir):
    first = run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "0")
    second = run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "0")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_unravel_union(fixtures_dir):
    # the payoff alone selects the union construction
    code, out, _ = run_cli("unravel", game(fixtures_dir, "union.game"), "--k", "0")
    assert code == 0
    assert "winner: I" in out


def test_unravel_union_failing_certificate_is_an_internal_fault(fixtures_dir, monkeypatch):
    monkeypatch.setattr(
        unravel_module, "decided_by_depth", lambda *args: CheckResult(False, "planted")
    )
    assert run_cli("unravel", game(fixtures_dir, "union.game")) == (
        2,
        "",
        "internal invariant violated: pulled-back union not decided at the stage depth: planted\n",
    )


# ----------------------------------------------------------------- verify


def test_verify_ex1_all_checks_pass(fixtures_dir):
    code, out, _ = run_cli(
        "verify", game(fixtures_dir, "ex1.game"), "--k", "0", "--samples", "8", "--seed", "3"
    )
    assert code == 0
    for check in (
        "position-map",
        "strategy-locality",
        "certificate",
        "pullback-is-accept-set",
        "complement-certificate",
        "lift",
        "winning-transfer",
    ):
        assert f"check {check}: ok" in out
    assert out.rstrip().endswith("result: verified")


def test_verify_deterministic_given_seed(fixtures_dir):
    args = ("verify", game(fixtures_dir, "ex2.game"), "--k", "0", "--samples", "6", "--seed", "11")
    assert run_cli(*args)[1] == run_cli(*args)[1]


def test_verify_open_payoff_checks_closed_orientation(fixtures_dir):
    # ex2.game carries an open payoff; the accept branch still realizes the
    # closed orientation, so every check must come out clean
    code, out, _ = run_cli(
        "verify", game(fixtures_dir, "ex2.game"), "--k", "0", "--samples", "4", "--seed", "1"
    )
    assert code == 0
    assert "check pullback-is-accept-set: ok" in out
    assert out.rstrip().endswith("result: verified")


# ------------------------------------------------------------------- fuzz


def test_fuzz_small_run_passes():
    code, out, _ = run_cli("fuzz", "--samples", "25", "--seed", "7")
    assert code == 0
    assert "check all-samples: ok (25/25)" in out


def test_fuzz_deterministic():
    args = ("fuzz", "--samples", "10", "--seed", "3", "--depth", "4")
    assert run_cli(*args)[1] == run_cli(*args)[1]


def test_fuzz_two_hundred_samples_seed_seven():
    code, out, _ = run_cli("fuzz", "--samples", "200", "--seed", "7")
    assert code == 0
    assert "check all-samples: ok (200/200)" in out


def test_fuzz_depth_two_draws_only_admissible_generators():
    # a depth-2 game admits no generator at the level-0 covering's floor
    code, out, _ = run_cli("fuzz", "--depth", "2", "--samples", "20")
    assert code == 0
    assert "check all-samples: ok (20/20)" in out
    assert out.rstrip().endswith("result: verified")
    for depth in ("3", "0", "-2"):
        assert run_cli("fuzz", "--depth", depth)[0] == 1


def test_fuzz_zmax_below_zero_is_usage_error():
    code, out, err = run_cli("fuzz", "--zmax", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: --zmax must be at least 0")
    assert run_cli("fuzz", "--zmax", "0", "--samples", "3")[0] == 0


def test_fuzz_draws_arenas_within_the_node_cap(monkeypatch):
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "50")
    code, out, err = run_cli("fuzz", "--depth", "14", "--branch", "3", "--samples", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: random arena exceeds 50 nodes")
    # a depth at or over the cap fails before growing its first path
    code, out, err = run_cli("fuzz", "--depth", "1000000", "--samples", "1")
    assert (code, out, err) == (1, "", "error: random arena exceeds 50 nodes\n")


def test_a_depth_bound_over_the_node_cap_is_rejected_on_its_line(tmp_path):
    """A root-only game: at the cap it solves, one past it (the next even
    bound) is a parse error on the DEPTH line."""
    text = "GAME v1\nALPHABET 1\nDEPTH {}\nNODES\nTABOOS\n- I\nPAYOFF closed\n"
    deep = tmp_path / "deep.game"
    deep.write_text(text.format(DEFAULT_NODE_MAX + 2))
    code, out, err = run_cli("solve", str(deep))
    assert (code, out) == (1, "")
    assert err == f"error: line 3: depth bound must be at most {DEFAULT_NODE_MAX}\n"
    deep.write_text(text.format(DEFAULT_NODE_MAX))
    code, out, _ = run_cli("solve", str(deep))
    assert code == 0 and "winner: II" in out


def test_verify_union_payoff(fixtures_dir):
    code, out, _ = run_cli(
        "verify", game(fixtures_dir, "union.game"), "--k", "0", "--samples", "4", "--seed", "2"
    )
    assert code == 0
    assert "check position-map: ok" in out
    assert "check winning-transfer: ok" in out


# ------------------------------------------------------------- export-dot


def test_export_dot_ex3_golden(fixtures_dir):
    code, out, _ = run_cli("export-dot", game(fixtures_dir, "ex3.game"))
    assert code == 0
    assert out == (fixtures_dir / "ex3.dot").read_text()


def test_export_dot_marks_taboo(fixtures_dir):
    code, out, _ = run_cli("export-dot", game(fixtures_dir, "ex2.game"))
    assert code == 0
    assert '"0/0" [label="0/0", shape=box, xlabel="taboo:II"];' in out


def test_export_dot_covering_cross_links(fixtures_dir):
    code, out, _ = run_cli("export-dot", game(fixtures_dir, "ex1.game"), "--covering")
    assert code == 0
    assert '"s:1[1/0]" -> "t:1" [style=dashed, constraint=false];' in out
    assert "cluster_source" in out and "cluster_target" in out


def test_export_dot_covering_of_union_payoff(fixtures_dir):
    code, out, _ = run_cli("export-dot", game(fixtures_dir, "union.game"), "--covering")
    assert code == 0
    assert out.startswith("digraph covering {")


def test_export_dot_to_file(fixtures_dir, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run_cli("export-dot", game(fixtures_dir, "ex3.game"), "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (fixtures_dir / "ex3.dot").read_text()


def test_verify_lift_failure_names_first_play(fixtures_dir, monkeypatch):
    build = cli._covering_for
    first = []

    def with_broken_lift(*args, **kwargs):
        covering, decided_depth = build(*args, **kwargs)

        def lift(strategy, play):
            if not first:
                first.append((strategy.owner, play))
                return play  # a target play: no source play has only base labels
            return covering.lift(strategy, play)

        return dataclasses.replace(covering, lift=lift), decided_depth

    monkeypatch.setattr(cli, "_covering_for", with_broken_lift)
    code, out, _ = run_cli("verify", game(fixtures_dir, "ex1.game"))
    assert code == 2
    owner, play = first[0]
    assert "check lift: FAIL (1 of " in out
    play = format_position(play)
    assert (
        f"plays fail; first: a strategy of player {owner}, play {play}:"
        f" lift {play} is not a source play)"
    ) in out


@pytest.mark.parametrize(
    "name, k",
    [("ex1.game", 0), ("ex2.game", 0), ("ex3.game", 0), ("depth6.game", 0), ("rootdet.game", 0),
     ("union.game", 0), ("depth6.game", 2)],
)
def test_verify_maps_the_strategies_its_checks_drew_with_rng_choice(
    fixtures_dir, monkeypatch, name, k
):
    """The source strategies ``verify --samples 20`` passes to the
    covering's strategy map, in order, are the ones its checks' sampling
    loops draw with ``rng.choice`` and ``rng.random``
    (``oracles.sampled_strategies``), read by position: each choice in
    canonical order, held by id, with the check's ``rng`` in the same
    state when it is mapped, after locality's redraw too, and the winning
    transfer candidates are the position-keyed loop's, in its order.
    ``verify_lift`` maps the strategy of each play again, so a run of calls
    with one strategy counts once."""
    build = cli._covering_for
    built, seen, states, rngs = [], [], [], []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            rngs.append(self)

    def recording(*args, **kwargs):
        covering, decided_depth = build(*args, **kwargs)
        transform = covering.strategy_transform

        def record(strategy):
            if not seen or seen[-1] is not strategy:
                seen.append(strategy)
                states.append(rngs[-1].getstate())
            return transform(strategy)

        built.append(covering)
        return dataclasses.replace(covering, strategy_transform=record), decided_depth

    monkeypatch.setattr(cli, "_covering_for", recording)
    monkeypatch.setattr(covering_module.random, "Random", Recorded)
    tree, payoff, leaves = cli._load(game(fixtures_dir, name))
    report = cli.verify_report(name, tree, payoff, leaves, k, 20, 0)
    assert report.ok
    monkeypatch.undo()
    expected_states = []
    expected = oracles.sampled_strategies(built[0], leaves, 20, 0, expected_states)
    assert [(s.owner, list(s.choices.items())) for s in seen] == [
        (s.owner, list(s.choices.items())) for s in expected
    ]
    source = built[0].source
    assert all(s.choices.__class__ is Choices and s.choices.tree is source for s in seen)
    assert states == expected_states


def move_one_accept_play(monkeypatch):
    """Make the CLI's coverings map one accept-branch play of ``ex1`` out
    of the closed set."""
    build = cli._covering_for

    def with_moved_play(*args, **kwargs):
        covering, decided_depth = build(*args, **kwargs)
        target, images = covering.target, array("i", covering.images)
        kept = target._id((0, 0, 0, 1))
        (moved,) = [i for i, image in enumerate(images) if image == kept]
        images[moved] = target._id((1, 0, 0, 1))
        return dataclasses.replace(covering, images=images), decided_depth

    monkeypatch.setattr(cli, "_covering_for", with_moved_play)


def test_verify_failing_certificates_name_their_plays(fixtures_dir, monkeypatch):
    """A position map that moves one accept-branch play of ``ex1`` out of
    the closed set breaks both certificates and the accept-set identity;
    each failure names the plays behind it."""
    move_one_accept_play(monkeypatch)
    code, out, _ = run_cli("verify", game(fixtures_dir, "ex1.game"))
    assert code == 2
    kept, moved = "0[]/acc(0)/0/0", "0[]/acc(0)/0/1"
    assert (
        f"check certificate: FAIL (plays {kept} (in) and {moved} (out)"
        " share the length-2 prefix)\n"
    ) in out
    assert (
        f"check pullback-is-accept-set: FAIL (play {moved} is in the accept set,"
        " not the pullback)\n"
    ) in out
    assert (
        f"check complement-certificate: FAIL (plays {moved} (in) and {kept} (out)"
        " share the length-2 prefix)\n"
    ) in out


def test_unravel_failing_certificate_prints_no_report(fixtures_dir, monkeypatch):
    move_one_accept_play(monkeypatch)
    code, out, err = run_cli("unravel", game(fixtures_dir, "ex1.game"))
    assert code == 2
    assert out == ""
    assert "does not unravel" in err


# --------------------------------------------------------- pinned reports

# The stdout of each command on each fixture, as sha256 digest and length,
# with its exit code, kept in fixtures/reports.json; `export-dot` takes
# `--covering`.


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "rootdet", "union"])
@pytest.mark.parametrize("command", ["solve", "prune", "unravel", "verify", "export-dot"])
def test_fixture_reports_are_byte_identical(fixtures_dir, monkeypatch, command, name):
    monkeypatch.chdir(fixtures_dir)  # the report names the file as given
    argv = [command, f"{name}.game"]
    if command == "export-dot":
        argv.append("--covering")
    code, out, _ = run_cli(*argv)
    data = out.encode()
    pinned = json.loads((fixtures_dir / "reports.json").read_text())[f"{name}.game {command}"]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        pinned["exit"],
        pinned["bytes"],
        pinned["sha256"],
    )


# depth6.game is `random_game("k2:28", depth=6)` with its closed set, written
# by `format_game`: the one fixture deep enough for a level-2 covering.
# Its DOT export prints every node, label and tag of the level-2 source.
@pytest.mark.parametrize("command", ["unravel", "verify", "export-dot --covering"])
def test_level_two_reports_are_byte_identical(fixtures_dir, monkeypatch, command):
    monkeypatch.chdir(fixtures_dir)
    name, *flags = command.split()
    code, out, _ = run_cli(name, "depth6.game", *flags, "--k", "2")
    data = out.encode()
    key = f"depth6.game {command} --k 2"
    pinned = json.loads((fixtures_dir / "reports.json").read_text())[key]
    if name != "export-dot":  # the DOT shows the level only through its nodes
        assert "k: 2\n" in out
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        pinned["exit"],
        pinned["bytes"],
        pinned["sha256"],
    )


# --------------------------------------------------------- strategy order

# A report prints a strategy's choices as they iterate, so every strategy
# the CLI prints must list them in the tree's canonical order: by length,
# then lexicographically.


def assert_choices_in_canonical_order(strategy):
    positions = list(strategy.choices)
    assert positions == sorted(positions, key=lambda p: (len(p), p))


def assert_solutions_in_canonical_order(tree, payoff):
    """The ``solve`` strategy, and the mapped strategy of each covering the
    payoff unravels to at levels 0 and 2 (where the caps and generators
    allow one); returns how many coverings were checked."""
    leaves = realize(tree, payoff)
    assert_choices_in_canonical_order(solve(tree, leaves).strategy)
    built = 0
    for k in (0, 2):
        try:
            covering, decided = unravel_payoff(tree, payoff, k, frontier_max=4)
        except (ResourceLimitError, ValueError):  # over a cap, or generators too shallow
            continue
        assert_choices_in_canonical_order(solve_via_covering(covering, leaves, decided).strategy)
        built += 1
    return built


def test_printed_strategies_come_in_canonical_order(fixtures_dir):
    built = 0
    for path in sorted(fixtures_dir.glob("*.game")):
        document = parse_game_bytes(path.read_bytes())
        built += assert_solutions_in_canonical_order(document.tree, document.payoff)
    for seed in range(20):
        tree, spec = random_game(f"order:{seed}", depth=6, branching=3, taboos=3)
        payoff = Closed(spec) if seed % 2 == 0 else Open(spec)
        built += assert_solutions_in_canonical_order(tree, payoff)
    for seed in range(8):  # generators deep enough for the stages of level 2
        tree, specs = random_union_instance(f"order-union:{seed}", depth=8, parts=3, level=2)
        built += assert_solutions_in_canonical_order(tree, ClosedUnion(specs))
    assert built >= 60


def test_root_taboo_game_through_every_command(tmp_path):
    """A depth-2 game whose root is a taboo: every command runs, and an
    empty strategy prints as its header alone."""
    path = tmp_path / "root-taboo.game"
    path.write_text("GAME v1\nALPHABET 2\nDEPTH 2\nNODES\nTABOOS\n- I\nPAYOFF closed\n")
    for command, *options in (
        ["solve"],
        ["prune"],
        ["unravel", "--k", "0"],
        ["verify", "--samples", "3"],
        ["export-dot"],
        ["export-dot", "--covering"],
    ):
        code, out, _ = run_cli(command, str(path), *options)
        assert code == 0, (command, options)
        if command in ("solve", "unravel"):
            assert out.endswith("result: verified\nstrategy:\n")


# ------------------------------------------------------------- exit codes


def test_exit_code_contract(fixtures_dir, tmp_path):
    assert run_cli("nonsense")[0] == 1
    assert run_cli("solve", str(tmp_path / "missing.game"))[0] == 1
    bad = tmp_path / "bad.game"
    bad.write_text("GAME v1\nALPHABET x\n")
    code, _, err = run_cli("solve", str(bad))
    assert code == 1
    assert "line 2" in err
    bad.write_bytes("GAME v1\nALPHABET 2\nDEPTH 2\nNODES\n\u00b3\n".encode())
    assert run_cli("solve", str(bad)) == (
        1, "", "error: line 5, col 1: bad path component '\u00b3'\n"
    )
    assert run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "6")[0] == 1


def test_usage_error_after_a_run_keeps_its_message(fixtures_dir):
    """One parser serves every call in a process; a run leaves nothing in it."""
    ex1 = game(fixtures_dir, "ex1.game")
    before = run_cli("verify", ex1, "--samples", "many")
    assert run_cli("verify", ex1, "--samples", "2", "--seed", "5")[0] == 0
    assert run_cli("verify", ex1, "--samples", "many") == before
    assert before[:2] == (1, "")
    assert before[2] == "error: argument --samples: invalid int value: 'many'\n"


def test_argument_and_environment_errors_exit_one(fixtures_dir, monkeypatch):
    assert run_cli("fuzz", "--depth", "3")[0] == 1
    for branch in ("0", "-1"):
        assert run_cli("fuzz", "--branch", branch) == (
            1, "", f"error: --branch must be at least 1, got {branch}\n"
        )
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "many")
    code, _, err = run_cli("unravel", game(fixtures_dir, "ex1.game"))
    assert code == 1
    assert "UNRAVEL_NODE_MAX" in err


def test_negative_level_is_usage_error_naming_it(fixtures_dir):
    """A union's first stage gets the level as given, so an odd negative
    level is named, not rounded up to a legal one."""
    ex1, union = game(fixtures_dir, "ex1.game"), game(fixtures_dir, "union.game")
    for argv in (
        ("unravel", ex1, "--k", "-2"),
        ("verify", ex1, "--k", "-2"),
        ("export-dot", ex1, "--covering", "--k", "-2"),
        ("unravel", union, "--k", "-2"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert "level -2 is negative" in err, argv
    for argv in (("unravel", union), ("verify", union), ("export-dot", union, "--covering")):
        argv += ("--k", "-1")
        assert run_cli(*argv) == (1, "", "error: stage 0: level -1 is negative\n"), argv


@pytest.mark.parametrize("command", [("unravel",), ("verify",), ("export-dot", "--covering")])
def test_a_level_too_deep_names_the_level_given(fixtures_dir, command):
    """An odd level is rounded up, and the message says so; an even
    level's message names it alone.  A union's first stage names the
    level given too."""
    ex1 = game(fixtures_dir, "ex1.game")
    for level, named in (("3", "level 3 (rounded up to 4)"), ("4", "level 4")):
        argv = (command[0], ex1, *command[1:], "--k", level)
        assert run_cli(*argv) == (1, "", f"error: {named} needs depth 6, bound is 4\n"), argv
    argv = (command[0], game(fixtures_dir, "union.game"), *command[1:], "--k", "5")
    message = "error: stage 0: level 5 (rounded up to 6) needs depth 8, bound is 6\n"
    assert run_cli(*argv) == (1, "", message), argv


def test_sample_count_below_one_is_usage_error(fixtures_dir):
    ex1 = game(fixtures_dir, "ex1.game")
    for argv in (
        ("verify", ex1, "--samples", "-3"),
        ("verify", ex1, "--samples", "0"),
        ("fuzz", "--samples", "-3"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: --samples must be at least 1"), argv


def test_too_shallow_generator_of_a_later_stage_is_named_as_the_file_writes_it(fixtures_dir):
    """Stage 1 unravels a generator pulled back through stage 0's covering;
    the error names its image, the generator of the file."""
    union = game(fixtures_dir, "union.game")
    code, out, err = run_cli("verify", union, "--k", "2", "--samples", "3")
    assert (code, out) == (1, "")
    assert err == "error: stage 1: generator 0/1/0/1 too shallow for level 4 (need depth >= 6)\n"


def test_a_cap_met_in_a_union_stage_names_the_stage(fixtures_dir, monkeypatch):
    """Exit 1, as for every cap; the finishing covering is not a stage."""
    union = game(fixtures_dir, "union.game")
    for node_max, stage in (("50", "stage 0: "), ("180", "stage 1: "), ("190", "")):
        monkeypatch.setenv("UNRAVEL_NODE_MAX", node_max)
        for command in ("unravel", "verify"):
            assert run_cli(command, union) == (
                1, "", f"error: {stage}covering source exceeds {node_max} nodes\n"
            )


ARGV_POOL = [
    "solve", "prune", "unravel", "verify", "fuzz", "export-dot", "bogus",
    "--k", "--samples", "--seed", "--depth", "--branch", "--zmax", "--covering",
    "--output", "-3", "-1", "0", "1", "2", "3", "x", "",
]
NODE_MAX_VALUES = ["", "0", "-5", "1", "3", "many", "1e3", " 7 ", "99999999999999999999"]
COMMANDS = [
    ("solve",), ("prune",), ("unravel",),
    ("verify", "--samples", "2"), ("export-dot",), ("export-dot", "--covering"),
]


def _mutate(rng, lines):
    """Drop, duplicate, swap or move one line, or change one label or player."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(["drop", "duplicate", "swap", "move", "label", "player"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "move":  # often into another section
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif kind == "label":
        digits = [k for k, char in enumerate(lines[i]) if char.isdigit()]
        if digits:
            k = rng.choice(digits)
            lines[i] = lines[i][:k] + rng.choice("01239") + lines[i][k + 1:]
    else:
        tagged = [k for k, line in enumerate(lines) if line.endswith((" I", " II"))]
        if tagged:
            k = rng.choice(tagged)
            lines[k] = lines[k].rsplit(" ", 1)[0] + " " + rng.choice(["I", "II", "III"])
    return lines


def test_main_fuzz_keeps_exit_code_contract(fixtures_dir, tmp_path, monkeypatch):
    """Seeded fuzz of ``main`` over mutated fixture files, malformed argv and
    bad ``UNRAVEL_NODE_MAX`` values: every run exits 0, 1 or 2 and none
    raises; every file the parser rejects names its line, on stderr too."""
    monkeypatch.chdir(tmp_path)  # where drawn --output arguments write
    rng = random.Random("cli-main-fuzz")
    sources = [path.read_text().splitlines() for path in sorted(fixtures_dir.glob("*.game"))]
    mutant = tmp_path / "mutant.game"
    outcomes = {"rejected": 0, "parsed": 0}
    for _ in range(300):
        lines = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(rng, lines)
        data = ("\n".join(lines) + "\n").encode()
        mutant.write_bytes(data)
        command, *options = rng.choice(COMMANDS)
        code, _, err = run_cli(command, str(mutant), *options)
        try:
            parse_game_bytes(data)
        except GameDocError as error:
            assert error.line is not None, error
            assert code == 1 and err.startswith("error: line "), err
            outcomes["rejected"] += 1
        else:
            assert code in (0, 1, 2), (command, err)
            outcomes["parsed"] += 1
    assert min(outcomes.values()) >= 30, outcomes

    files = [game(fixtures_dir, "ex1.game"), game(fixtures_dir, "ex3.game"), "missing.game"]
    for _ in range(150):
        argv = [rng.choice(ARGV_POOL + files) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.7:  # mostly a command and a file, then the drawn tokens
            argv[:0] = [rng.choice(ARGV_POOL[:6]), rng.choice(files)]
        assert run_cli(*argv)[0] in (0, 1, 2), argv

    for value in NODE_MAX_VALUES:
        monkeypatch.setenv("UNRAVEL_NODE_MAX", value)
        for argv in (
            ("unravel", game(fixtures_dir, "ex1.game")),
            ("export-dot", game(fixtures_dir, "ex3.game")),
            ("fuzz", "--samples", "2"),
        ):
            assert run_cli(*argv)[0] in (0, 1, 2), (value, argv)


def test_internal_value_error_exits_two_in_one_line(fixtures_dir, monkeypatch):
    def broken_solve(tree, payoff):
        raise ValueError("strategy has no choice at 0/1 (not total)")

    monkeypatch.setattr(cli, "solve", broken_solve)
    code, _, err = run_cli("solve", game(fixtures_dir, "ex1.game"))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "not total" in err
    assert "Traceback" not in err


def test_internal_invariant_error_exits_two_in_one_line(fixtures_dir, monkeypatch):
    def broken_prune(tree):
        raise cli.InternalInvariantError("taboo tag at 0/0 does not match an early terminal")

    monkeypatch.setattr(cli, "prune", broken_prune)
    assert run_cli("prune", game(fixtures_dir, "ex2.game")) == (
        2, "", "internal invariant violated: taboo tag at 0/0 does not match an early terminal\n"
    )


def test_fuzz_deep_chain_within_default_recursion_limit():
    code, out, err = run_cli("fuzz", "--depth", "2000", "--branch", "1", "--samples", "1")
    assert code == 0
    assert "result: verified" in out
    assert "Traceback" not in err


def test_fuzz_over_the_label_budget_exits_one_before_it_allocates(monkeypatch):
    """At a cap of 2000 nodes the label budget is 50 000: depth 316 is the
    first even depth whose first path holds more, and depth 314 still runs."""
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "2000")
    tracemalloc.start()
    try:
        code, out, err = run_cli("fuzz", "--depth", "316", "--samples", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: random arena exceeds 50000 position labels (25 per node of the cap)\n"
    assert peak < 100_000  # bytes; the first path alone would hold 50 086 labels
    code, out, _ = run_cli("fuzz", "--depth", "314", "--branch", "1", "--samples", "1")
    assert code == 0
    assert "result: verified" in out


def test_unravel_deep_chain_within_default_recursion_limit(tmp_path):
    depth = 3000
    nodes = "\n".join("/".join(["0"] * n) for n in range(1, depth + 1))
    chain = tmp_path / "chain.game"
    chain.write_text(
        f"GAME v1\nALPHABET 1\nDEPTH {depth}\nNODES\n{nodes}\nTABOOS\nPAYOFF closed\n0/0/0\n"
    )
    code, out, _ = run_cli("unravel", str(chain))
    assert code == 0
    assert "result: verified" in out


def test_unravel_deep_chain_over_the_label_budget_exits_1(tmp_path, monkeypatch):
    """A chain of depth 300 has 301 nodes but 45 150 position labels, and
    its covering source more: under a cap of 1000 nodes the budget is
    25 000 labels, so the build stops before it writes the source."""
    depth = 300
    nodes = "\n".join("/".join(["0"] * n) for n in range(1, depth + 1))
    chain = tmp_path / "chain.game"
    chain.write_text(
        f"GAME v1\nALPHABET 1\nDEPTH {depth}\nNODES\n{nodes}\nTABOOS\nPAYOFF closed\n0/0/0\n"
    )
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "1000")
    code, out, err = run_cli("unravel", str(chain))
    assert (code, out) == (1, "")
    assert err == "error: covering source exceeds 25000 position labels (25 per node of the cap)\n"


def test_node_cap_environment_override(fixtures_dir, monkeypatch):
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "10")
    code, _, err = run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "0")
    assert code == 1
    assert "exceeds" in err


def test_prune_root_determined_game(fixtures_dir):
    code, out, _ = run_cli("prune", game(fixtures_dir, "rootdet.game"))
    assert code == 0
    assert "root-determined: I" in out
    assert "check witness-wins-outright: ok" in out


def test_unravel_has_no_union_flag(fixtures_dir):
    # the payoff selects the construction, so there is no flag to choose it
    for name in ("ex1.game", "union.game"):
        code, out, err = run_cli("unravel", game(fixtures_dir, name), "--union")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --union" in err


def test_fuzz_violation_reports_counterexample(monkeypatch):
    from unraveling import cli

    monkeypatch.setattr(cli, "_fuzz_one", lambda *a, **k: "forced failure for the report")
    code, out, _ = run_cli("fuzz", "--samples", "3", "--seed", "1")
    assert code == 2
    assert "check sample-0: FAIL (forced failure for the report)" in out
    assert "counterexample:" in out
    assert "GAME v1" in out  # the offending game is serialized into the report
    assert out.rstrip().endswith("result: VIOLATION")


@pytest.mark.parametrize(
    "check, name",
    [
        ("check_strategy_locality", "strategy-locality"),
        ("check_position_map", "position-map"),
        ("check_lift", "lift"),
    ],
)
def test_fuzz_fails_on_the_verify_report_check_that_fails(monkeypatch, check, name):
    """Fuzz verdicts are the checks ``verify`` prints, named with the command."""
    monkeypatch.setattr(cli, check, lambda *a, **k: CheckResult(False, "forced"))
    code, out, _ = run_cli("fuzz", "--samples", "3", "--seed", "1")
    assert code == 2
    assert f"check sample-0: FAIL (verify {name}: forced)\n" in out
    assert "counterexample:\n  GAME v1\n" in out
    assert out.rstrip().endswith("result: VIOLATION")


def test_fuzz_counts_the_samples_over_the_caps():
    code, out, _ = run_cli("fuzz", "--zmax", "0", "--samples", "100", "--seed", "0")
    assert code == 0
    assert "check all-samples: ok (100/100; 71 over the caps, covering not checked)\n" in out


def test_fuzz_solves_each_drawn_game_once(monkeypatch):
    """The ``solve`` and ``prune`` reports of a fuzz sample share one solve
    of the drawn game; the prune report still solves its remainder."""
    drawn, solved = [], []
    fuzz_one, solve = cli._fuzz_one, cli.solve

    def recording_fuzz_one(tree, *rest):
        drawn.append(tree)
        return fuzz_one(tree, *rest)

    def recording_solve(tree, leaves):
        solved.append(tree)
        return solve(tree, leaves)

    monkeypatch.setattr(cli, "_fuzz_one", recording_fuzz_one)
    monkeypatch.setattr(cli, "solve", recording_solve)
    code, out, _ = run_cli("fuzz", "--samples", "1", "--seed", "1")
    assert code == 0, out
    [tree] = drawn
    assert sum(t is tree for t in solved) == 1
    assert len(solved) == 2  # and once the prune remainder


def test_fuzz_odd_samples_use_the_open_payoff(monkeypatch):
    """Sample 1 fuzzes the complement of its drawn closed set, and its
    counterexample is that game with ``PAYOFF open``."""
    solve_report = cli.solve_report
    payoffs = []

    def failing_second(name, tree, payoff, leaves, **known):
        payoffs.append(payoff)
        report = solve_report(name, tree, payoff, leaves, **known)
        report.check("forced", CheckResult(len(payoffs) < 2))
        return report

    monkeypatch.setattr(cli, "solve_report", failing_second)
    code, out, _ = run_cli("fuzz", "--samples", "3", "--seed", "1")
    assert code == 2
    assert [type(payoff) for payoff in payoffs] == [Closed, Not]
    assert "check sample-1: FAIL (solve forced)\n" in out
    tree, spec = random_game("1:1", depth=4, branching=2, taboos=3, generators=3)
    expected = format_game(to_document(tree, Open(spec)))
    assert "PAYOFF open" in expected
    assert out.split("counterexample:\n", 1)[1].startswith(
        "".join("  " + line + "\n" for line in expected.splitlines())
    )


@pytest.mark.parametrize("value", ["0", "-5"])
def test_node_cap_below_one_is_usage_error_naming_it(fixtures_dir, monkeypatch, value):
    monkeypatch.setenv("UNRAVEL_NODE_MAX", value)
    for argv in (("unravel", game(fixtures_dir, "ex1.game")), ("fuzz", "--samples", "2")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == f"error: UNRAVEL_NODE_MAX must be at least 1, got {value}\n"


def test_export_dot_respects_node_cap(fixtures_dir, monkeypatch):
    monkeypatch.setenv("UNRAVEL_NODE_MAX", "5")
    code, _, err = run_cli("export-dot", game(fixtures_dir, "ex3.game"))
    assert code == 1
    assert "export cap" in err


def test_readme_synopsis_matches_the_parser():
    """The CLI block of README.md lists every subcommand with exactly the
    options its parser defines."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        _, command, *words = line.split()
        listed[command] = {w.strip("[]") for w in words if w.strip("[]").startswith("--")}
    (commands,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        command: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for command, parser in commands.choices.items()
    }
    assert listed == defined
