import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from unraveling import cli
from unraveling.cli import main
from unraveling.core import format_position
from unraveling.covering import CheckResult
from unraveling.gamedoc import GameDocError, format_game, parse_game_bytes, to_document
from unraveling.payoff import Closed, Not, Open
from unraveling.randgen import random_game


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


# ------------------------------------------------------------------ prune


def test_prune_ex2(fixtures_dir):
    code, out, _ = run_cli("prune", game(fixtures_dir, "ex2.game"))
    assert code == 0
    assert "taboo-determined: 1" in out
    assert "winner: II" in out
    assert "check transferred-strategy-wins: ok" in out


# ---------------------------------------------------------------- unravel


def test_unravel_ex1_report(fixtures_dir):
    code, out, _ = run_cli("unravel", game(fixtures_dir, "ex1.game"), "--k", "0")
    assert code == 0
    assert "frontier-sizes: 0=0 1=2" in out
    assert "claim-moves: 5" in out
    assert "decided-at: 2" in out
    assert "winner: I" in out
    assert "check transferred-strategy-wins: ok" in out


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


def move_one_accept_play(monkeypatch):
    """Make the CLI's coverings map one accept-branch play of ``ex1`` out
    of the closed set."""
    build = cli._covering_for

    def with_moved_play(*args, **kwargs):
        covering, decided_depth = build(*args, **kwargs)
        table = dict(covering.position_map)
        (moved,) = [leaf for leaf, image in table.items() if image == (0, 0, 0, 1)]
        table[moved] = (1, 0, 0, 1)
        return dataclasses.replace(covering, position_map=table), decided_depth

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
    ex1 = game(fixtures_dir, "ex1.game")
    for argv in (
        ("unravel", ex1, "--k", "-2"),
        ("verify", ex1, "--k", "-2"),
        ("export-dot", ex1, "--covering", "--k", "-2"),
        ("unravel", game(fixtures_dir, "union.game"), "--k", "-2"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert "level -2 is negative" in err, argv


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


def test_fuzz_deep_chain_within_default_recursion_limit():
    code, out, err = run_cli("fuzz", "--depth", "2000", "--branch", "1", "--samples", "1")
    assert code == 0
    assert "result: verified" in out
    assert "Traceback" not in err


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


def test_fuzz_odd_samples_use_the_open_payoff(monkeypatch):
    """Sample 1 fuzzes the complement of its drawn closed set, and its
    counterexample is that game with ``PAYOFF open``."""
    solve_report = cli.solve_report
    payoffs = []

    def failing_second(name, tree, payoff, leaves):
        payoffs.append(payoff)
        report = solve_report(name, tree, payoff, leaves)
        report.check("forced", len(payoffs) < 2)
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
