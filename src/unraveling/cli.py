"""Batch command-line interface.

Commands parse a game document, run the corresponding library operation,
and print a deterministic report to standard output (timing goes to
standard error so reports compare byte for byte across runs).

Exit codes: 0 success or verified, 1 usage or parse errors (bad arguments,
files, environment values, caps, and covering preconditions the file or
``--k`` breaks), 2 property violation (the report then carries a
counterexample) or internal failure, reported in one line.  The environment
variable ``UNRAVEL_NODE_MAX`` overrides the node cap used by tree
construction and DOT export.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from .core import (
    InternalInvariantError,
    Player,
    ResourceLimitError,
    Strategy,
    consistent_plays,
    format_label,
    format_position,
    is_winning_strategy,
    position_key,
    random_strategy,
)
from .covering import (
    check_position_map,
    check_strategy_locality,
    check_winning_transfer,
    pullback,
    solve_via_covering,
    verify_lift,
)
from .dot import covering_dot, tree_dot
from .gamedoc import GameDocError, format_game, parse_game_bytes, to_document
from .payoff import Closed, decided_by_depth, realize, undecided_pair
from .randgen import random_game, rng_for
from .solver import prune, solve, transfer_from_pruned
from .unravel import (
    BaseCovering,
    DEFAULT_FRONTIER_MAX,
    DEFAULT_NODE_MAX,
    _generator_floor,
    build_base_covering,
    check_accept_set,
    unravel_payoff,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


@dataclass
class Report:
    command: str
    fields: list[tuple[str, str]] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counterexample: str | None = None

    def add(self, name: str, value) -> None:
        self.fields.append((name, str(value)))

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        lines.extend(f"{name}: {value}" for name, value in self.fields)
        for name, ok, detail in self.checks:
            verdict = "ok" if ok else "FAIL"
            lines.append(f"check {name}: {verdict}" + (f" ({detail})" if detail else ""))
        if self.counterexample is not None:
            lines.append("counterexample:")
            lines.extend("  " + row for row in self.counterexample.splitlines())
        if self.checks:
            lines.append(f"result: {'verified' if self.ok else 'VIOLATION'}")
        return "\n".join(lines) + "\n"


def _node_max() -> int:
    value = os.environ.get("UNRAVEL_NODE_MAX")
    if not value:
        return DEFAULT_NODE_MAX
    try:
        return int(value)
    except ValueError:
        raise _UsageError(f"UNRAVEL_NODE_MAX is not an integer: {value!r}") from None


def _check_at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise _UsageError(f"{option} must be at least {least}, got {value}")


def _strategy_lines(strategy: Strategy) -> list[str]:
    rows = sorted(strategy.choices.items(), key=lambda kv: (len(kv[0]), position_key(kv[0])))
    return [f"  {format_position(p)} -> {format_label(move)}" for p, move in rows]


def _load(path: str):
    """The tree and payoff of a game file, and the set of plays it denotes."""
    with open(path, "rb") as handle:
        document = parse_game_bytes(handle.read())
    return document.tree, document.payoff, realize(document.tree, document.payoff)


def cmd_solve(args) -> int:
    tree, _, leaves = _load(args.file)
    solution = solve(tree, leaves)
    report = Report("solve")
    report.add("file", args.file)
    report.add("winner", solution.winner)
    report.check("winning-strategy", is_winning_strategy(tree, leaves, solution.strategy))
    print(report.render(), end="")
    print("strategy:")
    print("\n".join(_strategy_lines(solution.strategy)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_prune(args) -> int:
    tree, _, leaves = _load(args.file)
    result = prune(tree)
    report = Report("prune")
    report.add("file", args.file)
    report.add("taboo-determined", len(result.determined))
    report.add("removed", len(result.removed))
    if result.tree is None:
        report.add("root-determined", result.root_determined)
        witness = result.witnesses[()]
        report.check("witness-wins-outright", is_winning_strategy(tree, leaves, witness))
        print(report.render(), end="")
        return EXIT_OK if report.ok else EXIT_VIOLATION
    report.add("remainder-nodes", result.tree.node_count)
    remainder_leaves = leaves & frozenset(result.tree.full_depth_plays())
    solution = solve(result.tree, remainder_leaves)
    direct = solve(tree, leaves)
    report.add("winner", solution.winner)
    report.check("winner-matches-direct-solve", solution.winner is direct.winner)
    transferred = transfer_from_pruned(tree, result, solution.strategy)
    report.check("transferred-strategy-wins", is_winning_strategy(tree, leaves, transferred))
    print(report.render(), end="")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _covering_for(tree, payoff, level, *, node_max: int):
    """Build the covering a document's payoff calls for.

    A precondition the construction rejects (the level ``--k`` or the
    file's generators) is a usage error.
    """
    try:
        return unravel_payoff(tree, payoff, level, node_max=node_max)
    except ValueError as error:
        raise _UsageError(str(error)) from None


def cmd_unravel(args) -> int:
    tree, payoff, leaves = _load(args.file)
    covering, decided_depth = _covering_for(tree, payoff, args.k, node_max=_node_max())
    report = Report("unravel")
    report.add("file", args.file)
    report.add("k", covering.level)
    if isinstance(covering, BaseCovering):
        sizes = " ".join(
            f"{format_position(p + (a,))}={len(front)}"
            for (p, a), front in sorted(
                covering.frontiers.items(),
                key=lambda kv: (len(kv[0][0]), format_position(kv[0][0] + (kv[0][1],))),
            )
        )
        report.add("frontier-sizes", sizes if sizes else "none")
        claim_moves = sum(1 << len(front) for front in covering.frontiers.values())
        report.add("claim-moves", claim_moves)
    report.add("source-nodes", covering.source.node_count)
    report.add("decided-at", decided_depth)
    # This checks the certificate, and raises before the report prints if it fails.
    solution = solve_via_covering(covering, leaves, decided_depth)
    report.add("winner", solution.winner)
    report.check("certificate", True)
    report.check(
        "transferred-strategy-wins", is_winning_strategy(tree, leaves, solution.strategy)
    )
    print(report.render(), end="")
    print("strategy:")
    print("\n".join(_strategy_lines(solution.strategy)))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _run_covering_checks(report, tree, leaves, covering, decided_depth, samples, seed) -> None:
    report.check("position-map", *_split(check_position_map(covering)))
    report.check("strategy-locality", *_split(check_strategy_locality(covering, samples, seed)))
    source = covering.source
    report.check("certificate", *_certificate(source, pullback(covering, leaves), decided_depth))
    if isinstance(covering, BaseCovering):
        report.check("pullback-is-accept-set", *_split(check_accept_set(covering)))
        complement = pullback(covering, frozenset(tree.full_depth_plays()) - leaves)
        report.check("complement-certificate", *_certificate(source, complement, decided_depth))
    rng = rng_for(f"verify:{seed}")
    lift_failures = 0
    plays_checked = 0
    first_failure = None
    for owner in (Player.I, Player.II):
        for _ in range(max(1, samples // 2)):
            candidate = random_strategy(rng, covering.source, owner)
            mapped = covering.strategy_transform(candidate)
            for play in consistent_plays(covering.target, mapped):
                plays_checked += 1
                if not verify_lift(covering, candidate, play).ok:
                    lift_failures += 1
                    first_failure = first_failure or (owner, play)
    detail = f"{plays_checked} plays"
    if first_failure is not None:
        owner, play = first_failure
        detail = (
            f"{lift_failures} of {detail} fail; first: a strategy of player {owner},"
            f" play {format_position(play)}"
        )
    report.check("lift", lift_failures == 0, detail)
    transfer = check_winning_transfer(covering, leaves, samples, seed)
    report.check("winning-transfer", *_split(transfer))


def _split(result) -> tuple[bool, str]:
    return bool(result), result.detail or ""


def _certificate(source, pulled, depth: int) -> tuple[bool, str]:
    """The check that ``pulled`` is decided by ``depth``; when it is not,
    two plays that share their length-``depth`` prefix name the failure."""
    if decided_by_depth(source, pulled, depth):
        return True, ""
    inside, outside = undecided_pair(source, pulled, depth)
    return False, (
        f"plays {format_position(inside)} (in) and {format_position(outside)} (out)"
        f" share the length-{depth} prefix"
    )


def cmd_verify(args) -> int:
    _check_at_least("--samples", args.samples, 1)
    tree, payoff, leaves = _load(args.file)
    covering, decided_depth = _covering_for(tree, payoff, args.k, node_max=_node_max())
    report = Report("verify")
    report.add("file", args.file)
    report.add("k", covering.level)
    report.add("samples", args.samples)
    report.add("seed", args.seed)
    _run_covering_checks(report, tree, leaves, covering, decided_depth, args.samples, args.seed)
    print(report.render(), end="")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    _check_at_least("--samples", args.samples, 1)
    _check_at_least("--zmax", args.zmax, 0)
    report = Report("fuzz")
    report.add("samples", args.samples)
    report.add("seed", args.seed)
    report.add("depth", args.depth)
    report.add("branch", args.branch)
    passed = 0
    for index in range(args.samples):
        try:
            tree, spec = random_game(
                f"{args.seed}:{index}",
                depth=args.depth,
                branching=args.branch,
                taboos=3,
                generators=3,
                min_generator_depth=_generator_floor(0, args.depth),
                node_max=_node_max(),
            )
        except ValueError as error:  # --depth or --branch out of range
            raise _UsageError(str(error)) from None
        leaves = realize(tree, Closed(spec))
        failure = _fuzz_one(tree, spec, leaves, args)
        if failure is not None:
            report.check(f"sample-{index}", False, failure)
            document = to_document(tree, Closed(spec))
            report.counterexample = format_game(document)
            print(report.render(), end="")
            return EXIT_VIOLATION
        passed += 1
    report.check("all-samples", True, f"{passed}/{args.samples}")
    print(report.render(), end="")
    return EXIT_OK


def _fuzz_one(tree, spec, leaves, args) -> str | None:
    solution = solve(tree, leaves)
    if not is_winning_strategy(tree, leaves, solution.strategy):
        return "solver strategy does not win"
    result = prune(tree)
    if result.tree is None:
        if result.root_determined is not solution.winner:
            return "root determination disagrees with solve"
        if not is_winning_strategy(tree, leaves, result.witnesses[()]):
            return "root witness does not win"
    else:
        remainder = leaves & frozenset(result.tree.full_depth_plays())
        pruned_solution = solve(result.tree, remainder)
        if pruned_solution.winner is not solution.winner:
            return "pruned winner differs"
        transferred = transfer_from_pruned(tree, result, pruned_solution.strategy)
        if not is_winning_strategy(tree, leaves, transferred):
            return "transferred strategy does not win"
    try:
        covering = build_base_covering(
            tree, spec, 0, frontier_max=args.zmax, node_max=_node_max()
        )
    except ResourceLimitError:
        return None  # over the caps: nothing to check
    if not check_position_map(covering):
        return "position map axioms fail"
    pulled = pullback(covering, leaves)
    if not decided_by_depth(covering.source, pulled, 2):
        return "pullback not decided at level 2"
    via = solve_via_covering(covering, leaves, 2)
    if via.winner is not solution.winner:
        return "covering winner differs"
    return None


def cmd_export_dot(args) -> int:
    tree, payoff, leaves = _load(args.file)
    if args.covering:
        covering, _ = _covering_for(tree, payoff, args.k, node_max=_node_max())
        text = covering_dot(covering, leaves, node_max=_node_max())
    else:
        text = tree_dot(tree, leaves, node_max=_node_max())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="unraveling", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="backward-induction solve a game file")
    p.add_argument("file")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("prune", help="taboo-prune, solve the remainder, transfer back")
    p.add_argument("file")
    p.set_defaults(run=cmd_prune)

    p = sub.add_parser("unravel", help="build the covering and solve through it")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(run=cmd_unravel)

    p = sub.add_parser("verify", help="run every covering check on a game file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("fuzz", help="random games through the whole pipeline")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--branch", type=int, default=2)
    p.add_argument("--zmax", type=int, default=DEFAULT_FRONTIER_MAX)
    p.set_defaults(run=cmd_fuzz)

    p = sub.add_parser("export-dot", help="graphviz export of a game or covering")
    p.add_argument("file")
    p.add_argument("--covering", action="store_true")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(run=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
    except (_UsageError, GameDocError, OSError, ResourceLimitError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as error:
        print(f"internal invariant violated: {error}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as error:  # any other is a failed internal check, not bad input
        print(f"internal error: {error}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
