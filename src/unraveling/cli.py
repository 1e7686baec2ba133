"""Batch command-line interface.

Commands parse a game document, run the corresponding library operation,
and print a deterministic report to standard output (timing goes to
standard error so reports compare byte for byte across runs).  ``fuzz``
runs the reports of ``solve``, ``prune`` and level-0 ``verify`` on random
games, the drawn closed set on even samples and its complement on odd
ones; a sample fails on the first check that fails, named with its
command, and a sample whose covering is over the caps only has its
``solve`` and ``prune`` checks run, and is counted.

Exit codes: 0 success or verified, 1 usage or parse errors (bad arguments,
files, environment values, caps, and covering preconditions the file or
``--k`` breaks), 2 property violation (the report then carries a
counterexample) or internal failure, reported in one line.  The environment
variable ``UNRAVEL_NODE_MAX`` (at least 1) overrides the node cap used by
tree construction and DOT export.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import compress
from operator import not_

from .core import (
    DEFAULT_NODE_MAX,
    CheckResult,
    InternalInvariantError,
    Plays,
    ResourceLimitError,
    Strategy,
    _as_plays,
    format_position,
    is_winning_strategy,
)
from .covering import (
    check_lift,
    check_position_map,
    check_strategy_locality,
    check_winning_transfer,
    pullback,
    solve_via_covering,
)
from .dot import covering_dot, tree_dot
from .gamedoc import GameDocError, format_game, parse_game_bytes, to_document
from .payoff import Closed, Open, decided_by_depth, realize
from .randgen import random_game
from .solver import prune, solve, transfer_from_pruned
from .unravel import (
    BaseCovering,
    DEFAULT_FRONTIER_MAX,
    _generator_floor,
    check_accept_set,
    unravel_payoff,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

FUZZ_VERIFY_SAMPLES = 4  # the ``verify --samples`` of each fuzzed game


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
    strategy: Strategy | None = None  # printed after the verdict, in its choices' order

    def add(self, name: str, value) -> None:
        self.fields.append((name, str(value)))

    def check(self, name: str, result: CheckResult) -> None:
        """Record a verdict; its detail is printed after it."""
        self.checks.append((name, result.ok, result.detail or ""))

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
        if self.strategy is not None:
            lines.append("strategy:")
            lines.extend(
                f"  {format_position(p)} -> {move}" for p, move in self.strategy.choices.items()
            )
        return "\n".join(lines) + "\n"


def _node_max() -> int:
    value = os.environ.get("UNRAVEL_NODE_MAX")
    if not value:
        return DEFAULT_NODE_MAX
    try:
        node_max = int(value)
    except ValueError:
        raise _UsageError(f"UNRAVEL_NODE_MAX is not an integer: {value!r}") from None
    _check_at_least("UNRAVEL_NODE_MAX", node_max, 1)
    return node_max


def _check_at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise _UsageError(f"{option} must be at least {least}, got {value}")


def _load(path: str):
    """The tree and payoff of a game file, and the set of plays it denotes."""
    with open(path, "rb") as handle:
        document = parse_game_bytes(handle.read())
    return document.tree, document.payoff, realize(document.tree, document.payoff)


def _print(report: Report) -> int:
    print(report.render(), end="")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def solve_report(name, tree, payoff, leaves, *, solution) -> Report:
    """``solution`` is ``solve(tree, leaves)``."""
    report = Report("solve", strategy=solution.strategy)
    report.add("file", name)
    report.add("winner", solution.winner)
    report.check("winning-strategy", is_winning_strategy(tree, leaves, solution.strategy))
    return report


def prune_report(name, tree, payoff, leaves, *, solution=None) -> Report:
    """``solution``, if given, is ``solve(tree, leaves)`` done already; the
    remainder's winner is compared with its winner."""
    result = prune(tree)
    report = Report("prune")
    report.add("file", name)
    report.add("taboo-determined", len(result.determined))
    report.add("removed", len(result.removed))
    if result.tree is None:
        report.add("root-determined", result.root_determined)
        witness = result.witnesses[()]
        report.check("witness-wins-outright", is_winning_strategy(tree, leaves, witness))
        return report
    report.add("remainder-nodes", result.tree.node_count)
    # The remainder's plays are the tree's, in the same order, less the removed ones.
    cut = map(result.removed.__contains__, tree.full_depth_plays())
    kept = bytes(compress(_as_plays(tree, leaves).mask, map(not_, cut)))
    remainder = solve(result.tree, Plays(result.tree, kept))
    direct = solve(tree, leaves) if solution is None else solution
    report.add("winner", remainder.winner)
    matches = remainder.winner is direct.winner
    detail = None if matches else f"the direct solve is won by {direct.winner}"
    report.check("winner-matches-direct-solve", CheckResult(matches, detail))
    transferred = transfer_from_pruned(tree, result, remainder.strategy)
    report.check("transferred-strategy-wins", is_winning_strategy(tree, leaves, transferred))
    return report


def cmd_solve(args) -> int:
    tree, payoff, leaves = _load(args.file)
    return _print(solve_report(args.file, tree, payoff, leaves, solution=solve(tree, leaves)))


def cmd_prune(args) -> int:
    return _print(prune_report(args.file, *_load(args.file)))


def _covering_for(tree, payoff, level, frontier_max=DEFAULT_FRONTIER_MAX):
    """Build the covering a document's payoff calls for.

    A precondition the construction rejects (the level ``--k`` or the
    file's generators) is a usage error.
    """
    try:
        return unravel_payoff(
            tree, payoff, level, frontier_max=frontier_max, node_max=_node_max()
        )
    except ValueError as error:
        raise _UsageError(str(error)) from None


def cmd_unravel(args) -> int:
    tree, payoff, leaves = _load(args.file)
    covering, decided_depth = _covering_for(tree, payoff, args.k)
    report = Report("unravel")
    report.add("file", args.file)
    report.add("k", covering.level)
    if isinstance(covering, BaseCovering):
        sizes = " ".join(
            f"{format_position(p + (a,))}={len(front)}"
            for (p, a), front in covering.frontiers.items()
        )
        report.add("frontier-sizes", sizes if sizes else "none")
        claim_moves = sum(1 << len(front) for front in covering.frontiers.values())
        report.add("claim-moves", claim_moves)
    report.add("source-nodes", covering.source.node_count)
    report.add("decided-at", decided_depth)
    # This checks the certificate and that the mapped strategy wins the
    # target, and raises before the report prints if either fails.
    solution = solve_via_covering(covering, leaves, decided_depth)
    report.add("winner", solution.winner)
    report.check("certificate", CheckResult(True))
    report.check("transferred-strategy-wins", CheckResult(True))
    report.strategy = solution.strategy
    return _print(report)


def verify_report(
    name, tree, payoff, leaves, k, samples, seed, frontier_max=DEFAULT_FRONTIER_MAX
) -> Report:
    covering, decided_depth = _covering_for(tree, payoff, k, frontier_max)
    report = Report("verify")
    report.add("file", name)
    report.add("k", covering.level)
    report.add("samples", samples)
    report.add("seed", seed)
    report.check("position-map", check_position_map(covering))
    report.check("strategy-locality", check_strategy_locality(covering, samples, seed))
    source = covering.source
    pulled = pullback(covering, leaves)
    report.check("certificate", decided_by_depth(source, pulled, decided_depth))
    if isinstance(covering, BaseCovering):
        report.check("pullback-is-accept-set", check_accept_set(covering))
        # The position map preserves length, so the pullback of the
        # complement is the complement of the pullback.
        report.check("complement-certificate", decided_by_depth(source, ~pulled, decided_depth))
    report.check("lift", check_lift(covering, samples, seed))
    report.check("winning-transfer", check_winning_transfer(covering, leaves, samples, seed))
    return report


def cmd_verify(args) -> int:
    _check_at_least("--samples", args.samples, 1)
    return _print(verify_report(args.file, *_load(args.file), args.k, args.samples, args.seed))


def cmd_fuzz(args) -> int:
    _check_at_least("--samples", args.samples, 1)
    _check_at_least("--zmax", args.zmax, 0)
    _check_at_least("--branch", args.branch, 1)
    report = Report("fuzz")
    report.add("samples", args.samples)
    report.add("seed", args.seed)
    report.add("depth", args.depth)
    report.add("branch", args.branch)
    over_caps = 0
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
        except ValueError as error:  # --depth out of range
            raise _UsageError(str(error)) from None
        payoff = Open(spec) if index % 2 else Closed(spec)
        leaves = realize(tree, payoff)
        try:
            failure = _fuzz_one(tree, payoff, leaves, index, args.zmax)
        except ResourceLimitError:  # the covering is over the caps: solve and prune passed
            over_caps += 1
            continue
        if failure is not None:
            report.check(f"sample-{index}", CheckResult(False, failure))
            report.counterexample = format_game(to_document(tree, payoff))
            return _print(report)
    detail = f"{args.samples}/{args.samples}"
    if over_caps:
        detail += f"; {over_caps} over the caps, covering not checked"
    report.check("all-samples", CheckResult(True, detail))
    return _print(report)


def _fuzz_one(tree, payoff, leaves, index, zmax) -> str | None:
    """The first check of the ``solve``, ``prune`` and ``verify`` reports
    on one random game that fails, named with its command, or ``None``.
    A covering over the caps raises ``ResourceLimitError``.  The game is
    solved once, for both the ``solve`` and the ``prune`` report."""
    name = f"sample-{index}"
    solution = solve(tree, leaves)
    for build in (
        functools.partial(solve_report, solution=solution),
        functools.partial(prune_report, solution=solution),
        functools.partial(
            verify_report, k=0, samples=FUZZ_VERIFY_SAMPLES, seed=index, frontier_max=zmax
        ),
    ):
        report = build(name, tree, payoff, leaves)
        for check, ok, detail in report.checks:
            if not ok:
                return f"{report.command} {check}" + (f": {detail}" if detail else "")
    return None


def cmd_export_dot(args) -> int:
    tree, payoff, leaves = _load(args.file)
    if args.covering:
        covering, _ = _covering_for(tree, payoff, args.k)
        text = covering_dot(covering, leaves, node_max=_node_max())
    else:
        text = tree_dot(tree, leaves, node_max=_node_max())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was, so in-process callers share one
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
