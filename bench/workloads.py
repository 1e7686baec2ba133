"""The benchmark workloads: seeded inputs and one checked job per input.

Every job calls the package through ``unraveling.<name>`` or
``unraveling.cli.main`` so that the tracer's wrappers see it, checks every
verdict it gets back, and returns ``(ok, fingerprint)``.  The fingerprint
holds only deterministic values (winners, node counts, report digests), so
the same seed gives the same fingerprints on every run.

Inputs are drawn with ``unraveling.randgen`` and kept only if
``covering_estimate`` puts them in a fixed band: job cost grows with the
covering's size, so the band gives every seed medium-sized jobs of
similar cost, and the figures of different seeds agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import unraveling as U
import unraveling.cli
from unraveling.gamedoc import format_game, to_document
from unraveling.randgen import random_game, random_union_instance, rng_for

ARENA = dict(depth=8, branching=3, taboos=6, generators=3, min_generator_depth=3)
ARENA_BAND = (450, 1200)
UNION = dict(depth=6, branching=2, taboos=3, parts=3)  # criterion-6 style, deepest nesting
UNION_BAND = (24, 80)  # estimate of the first stage
# A larger frontier is a cap rejection, so the rare giant union (seconds
# where the rest take milliseconds) cannot dominate a run.
UNION_FRONTIER_MAX = 3
CLI_DEPTH = 6
CLI_BAND = (90, 220)
CLI_SAMPLES = "20"


def covering_estimate(tree, generators, k: int) -> int:
    """Rough source-node count of a level-``k`` base covering.

    Each level-``k`` move is copied once per subset of its frontier, the
    minimal non-terminal positions below it whose subtrees avoid the
    closed set.  Only the benchmark uses this, to keep job sizes even.
    """
    banned = set(generators)
    size: dict = {}
    meets: dict = {}
    for p in reversed(list(tree.positions())):
        labels = tree.children_of(p)
        size[p] = 1 + sum(size[p + (a,)] for a in labels)
        if p in banned:
            meets[p] = False
        else:
            meets[p] = len(p) == tree.depth or any(meets[p + (a,)] for a in labels)
    total = 0
    for p in tree.positions():
        if len(p) > k:
            break
        if len(p) < k:
            total += 1
            continue
        for a in tree.children_of(p):
            start = p + (a,)
            front = 0
            stack = [start + (b,) for b in tree.children_of(start)]
            while stack:
                q = stack.pop()
                if meets[q]:
                    stack.extend(q + (b,) for b in tree.children_of(q))
                elif tree.children_of(q):
                    front += 1
            total += size[start] << front
    return total


# ------------------------------------------------------------------ arena


def arena_inputs(seed: int, count: int, workdir: Path) -> list:
    cases = []
    draw = 0
    while len(cases) < count:
        k = 2 * (len(cases) % 2)
        tree, spec = random_game(f"bench:arena:{seed}:{draw}", **ARENA)
        draw += 1
        if ARENA_BAND[0] <= covering_estimate(tree, spec.generators, k) <= ARENA_BAND[1]:
            cases.append((tree, spec, k))
    return cases


def arena_job(case, tracer):
    tree, spec, k = case
    leaves = U.realize(tree, U.Closed(spec))
    direct = U.solve(tree, leaves)
    checks = [U.is_winning_strategy(tree, leaves, direct.strategy)]
    pruned = U.prune(tree)
    if pruned.tree is None:
        checks.append(pruned.root_determined is direct.winner)
        checks.append(U.is_winning_strategy(tree, leaves, pruned.witnesses[()]))
    else:
        remainder = leaves & frozenset(pruned.tree.full_depth_plays())
        rest = U.solve(pruned.tree, remainder)
        checks.append(rest.winner is direct.winner)
        checks.append(U.is_winning_strategy(pruned.tree, remainder, rest.strategy))
        moved = U.transfer_from_pruned(tree, pruned, rest.strategy)
        checks.append(U.is_winning_strategy(tree, leaves, moved))
    covering = U.build_base_covering(tree, spec, k)
    decided = covering.level + 2
    checks.append(bool(U.check_position_map(covering)))
    checks.append(U.decided_by_depth(covering.source, U.pullback(covering, leaves), decided))
    via = U.solve_via_covering(covering, leaves, decided)
    checks.append(via.winner is direct.winner)
    checks.append(U.is_winning_strategy(tree, leaves, via.strategy))
    claims = sum(1 << len(front) for front in covering.frontiers.values())
    return all(checks), (str(direct.winner), len(pruned.removed), covering.source.node_count, claims)


# ------------------------------------------------------------------ union


def union_inputs(seed: int, count: int, workdir: Path) -> list:
    cases = []
    draw = 0
    while len(cases) < count:
        tree, specs = random_union_instance(f"bench:union:{seed}:{draw}", **UNION)
        draw += 1
        if UNION_BAND[0] <= covering_estimate(tree, specs[0].generators, 0) <= UNION_BAND[1]:
            cases.append((tree, specs))
    return cases


def union_job(case, tracer):
    tree, specs = case
    try:
        covering, decided = U.unravel_union(tree, specs, 0, frontier_max=UNION_FRONTIER_MAX)
    except U.ResourceLimitError:
        return True, ("cap",)  # a contract outcome, counted by the tracer
    leaves = U.realize(tree, U.ClosedUnion(specs))
    direct = U.solve(tree, leaves)
    checks = [
        covering.level == 0,
        bool(U.check_position_map(covering)),
        U.decided_by_depth(covering.source, U.pullback(covering, leaves), decided),
        U.is_winning_strategy(tree, leaves, direct.strategy),
    ]
    via = U.solve_via_covering(covering, leaves, decided)
    checks.append(via.winner is direct.winner)
    checks.append(U.is_winning_strategy(tree, leaves, via.strategy))
    return all(checks), (str(direct.winner), covering.source.node_count)


# ------------------------------------------------------------------ cli-batch


def cli_inputs(seed: int, count: int, workdir: Path) -> list:
    """Canonical game files named ``gNNN.game`` inside ``workdir``."""
    names = []
    draw = 0
    while len(names) < count:
        rng = rng_for(f"bench:cli-shape:{seed}:{draw}")
        tree, spec = random_game(
            f"bench:cli:{seed}:{draw}", depth=CLI_DEPTH, branching=3, taboos=3, generators=3
        )
        draw += 1
        if not CLI_BAND[0] <= covering_estimate(tree, spec.generators, 0) <= CLI_BAND[1]:
            continue
        payoff = U.Closed(spec) if rng.random() < 0.5 else U.Open(spec)
        name = f"g{len(names):03d}.game"
        (workdir / name).write_text(format_game(to_document(tree, payoff)), encoding="utf-8")
        names.append(name)
    return names


def _cli(tracer, argv) -> tuple[int, str]:
    out = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = unraveling.cli.main(argv)
    return code, out.getvalue()


def _winner(text: str) -> str | None:
    for line in text.splitlines():
        if line.startswith("winner: "):
            return line[len("winner: "):]
    return None


def cli_job(name, tracer):
    dot = name[: -len(".game")] + ".dot"
    runs = [
        _cli(tracer, ["solve", name]),
        _cli(tracer, ["prune", name]),
        _cli(tracer, ["unravel", name, "--k", "0"]),
        _cli(tracer, ["verify", name, "--samples", CLI_SAMPLES]),
        _cli(tracer, ["export-dot", name, "--covering", "--output", dot]),
    ]
    graph = Path(dot).read_text(encoding="utf-8")
    tracer.counts["cli.nonzero_exits"] += sum(code != 0 for code, _ in runs)
    checks = [code == 0 for code, _ in runs]
    checks += ["\nresult: verified\n" in text for _, text in runs[:4]]
    checks.append(_winner(runs[0][1]) is not None and _winner(runs[0][1]) == _winner(runs[2][1]))
    checks.append(graph.startswith("digraph covering {"))
    digest = hashlib.sha256()
    for _, text in runs:
        digest.update(text.encode())
    digest.update(graph.encode())
    return all(checks), digest.hexdigest()


WORKLOADS = {
    # name: (make inputs, run one job, distinct inputs per run)
    "arena": (arena_inputs, arena_job, 150),
    "union": (union_inputs, union_job, 300),
    "cli-batch": (cli_inputs, cli_job, 120),
}
