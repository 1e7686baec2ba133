"""In-memory span recorder that wraps the package's public functions.

``Tracer.install()`` replaces each traced function in every ``unraveling``
module that binds it, so calls made inside the package are caught too, and
``uninstall()`` puts the originals back.  A function that is no longer
bound records zero calls.  Coverings returned by the constructors get a
traced ``strategy_transform``, which is a closure, not a module function.

A span is ``[name, start, end, parent index]``; a layer's self time is its
spans' total duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict

from unraveling.core import ResourceLimitError

TRANSFORM = "covering.strategy_transform"
UNION = "unravel.unravel_union"


def _count(key, measure=lambda args, result: 1):
    return lambda counts, args, result: counts.update({key: measure(args, result)})


def _covering_size(counts, args, result):
    counts["unravel.source_nodes"] += result.source.node_count
    counts["unravel.claim_moves"] += sum(1 << len(front) for front in result.frontiers.values())


# span name -> (module, function, hook(counts, args, result) or None)
LAYERS = {
    "core.is_winning_strategy": ("core", "is_winning_strategy", None),
    "payoff.realize": ("payoff", "realize", None),
    "payoff.decided_by_depth": ("payoff", "decided_by_depth", None),
    "solver.solve": ("solver", "solve", _count("solver.solve.nodes", lambda a, r: a[0].node_count)),
    "solver.prune": ("solver", "prune", _count("solver.prune.removed", lambda a, r: len(r.removed))),
    "solver.transfer_from_pruned": ("solver", "transfer_from_pruned", None),
    "unravel.build_base_covering": ("unravel", "build_base_covering", _covering_size),
    UNION: ("unravel", "unravel_union", None),
    "covering.compose": ("covering", "compose", _count("covering.compose.calls")),
    "covering.check_position_map": ("covering", "check_position_map", None),
    "covering.pullback": ("covering", "pullback", None),
    "covering.solve_via_covering": ("covering", "solve_via_covering", None),
    "covering.check_strategy_locality": ("covering", "check_strategy_locality", None),
    "covering.verify_lift": ("covering", "verify_lift", _count("covering.plays_lifted")),
    "covering.check_winning_transfer": ("covering", "check_winning_transfer", None),
    "gamedoc.parse_game_bytes": (
        "gamedoc", "parse_game_bytes", _count("gamedoc.bytes_parsed", lambda a, r: len(a[0]))
    ),
    "gamedoc.build_arena": ("gamedoc", "build_arena", None),
    "dot.covering_dot": (
        "dot", "covering_dot", _count("dot.bytes_written", lambda a, r: len(r.encode()))
    ),
}
# constructors whose coverings get a traced strategy transform
COVERING_MAKERS = {"unravel.build_base_covering", "covering.compose"}


class NullTracer:
    """Stand-in for untraced runs: no spans, and counts that nobody reads."""

    def __init__(self):
        self.counts: Counter = Counter()

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list = []

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if name == "unravel.build_base_covering" and tracer._inside(UNION):
                tracer.counts["unravel.union_stages"] += 1
            if name == UNION:
                tracer.counts["unravel.union_attempts"] += 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                if name == UNION:
                    tracer.counts["unravel.cap_rejections"] += 1
                raise
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.counts, args, result)
            if name in COVERING_MAKERS:
                result = tracer._traced_covering(result)
            return result

        return traced

    def _traced_covering(self, covering):
        transform = getattr(covering, "strategy_transform", None)
        if transform is None or not dataclasses.is_dataclass(covering):
            return covering  # not a covering as this tracer knows it: leave it alone
        tracer = self

        def traced_transform(strategy):
            if not tracer._inside(TRANSFORM):
                tracer.counts["covering.strategies_transformed"] += 1
            index = tracer._open(TRANSFORM)
            try:
                return transform(strategy)
            finally:
                tracer._close(index)

        return dataclasses.replace(covering, strategy_transform=traced_transform)

    def install(self) -> None:
        """Wrap every layer function wherever an ``unraveling`` module binds it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "unraveling" or name.startswith("unraveling.")
        ]
        for name, (module_name, attr, hook) in LAYERS.items():
            original = getattr(sys.modules.get(f"unraveling.{module_name}"), attr, None)
            if original is None:
                continue  # no longer bound: the span records zero calls
            traced = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def totals(self) -> tuple[dict, dict]:
        """Per span name: (total duration, self time) in seconds."""
        total: dict = defaultdict(float)
        covered: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        own: dict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - covered.get(index, 0.0)
        return dict(total), dict(own)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n"
                )
