"""Per-layer tracing from outside the package.

The tracer replaces the package's public functions with timing wrappers at
the names their callers look up (for example `hrcolor.search.check_hr`
as well as `hrcolor.checker.check_hr`), records one span per call in
memory, and restores the originals afterwards. Layer metrics are derived
from the spans once a pass is over, so the counters that need real work
(ranks of witnesses, distinct removed masks) are computed outside every
span.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from time import perf_counter
from typing import Any, Callable

from workloads import lex_rank


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # op index within the pass, -1 during set-up
    info: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def _graph_attack(args, kwargs, result):
    g, a = args[0], args[2] if len(args) > 2 else kwargs["a"]
    return g.closed_masks, g.n, a, result


def _fused_attack(args, kwargs, result):
    """As `_graph_attack`, plus the inputs, so that `split_fused` can
    re-time the fused scan's two tests."""
    g, kappa = args[0], args[1]
    return (*_graph_attack(args, kwargs, result), (g, kappa, kwargs.get("threads", 1)))


# (span name, module, dotted attribute, info extractor). Functions are also
# patched wherever another package module imported them by name; methods
# are patched on their class.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "cli", "main", None),
    ("codec.decode", "codec", "decode_instance", lambda a, k, r: a[0]),
    ("codec.decode", "codec", "decode_edge_list", lambda a, k, r: a[0]),
    ("codec.decode", "codec", "decode_coloring", lambda a, k, r: a[0]),
    ("codec.encode", "codec", "encode_instance", lambda a, k, r: r),
    ("codec.encode", "codec", "instance_object", lambda a, k, r: r),
    ("constructions.build", "constructions", "instance", None),
    ("constructions.build", "constructions", "clique_partition", None),
    ("constructions.build", "constructions", "c7_pair", None),
    ("constructions.build", "constructions", "c8c8p5", None),
    ("constructions.build", "constructions", "catalog", None),
    ("graph.build", "graph", "Graph.__init__", None),
    ("graph.components", "graph", "Graph.surviving_components", None),
    # search's per-graph list of surviving components for every attack
    ("graph.components", "search", "_attack_component_masks", None),
    ("coloring.build", "coloring", "Multicoloring.__init__", lambda a, k, r: "init"),
    ("coloring.build", "coloring", "Multicoloring.from_sets", None),
    ("checker.hold", "checker", "check_hr", _graph_attack),
    ("checker.resist", "checker", "check_resistant", _graph_attack),
    ("checker.highly", "checker", "check_highly", _fused_attack),
    ("checker.sample", "checker", "sample_check", lambda a, k, r: r.trials),
    ("checker.disjunction", "checker", "lemma_disjunction", None),
    ("search.decide", "search", "decide", lambda a, k, r: r),
    ("search.min_colors", "search", "min_colors", None),
    ("search.sweep", "search", "exhaustive_nonexistence", lambda a, k, r: r),
    ("lemmas.run", "lemmas", "run_lemma", lambda a, k, r: r),
)


class Tracer:
    """Records spans while installed; `spans` is replaced per pass."""

    package = "hrcolor"

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = done = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                data = info(args, kwargs, result) if info and done else None
                spans[idx] = Span(name, start, end, parent, tracer.op, data)

        return wrapper

    def install(self) -> None:
        modules = {
            key: mod for key, mod in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        }
        for name, mod_name, attr, info in TARGETS:
            owner = modules.get(f"{self.package}.{mod_name}")
            if owner is None:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                continue  # renamed or removed in this version: no span
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, info))
                self._patch(owner, leaf, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw, info)
            if path:
                self._patch(owner, leaf, raw, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapped)

    def _patch(self, owner: Any, key: str, original: Any, replacement: Any) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        self.stack.clear()
        return spans

    @staticmethod
    def dump(spans: list[Span], fh) -> None:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


# ------------------------------------------------------------ derivation


def _scan_len(n: int, a: int, witness) -> int:
    """Sequential-scan count of a check that stops at its witness."""
    return comb(n, a) if witness is None else lex_rank(tuple(witness), n) + 1


@functools.cache
def _distinct_removed(closed: tuple[int, ...], n: int, a: int, count: int) -> int:
    """Distinct removed masks over the first `count` attack sets."""
    seen = set()
    for attack in islice(combinations(range(n), a), count):
        rm = 0
        for u in attack:
            rm |= closed[u]
        seen.add(rm)
    return len(seen)


def _text_bytes(value: Any) -> int:
    text = value if isinstance(value, str) else json.dumps(value)
    return len(text.encode("utf-8"))


def split_fused(spans: list[Span], checker) -> tuple[float, float]:
    """Hold and resistance time of the pass's `check_highly` calls.

    `check_highly` runs both tests in one fused scan, so its spans cannot
    be split. Each distinct call (graph, coloring, attack size, threads) is
    re-timed once as a `check_hr` and a `check_resistant` call of the
    untraced `checker` module, and counted as often as the pass made it.
    """
    timed: dict[tuple, tuple[float, float]] = {}
    hold = resist = 0.0
    for s in spans:
        if s.name != "checker.highly" or s.info is None:
            continue
        closed, _, a, _, (g, kappa, threads) = s.info
        key = (closed, tuple(kappa.masks), kappa.palette_size, a, threads)
        if key not in timed:
            start = perf_counter()
            checker.check_hr(g, kappa, a, threads=threads)
            mid = perf_counter()
            checker.check_resistant(g, kappa, a, threads=threads)
            timed[key] = (mid - start, perf_counter() - mid)
        hold += timed[key][0]
        resist += timed[key][1]
    return hold, resist


def layer_metrics(spans: list[Span], checker) -> dict[str, float]:
    """Per-layer times and counters of one traced pass (set-up included).

    A `_s` metric is the inclusive time of the layer's outermost spans,
    except `cli.self_s` and `lemmas.self_s`, which subtract child spans,
    and `checker.hold_s` and `checker.resist_s`, which add the re-timed
    halves of fused scans (`split_fused`; `checker` is the untraced module).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def parent_name(s: Span) -> str | None:
        return spans[s.parent].name if s.parent >= 0 else None

    def outer(name: str) -> list[Span]:
        return [s for s in spans if s.name == name and parent_name(s) != name]

    def total(ss) -> float:
        return sum(s.duration for s in ss)

    m: dict[str, float] = {}
    cli = outer("cli.main")
    m["cli.self_s"] = sum(s.duration - child_time[i] for i, s in enumerate(spans)
                          if s.name == "cli.main")
    m["cli.calls"] = len(cli)
    for kind in ("decode", "encode"):
        ss = outer(f"codec.{kind}")
        m[f"codec.{kind}_s"] = total(ss)
        m[f"codec.{kind}_bytes"] = sum(_text_bytes(s.info) for s in ss if s.info is not None)
    m["constructions.build_s"] = total(outer("constructions.build"))
    m["graph.build_s"] = total(outer("graph.build"))
    m["graph.builds"] = sum(1 for s in spans if s.name == "graph.build")
    comps = outer("graph.components")
    m["graph.components_s"] = total(comps)
    m["graph.components_calls"] = len(comps)
    m["coloring.build_s"] = total(outer("coloring.build"))
    m["coloring.builds"] = sum(1 for s in spans if s.name == "coloring.build" and s.info == "init")

    hold_sets = resist_sets = attack_sets = distinct = 0
    for s in spans:
        if s.info is None or s.name not in ("checker.hold", "checker.resist", "checker.highly"):
            continue
        closed, n, a, result = s.info[:4]
        if s.name == "checker.highly":
            hold = _scan_len(n, a, result.hr_witness)
            resist = _scan_len(n, a, result.resistance_witness)
            attack_sets += result.attack_sets_examined
        else:
            scanned = _scan_len(n, a, result[1])
            hold, resist = (scanned, 0) if s.name == "checker.hold" else (0, scanned)
            attack_sets += scanned
        hold_sets += hold
        resist_sets += resist
        if resist:
            distinct += _distinct_removed(closed, n, a, resist)
    checker_s = 0.0
    for kind in ("hold", "resist", "highly", "sample"):
        m[f"checker.{kind}_s"] = total(outer(f"checker.{kind}"))
        if kind != "sample":
            checker_s += m[f"checker.{kind}_s"]
    fused_hold, fused_resist = split_fused(spans, checker)
    m["checker.hold_s"] += fused_hold
    m["checker.resist_s"] += fused_resist
    m["checker.hold_sets"] = hold_sets
    m["checker.resist_sets"] = resist_sets
    m["checker.attack_sets"] = attack_sets
    m["checker.ns_per_attack"] = checker_s * 1e9 / attack_sets if attack_sets else 0.0
    m["checker.removed_distinct"] = distinct
    m["checker.removed_reuse"] = 1 - distinct / resist_sets if resist_sets else 0.0
    m["checker.sample_trials"] = sum(s.info for s in outer("checker.sample") if s.info)

    decides = [s for s in spans if s.name == "search.decide"]
    m["search.decide_s"] = total(decides)
    m["search.decide_calls"] = len(decides)
    nodes = sum(s.info.nodes_expanded for s in decides if s.info is not None)
    m["search.nodes"] = nodes
    m["search.ns_per_node"] = m["search.decide_s"] * 1e9 / nodes if nodes else 0.0
    leaves = [s for s in spans if s.name.startswith("checker.")
              and parent_name(s) == "search.decide"]
    m["search.leaf_checks"] = len(leaves)
    m["search.leaf_s"] = total(leaves)
    sweeps = outer("search.sweep")
    m["search.graphs"] = (
        sum(s.info.graphs_examined for s in sweeps if s.info is not None)
        + len(outer("search.min_colors"))
        + sum(1 for s in decides if not (parent_name(s) or "").startswith("search."))
    )
    m["search.unknown"] = sum(1 for s in decides
                              if s.info is not None and s.info.outcome == "unknown")

    runs = outer("lemmas.run")
    m["lemmas.run_s"] = total(runs)
    trials = sum(s.info.trials for s in runs if s.info is not None)
    m["lemmas.trials"] = trials
    run_ids = {i for i, s in enumerate(spans) if s.name == "lemmas.run"}
    disjunction_ids = {i for i, s in enumerate(spans)
                       if s.name == "checker.disjunction" and s.parent in run_ids}
    m["lemmas.self_s"] = m["lemmas.run_s"] - sum(spans[i].duration for i in disjunction_ids)
    reached = sum(1 for s in spans if s.name == "checker.resist" and s.parent in disjunction_ids)
    m["lemmas.resist_reached"] = reached
    m["lemmas.resist_reached_ratio"] = reached / trials if trials else 0.0
    return m
