"""The benchmark's four workloads: how each builds its inputs from a seed,
and how each op's report is checked against an independent reference.

An op is one `hrcolor` command line (without `--threads`, which run.py
appends). Inputs are built through the package's public API
(`constructions`, `graph`, `coloring`, `codec`) and written as documents,
so the program under test only ever sees the generated files.

References never come from the code under test: exhaustive verdicts come
from the naive checkers in tests/oracles.py (directly, or through
golden.json, which bench/make_golden.py records with them), witnesses are
replayed against the oracle definitions, and search verdicts rest on the
raw brute-force search in tests/oracles.py for n <= 5 or on the paper's
minimum-color table (no highly 2-resistant coloring exists on n <= 8
vertices; clique-partition:a realizes a+1 colors).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: (catalog name, design attack size) for the check-structured workload.
STRUCTURED_FAMILIES = (
    ("clique-partition:3", 3),
    ("clique-partition:4", 4),
    ("clique-partition:5", 5),
    ("paper-14", 3),
    ("paper-21", 4),
)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    ref: Any  # the workload's reference key for this op


class Docs:
    """Writes input documents into one scratch directory."""

    def __init__(self, directory: Path) -> None:
        self.dir = directory

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def lex_rank(attack, n: int) -> int:
    """Rank of a sorted vertex tuple among all same-size subsets of
    range(n) in lexicographic order."""
    a = len(attack)
    rank = 0
    prev = -1
    for i, v in enumerate(attack):
        for u in range(prev + 1, v):
            rank += comb(n - 1 - u, a - 1 - i)
        prev = v
    return rank


def edge_list_doc(g) -> str:
    """A graph as a bare edge-list document ("n m" then "u v" lines)."""
    return f"{g.n} {g.num_edges()}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def relabel(hr, inst, rng: random.Random):
    """The instance with its vertices renamed by a seeded permutation."""
    n = inst.graph.n
    perm = list(range(n))
    rng.shuffle(perm)
    graph = hr.Graph(n, [(perm[u], perm[v]) for u, v in inst.graph.edges()])
    masks = [0] * n
    for u, m in enumerate(inst.coloring.masks):
        masks[perm[u]] = m
    coloring = hr.Multicoloring(inst.coloring.palette_size, masks)
    return hr.ColoredInstance(inst.name, graph, coloring, inst.attackers)


# ------------------------------------------------------------ oracle helpers


@dataclass(frozen=True)
class Plain:
    """An instance in the oracle's plain-set form."""

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    colors: tuple[frozenset[int], ...]

    @classmethod
    def from_instance(cls, inst) -> "Plain":
        n = inst.graph.n
        return cls(n, tuple(inst.graph.edges()), inst.coloring.palette_size,
                   tuple(frozenset(inst.coloring.colors_of(v)) for v in range(n)))

    @classmethod
    def from_document(cls, obj: dict) -> "Plain":
        return cls(obj["n"], tuple(tuple(e) for e in obj["edges"]), obj["k"],
                   tuple(frozenset(c) for c in obj["colors"]))


def oracle_check(oracles, p: Plain, a: int) -> dict:
    """Expected exhaustive report fields, from the naive oracle scans."""
    colors = [set(c) for c in p.colors]
    hr_ok, hr_w = oracles.naive_check_hr(p.n, list(p.edges), p.k, colors, a)
    res_ok, res_w = oracles.naive_check_resistant(p.n, list(p.edges), p.k, colors, a)
    if hr_ok or res_ok:
        examined = comb(p.n, a)
    else:
        examined = max(lex_rank(hr_w, p.n), lex_rank(res_w, p.n)) + 1
    return {
        "n": p.n, "k": p.k,
        "hr_holds": hr_ok, "hr_witness": None if hr_w is None else list(hr_w),
        "resistant": res_ok,
        "resistance_witness": None if res_w is None else list(res_w),
        "attack_sets_examined": examined,
    }


def holds_all_colors(p: Plain, attack) -> bool:
    held: set[int] = set()
    for u in attack:
        held |= p.colors[u]
    return held == set(range(1, p.k + 1))


def attack_defeats(oracles, p: Plain, attack) -> bool:
    """True when no surviving component holds every color (oracle flood fill)."""
    survivors, sub_edges = oracles._attacked(p.n, list(p.edges), tuple(attack))
    palette = set(range(1, p.k + 1))
    for comp in oracles.naive_components(survivors, sub_edges):
        held: set[int] = set()
        for u in comp:
            held |= p.colors[u]
        if held == palette:
            return False
    return True


def witness_error(oracles, obj, n: int, edges, a: int, k: int | None = None) -> str | None:
    """Replay a sat witness document against the oracle definitions."""
    if obj is None:
        return "sat without a witness"
    if obj.get("n") != n or sorted(map(tuple, obj.get("edges", []))) != sorted(edges):
        return "witness graph differs from the input graph"
    if k is not None and obj.get("k") != k:
        return f"witness palette {obj.get('k')} != {k}"
    expected = oracle_check(oracles, Plain.from_document(obj), a)
    if not expected["hr_holds"]:
        return "witness violates the hold condition"
    if not expected["resistant"]:
        return "witness is not resistant"
    return None


def _vertex_set_error(w, n: int, a: int) -> str | None:
    if not (isinstance(w, list) and len(w) == a and w == sorted(set(w))
            and all(isinstance(v, int) and 0 <= v < n for v in w)):
        return f"malformed attack set {w!r}"
    return None


_CHECK_KEYS = ("n", "k", "hr_holds", "hr_witness", "resistant",
               "resistance_witness", "attack_sets_examined")


def check_report_error(report: dict, code: int, a: int, expected: dict) -> str | None:
    if report.get("report") != "check" or report.get("attackers") != a:
        return "not a check report for this attack size"
    for key in _CHECK_KEYS:
        if report.get(key) != expected[key]:
            return f"{key}: got {report.get(key)!r}, expected {expected[key]!r}"
    highly = expected["hr_holds"] and expected["resistant"]
    if report.get("highly_resistant") != highly:
        return "highly_resistant disagrees with the two conditions"
    if code != (0 if highly else 1):
        return f"exit code {code} for highly_resistant={highly}"
    return None


# ------------------------------------------------------------ workloads


class CheckStructured:
    """Exhaustive checks of the catalog constructions at, below and just
    above their design attack size."""

    name = "check-structured"
    # At --threads 2 each op starts a thread pool whose threads contend for
    # the GIL across both cores; on a shared 2-core host that made op_p50_ms
    # swing threefold between runs. The timed passes use one thread, and the
    # traced run re-times them at two (checker.parallel_speedup).
    threads = 1

    def __init__(self) -> None:
        self.golden: dict[str, dict] | None = None

    def build(self, hr, rng: random.Random, docs: Docs) -> list[Op]:
        ops: list[Op] = []
        for family, design in STRUCTURED_FAMILIES:
            inst = hr.constructions.instance(family)
            canonical = docs.write(f"{family}.json", hr.codec.encode_instance(inst))
            # passing verdicts and counts do not depend on vertex names, so
            # passing checks run on a seeded relabeling; failing checks keep
            # the catalog labels that golden.json's witnesses refer to
            renamed = docs.write(
                f"{family}-relabeled.json", hr.codec.encode_instance(relabel(hr, inst, rng))
            )
            n = inst.graph.n
            for a in range(1, design + 2):
                doc = renamed if a <= design else canonical
                op = Op(("check", "--instance", doc, "-a", str(a), "--format", "json"),
                        "check", f"{family}@{a}")
                ops += [op] * (6 if comb(n, a) <= 25_000 else 1)
        rng.shuffle(ops)
        return ops

    def verify(self, oracles, op: Op, code: int, report: dict) -> str | None:
        if self.golden is None:
            self.golden = json.loads(GOLDEN.read_text())
        a = int(op.ref.rsplit("@", 1)[1])
        return check_report_error(report, code, a, self.golden[op.ref])

    def work(self, op: Op, report: dict) -> int:
        return report["attack_sets_examined"]


class CheckRandom:
    """Exhaustive and sampled checks of seeded random sparse instances."""

    name = "check-random"
    threads = 1
    sizes = (36, 40, 44, 48)
    instances = 20
    # enough sampled ops that op_p90_ms falls among them, not on the
    # boundary between sampled and exhaustive ops
    samples_per_instance = 15
    sample_trials = 600

    def __init__(self) -> None:
        self.plain: dict[int, Plain] = {}
        self._expected: dict[int, dict] = {}

    def build(self, hr, rng: random.Random, docs: Docs) -> list[Op]:
        ops: list[Op] = []
        for i in range(self.instances):
            n = self.sizes[i % len(self.sizes)]
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = sorted(rng.sample(pairs, 3 * n // 2))  # mean degree 3
            masks = [rng.randrange(1, 8) for _ in range(n)]  # nonempty subsets of 3 colors
            inst = hr.ColoredInstance(
                f"random-{i}", hr.Graph(n, edges), hr.Multicoloring(3, masks), 3
            )
            self.plain[i] = Plain.from_instance(inst)
            doc = docs.write(f"random-{i}.json", hr.codec.encode_instance(inst))
            ops.append(Op(("check", "--instance", doc, "-a", "3", "--format", "json"),
                          "check", (i, 3)))
            for j in range(self.samples_per_instance):
                a = 3 + j % 2
                seed = rng.randrange(2**31)
                ops.append(Op(("check", "--instance", doc, "-a", str(a), "--sample",
                               str(self.sample_trials), "--seed", str(seed),
                               "--format", "json"), "sample", (i, a, seed)))
        rng.shuffle(ops)
        return ops

    def expected(self, oracles, i: int) -> dict:
        if i not in self._expected:
            self._expected[i] = oracle_check(oracles, self.plain[i], 3)
        return self._expected[i]

    def verify(self, oracles, op: Op, code: int, report: dict) -> str | None:
        if op.kind == "check":
            i, a = op.ref
            return check_report_error(report, code, a, self.expected(oracles, i))
        i, a, seed = op.ref
        p = self.plain[i]
        if (report.get("report"), report.get("n"), report.get("k"), report.get("attackers"),
                report.get("trials"), report.get("seed")) != (
                "sample-check", p.n, p.k, a, self.sample_trials, seed):
            return "sample report does not echo its inputs"
        failures = 0
        for count_key, first_key, fails in (
            ("hr_failures", "first_hr_failure", lambda w: holds_all_colors(p, w)),
            ("resistance_failures", "first_resistance_failure",
             lambda w: attack_defeats(oracles, p, w)),
        ):
            count, first = report.get(count_key), report.get(first_key)
            if not (isinstance(count, int) and 0 <= count <= self.sample_trials):
                return f"{count_key} out of range"
            if (count > 0) != (first is not None):
                return f"{first_key} present iff {count_key} > 0 is violated"
            if first is not None:
                err = _vertex_set_error(first, p.n, a)
                if err:
                    return err
                if not fails(first):
                    return f"{first_key} {first} is not a failure"
            failures += count
        if a == 3:
            exp = self.expected(oracles, i)
            if exp["hr_holds"] and report["hr_failures"]:
                return "sampled hold failures on an instance whose hold condition holds"
            if exp["resistant"] and report["resistance_failures"]:
                return "sampled resistance failures on a resistant instance"
        if code != (1 if failures else 0):
            return f"exit code {code} with {failures} sampled failures"
        return None

    def work(self, op: Op, report: dict) -> int:
        return report["attack_sets_examined"] if op.kind == "check" else report["trials"]


def _random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


class Search:
    """Search decisions, minimum-palette scans and labeled-graph sweeps on
    small graphs."""

    name = "search"
    threads = 1
    budget = 2000  # for the budget-bounded decisions
    # (n, a, kmax, ops per pass) sweeps whose outcome the paper's table fixes
    sweeps = ((5, 1, 3, 1), (5, 2, 3, 1), (5, 2, 4, 1), (4, 1, 3, 3), (4, 2, 4, 3))

    def __init__(self) -> None:
        self.graphs: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {}
        self._raw: dict[tuple, bool] = {}

    def _graph_doc(self, docs: Docs, name: str, g) -> str:
        self.graphs[name] = (g.n, tuple(g.edges()))
        return docs.write(f"{name}.edges", edge_list_doc(g))

    def build(self, hr, rng: random.Random, docs: Docs) -> list[Op]:
        gr = hr.graph
        ops: list[Op] = []

        def add(argv, kind, ref, times=1):
            ops.extend([Op(tuple(argv) + ("--format", "json"), kind, ref)] * times)

        cp2 = self._graph_doc(docs, "cp2", hr.constructions.clique_partition(2).graph)
        add(["search", "--graph", cp2, "-a", "2", "-k", "3"], "decide", ("cp2", 2, 3, None))
        for n, a, kmax, times in self.sweeps:
            add(["search", "--nonexistence", "-n", str(n), "-a", str(a), "--kmax", str(kmax)],
                "sweep", (n, a, kmax), times)
        # graphs on at most 8 vertices, where no highly 2-resistant coloring
        # exists, so a decision is unsat or runs out of budget
        families = (
            gr.cycle(8), gr.path(8), gr.disjoint_union(gr.cycle(4), gr.cycle(4)),
            gr.disjoint_union(gr.complete(3), gr.cycle(5)),
            gr.disjoint_union(gr.disjoint_union(gr.complete(3), gr.complete(3)),
                              gr.complete(2)),
        )
        # the seed only renames vertices and draws small graphs; the mix of
        # families, palettes and sizes is fixed so that op costs stay comparable
        for i in range(50):
            base = families[i % len(families)]
            perm = list(range(base.n))
            rng.shuffle(perm)
            g = hr.Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges()])
            doc = self._graph_doc(docs, f"bounded-{i}", g)
            k = 3 + i % 3
            add(["search", "--graph", doc, "-a", "2", "-k", str(k), "--budget", str(self.budget)],
                "decide", (f"bounded-{i}", 2, k, self.budget))
        for i in range(24):
            n = 4 + i % 2
            doc = self._graph_doc(docs, f"minc-{i}", hr.Graph(n, _random_edges(rng, n)))
            add(["search", "--graph", doc, "-a", "1", "--min-colors", "--kmax", "3"],
                "min-colors", (f"minc-{i}", 1, 3))
        for i in range(24):
            doc = self._graph_doc(docs, f"small-{i}", hr.Graph(5, _random_edges(rng, 5)))
            k = 2 + i % 2
            add(["search", "--graph", doc, "-a", "1", "-k", str(k)],
                "decide", (f"small-{i}", 1, k, None))
        rng.shuffle(ops)
        return ops

    def _exists(self, oracles, name: str, a: int, k: int) -> bool:
        key = (name, a, k)
        if key not in self._raw:
            n, edges = self.graphs[name]
            self._raw[key] = oracles.raw_search_exists(n, list(edges), a, k) is not None
        return self._raw[key]

    def _allowed(self, oracles, name: str, a: int, k: int) -> set[str]:
        """Outcomes a correct decide may report (unknown is checked apart)."""
        n, _ = self.graphs[name]
        if name == "cp2":
            return {"sat"}  # clique-partition:2 realizes 3 colors against 2 attackers
        if a == 2 and n <= 8:
            return {"unsat"}  # no highly 2-resistant coloring on n <= 8
        return {"sat"} if self._exists(oracles, name, a, k) else {"unsat"}

    def _decision_error(self, oracles, name, a, k, budget, outcome, nodes,
                        witness=None, check_witness=True) -> str | None:
        n, edges = self.graphs[name]
        if not isinstance(nodes, int) or nodes < 0 or nodes > budget:
            return f"nodes_expanded {nodes!r} outside 0..{budget}"
        if outcome == "unknown":
            return None if nodes == budget else "unknown before the budget was spent"
        if outcome not in self._allowed(oracles, name, a, k):
            return f"outcome {outcome} is wrong for {name} a={a} k={k}"
        if not check_witness:
            return None
        if outcome == "sat":
            return witness_error(oracles, witness, n, edges, a, k)
        return None if witness is None else "witness on a non-sat outcome"

    def verify(self, oracles, op: Op, code: int, report: dict) -> str | None:
        exit_of = {"sat": 0, "found": 0, "found-sat": 0, "unsat": 1, "none": 1,
                   "all-unsat": 1, "unknown": 3}
        if op.kind == "decide":
            name, a, k, budget = op.ref
            budget = budget if budget is not None else 10**6
            if (report.get("report"), report.get("attackers"), report.get("k"),
                    report.get("n"), report.get("budget")) != (
                    "search", a, k, self.graphs[name][0], budget):
                return "search report does not echo its inputs"
            outcome = report.get("outcome")
            err = self._decision_error(oracles, name, a, k, budget, outcome,
                                       report.get("nodes_expanded"), report.get("witness"))
        elif op.kind == "min-colors":
            name, a, kmax = op.ref
            outcome = report.get("status")
            err = self._min_colors_error(oracles, name, a, kmax, report)
        else:
            n, a, kmax = op.ref
            outcome = report.get("outcome")
            err = self._sweep_error(oracles, n, a, kmax, report)
        if err:
            return err
        if code != exit_of.get(outcome):
            return f"exit code {code} for outcome {outcome}"
        return None

    def _min_colors_error(self, oracles, name, a, kmax, report) -> str | None:
        budget = 10**6
        if (report.get("report"), report.get("attackers"), report.get("k_max"),
                report.get("budget")) != ("min-colors", a, kmax, budget):
            return "min-colors report does not echo its inputs"
        trail = report.get("trail") or []
        if [t.get("k") for t in trail] != list(range(a + 1, a + 1 + len(trail))):
            return "trail does not scan k upward from a+1"
        for t in trail:
            err = self._decision_error(oracles, name, a, t["k"], budget, t.get("outcome"),
                                       t.get("nodes_expanded"), check_witness=False)
            if err:
                return f"trail k={t['k']}: {err}"
        outcomes = [t.get("outcome") for t in trail]
        status, value = report.get("status"), report.get("value")
        if status == "found":
            if outcomes[-1:] != ["sat"] or "sat" in outcomes[:-1] or "unknown" in outcomes:
                return "found without a clean trail"
            if value != trail[-1]["k"]:
                return "value is not the first sat palette"
            n, edges = self.graphs[name]
            return witness_error(oracles, report.get("witness"), n, edges, a, value)
        if status == "none":
            ok = outcomes == ["unsat"] * (kmax - a) and value is None
            return None if ok else "none without an all-unsat trail"
        if status == "unknown":
            return None if "unknown" in outcomes else "unknown without an unknown decision"
        return f"bad status {status!r}"

    def _sweep_error(self, oracles, n, a, kmax, report) -> str | None:
        if (report.get("report"), report.get("n"), report.get("attackers"),
                report.get("k_max")) != ("nonexistence", n, a, kmax):
            return "nonexistence report does not echo its inputs"
        # the paper's table: a=1 needs 2 colors from n=4 on; a=2 has no
        # solution on n <= 8
        expected = "found-sat" if a == 1 and n >= 4 else "all-unsat"
        if report.get("outcome") != expected:
            return f"outcome {report.get('outcome')}, expected {expected}"
        if expected == "all-unsat":
            ok = report.get("witness") is None and report.get("unknown_count") == 0
            return None if ok else "all-unsat with a witness or unknown graphs"
        w = report.get("witness")
        sat_k = report.get("sat_k")
        if w is None or not (isinstance(sat_k, int) and a + 1 <= sat_k <= kmax):
            return "found-sat without a witness in range"
        return witness_error(oracles, w, n, [tuple(e) for e in w["edges"]], a, sat_k)

    def work(self, op: Op, report: dict) -> int:
        return 1


class Lemma:
    """All seven randomized disjunction suites at seeded trial streams."""

    name = "lemma"
    threads = 1
    suites = (4, 5, 7, 9, 10, 11, 12)
    trials = 400
    rounds = 15

    def build(self, hr, rng: random.Random, docs: Docs) -> list[Op]:
        ops = [
            Op(("verify-lemma", "--lemma", str(lemma_id), "--trials", str(self.trials),
                "--seed", str(seed), "--format", "json"), "lemma", (lemma_id, seed))
            for _ in range(self.rounds)
            for lemma_id, seed in ((i, rng.randrange(2**31)) for i in self.suites)
        ]
        rng.shuffle(ops)
        return ops

    def verify(self, oracles, op: Op, code: int, report: dict) -> str | None:
        lemma_id, seed = op.ref
        if (report.get("report"), report.get("lemma"), report.get("trials"),
                report.get("seed")) != ("verify-lemma", lemma_id, self.trials, seed):
            return "lemma report does not echo its inputs"
        if report.get("violations") != 0:
            return f"{report.get('violations')} violations"
        return None if code == 0 else f"exit code {code} with no violations"

    def work(self, op: Op, report: dict) -> int:
        return report["trials"]


WORKLOADS = {w.name: w for w in (CheckStructured, CheckRandom, Search, Lemma)}
