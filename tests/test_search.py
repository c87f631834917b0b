import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import hrcolor
from hrcolor import search
from hrcolor.checker import check_highly, check_hr
from hrcolor.cli import main
from hrcolor.coloring import Multicoloring, from_class_masks
from hrcolor.constructions import catalog, clique_partition
from hrcolor.graph import Graph, complete, cycle, disjoint_union, from_pair_bits, path
from hrcolor.search import (
    SAT,
    UNKNOWN,
    UNSAT,
    MinColorsResult,
    NonexistenceSummary,
    blocking_attack,
    certify_table_row,
    decide,
    exhaustive_nonexistence,
    k_table,
    min_colors,
)

from oracles import (
    _attacked,
    canonical_class_sequences,
    first_canonical_coloring,
    naive_check_hr,
    naive_check_resistant,
    naive_components,
    raw_search_exists,
)
from records import replace


def two_k2():
    return Graph(4, [(0, 1), (2, 3)])


def count_calls(monkeypatch, name):
    """The argument tuples of every call to `search.<name>`, recorded as
    the calls happen."""
    calls = []
    real = getattr(search, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, name, counted)
    return calls


class TestDecide:
    def test_triangle_is_unsat(self):
        d = decide(complete(3), 1, 2, 10**6)
        assert d.outcome == UNSAT

    def test_two_k2_is_sat_with_the_expected_witness(self):
        d = decide(two_k2(), 1, 2, 10**6)
        assert d.outcome == SAT
        rep = check_highly(two_k2(), d.witness, 1)
        assert rep.highly_resistant
        # {1}, {2}, {1}, {2} up to renaming the colors
        sets = d.witness.sets()
        got = {frozenset(v for v in range(4) if c in sets[v]) for c in (1, 2)}
        assert got == {frozenset({0, 2}), frozenset({1, 3})}

    def test_small_palette_fast_path(self):
        d = decide(cycle(4), 2, 2, 0)
        assert d.outcome == UNSAT and d.nodes_expanded == 0
        d = decide(cycle(5), 3, 3, 10)
        assert d.outcome == UNSAT and d.nodes_expanded == 0

    def test_zero_budget_is_unknown(self):
        d = decide(cycle(7), 1, 6, 0)
        assert d.outcome == UNKNOWN and d.nodes_expanded == 0

    def test_blocked_graph_is_unsat_without_search(self):
        # attack {0, 1, 2} leaves only the path 4-5 on C7
        assert blocking_attack(cycle(7), 3) == (0, 1, 2)
        for budget in (0, 10**6):
            d = decide(cycle(7), 3, 6, budget)
            assert d.outcome == UNSAT and d.nodes_expanded == 0

    def test_unknown_respects_budget(self):
        for budget in (1, 5, 9):
            d = decide(two_k2(), 1, 2, budget)
            if d.outcome == UNKNOWN:
                assert d.nodes_expanded <= budget
        # the sat witness needs 11 nodes, so 10 must come up short
        d = decide(two_k2(), 1, 2, 10)
        assert d.outcome == UNKNOWN and d.nodes_expanded == 10

    def test_palette_deeper_than_the_recursion_limit(self):
        # each of the k classes is one level of the search: 2K2 needs 9
        # nodes to place the first class and one per class after it
        d = decide(two_k2(), 1, 3000, 10**6)
        assert d.outcome == SAT and d.nodes_expanded == 3009
        assert check_highly(two_k2(), d.witness, 1).highly_resistant

    def test_repeated_class_shares_its_level(self):
        # a repeated class filters nothing, so a deep palette must not keep
        # one copy of the attack lists per level
        g = clique_partition(2).graph
        tracemalloc.start()
        try:
            d = decide(g, 2, 4096, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.outcome == UNKNOWN and d.nodes_expanded == 5000
        assert peak < 1_000_000

    def test_set_up_keeps_no_a_sets(self):
        # the hold test reads the decided classes alone, so the set-up of
        # clique_partition(4) keeps its 30 distinct lists and none of
        # its C(25, 4) = 12,650 a-sets
        g = clique_partition(4).graph
        tracemalloc.start()
        try:
            d = decide(g, 4, 5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.outcome == UNKNOWN and d.nodes_expanded == 0
        assert peak < 500_000

    def test_validation(self):
        with pytest.raises(ValueError):
            decide(two_k2(), 0, 2, 10)
        with pytest.raises(ValueError):
            decide(two_k2(), 5, 6, 10)
        with pytest.raises(ValueError):
            decide(two_k2(), 1, 0, 10)
        with pytest.raises(ValueError):
            decide(two_k2(), 1, 2, -1)

    def test_sat_monotone_in_palette_size(self):
        rng = random.Random(51)
        for _ in range(30):
            n = rng.randint(2, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, [p for p in pairs if rng.random() < 0.5])
            a = 1
            for k in (2, 3):
                if decide(g, a, k, 10**6).outcome == SAT:
                    assert decide(g, a, k + 1, 10**6).outcome == SAT


def decide_digest() -> str:
    """sha256 over (n, bits, a, k, budget, outcome, nodes, witness masks)
    for every labeled graph on n <= 4 vertices, a <= n, k <= 4 and four
    budgets; the graph is `from_pair_bits(n, bits)`."""
    h = hashlib.sha256()
    for n in range(1, 5):
        for bits in range(1 << n * (n - 1) // 2):
            g = from_pair_bits(n, bits)
            for a in range(1, n + 1):
                for k in range(1, 5):
                    for budget in (0, 3, 50, 10**6):
                        d = decide(g, a, k, budget)
                        w = None if d.witness is None else d.witness.masks
                        key = (n, bits, a, k, budget, d.outcome, d.nodes_expanded, w)
                        h.update(repr(key).encode())
    return h.hexdigest()


class TestDecidePinned:
    """Outcomes, node counts and witnesses recorded from the search that
    built a coloring and ran the checker on every leaf candidate."""

    def test_small_graph_digest(self):
        assert decide_digest() == (
            "310eba25c83e2f4e3f35c4c8b71ac09d7c0674a9d84f2798d449b011139f82be"
        )

    def test_clique_partition_two(self, monkeypatch):
        checks = count_calls(monkeypatch, "check_highly")
        d = decide(clique_partition(2).graph, 2, 3, 10**6)
        assert d.outcome == SAT and d.nodes_expanded == 23_453
        assert d.witness.masks == (1, 2, 4, 1, 2, 4, 1, 2, 4)
        # `cover` rejects every hold failure, so only the witness is checked
        assert len(checks) == 1

    def test_cover_identity_matches_the_hold_checker(self):
        # a last class m lets some a-set hold every color iff m meets the
        # union of the a-sets that meet every earlier class
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(5, 7)
            g = from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
            a = rng.randint(1, n)
            k = rng.randint(2, 4)
            class_masks = [rng.getrandbits(n) for _ in range(k)]
            *earlier, m = class_masks
            cover = 0
            for s in combinations(range(n), a):
                mask = sum(1 << u for u in s)
                if all(mask & c for c in earlier):
                    cover |= mask
            kappa = from_class_masks(n, k, class_masks)
            assert (m & cover == 0) == check_hr(g, kappa, a)[0]
            assert search._hold_cover(n, earlier, a) == cover, (n, a, class_masks)

    def test_unblocked_unions_and_cycles(self):
        # at budget 20,000; each witness lists its masks up to the last
        # nonzero one, and every (graph, a) left out is blocked
        for name, g in UNIONS_AND_CYCLES.items():
            for a in (1, 2, 3):
                records = PINNED_DECISIONS.get((name, a))
                assert (records is None) == (blocking_attack(g, a) is not None), (name, a)
                for k, record in zip(range(a + 1, a + 4), records or ()):
                    d = decide(g, a, k, 20_000)
                    w = d.witness and d.witness.masks
                    assert (d.outcome, d.nodes_expanded, w) == padded(record, g.n), (name, a, k)

    def test_two_attackers_past_the_first_leaves(self):
        # at a = 2 the records above stop at the budget; these run on until
        # the witness, through leaves where `cover` picks what the checker
        # sees (recorded from the same search as the records)
        for name, k, nodes, masks in [
            ("3K3", 4, 23_454, (3, 4, 8, 3, 4, 8, 3, 4, 8)),
            ("K4+C7", 3, 139_741, (1, 2, 4, 0, 1, 2, 4, 1, 2, 4, 0)),
            ("K4+C7", 5, 139_743, (7, 8, 16, 0, 7, 8, 16, 7, 8, 16, 0)),
        ]:
            d = decide(UNIONS_AND_CYCLES[name], 2, k, 10**6)
            assert (d.outcome, d.nodes_expanded, d.witness.masks) == (SAT, nodes, masks)


def union(*graphs):
    g, *rest = graphs
    for h in rest:
        g = disjoint_union(g, h)
    return g


UNIONS_AND_CYCLES = {
    "3K3": union(*[complete(3)] * 3),
    "3K4": union(*[complete(4)] * 3),
    "4K4": union(*[complete(4)] * 4),
    "2C7": union(cycle(7), cycle(7)),
    "K4+C7": union(complete(4), cycle(7)),
    "2C5": union(cycle(5), cycle(5)),
    "P9": path(9),
    **{f"C{n}": cycle(n) for n in range(5, 13)},
}

#: (outcome, nodes, witness masks up to the last nonzero one) of `decide` at
#: k = a+1..a+3 and budget 20,000, recorded from the search that kept every
#: a-set and filtered it on each descent
_ALL_UNKNOWN = [(UNKNOWN, 20_000, None)] * 3
_SAT_FROM_19 = [(SAT, 19, (1, 2, 0, 1, 2)), (SAT, 20, (3, 4, 0, 3, 4)), (SAT, 21, (7, 8, 0, 7, 8))]
_SAT_FROM_35 = [
    (SAT, 35, (1, 2, 0, 0, 1, 2)), (SAT, 36, (3, 4, 0, 0, 3, 4)), (SAT, 37, (7, 8, 0, 0, 7, 8)),
]
PINNED_DECISIONS = {
    ("3K3", 1): _SAT_FROM_19,
    ("3K3", 2): _ALL_UNKNOWN,
    ("3K4", 1): _SAT_FROM_35,
    ("3K4", 2): _ALL_UNKNOWN,
    ("4K4", 1): _SAT_FROM_35,
    ("4K4", 2): _ALL_UNKNOWN,
    ("4K4", 3): _ALL_UNKNOWN,
    ("2C7", 1): _SAT_FROM_19,
    ("2C7", 2): _ALL_UNKNOWN,
    ("2C7", 3): _ALL_UNKNOWN,
    ("K4+C7", 1): _SAT_FROM_35,
    ("K4+C7", 2): _ALL_UNKNOWN,
    ("2C5", 1): [(SAT, 11_083, (1, 2, 0, 0, 0, 1, 2)), (SAT, 1_037, (3, 5, 6, 3, 4)),
                 (SAT, 1_038, (7, 11, 12, 7, 8))],
    ("P9", 1): _SAT_FROM_35,
    ("C5", 1): [(UNSAT, 135, None), (SAT, 45, (3, 5, 6, 3, 4)), (SAT, 46, (7, 11, 12, 7, 8))],
    **{(f"C{n}", 1): _SAT_FROM_19 for n in range(6, 13)},
    ("C11", 2): _ALL_UNKNOWN,
    ("C12", 2): _ALL_UNKNOWN,
}


def padded(record, n):
    """A pinned record with its witness masks padded with 0s to n vertices."""
    outcome, nodes, masks = record
    return outcome, nodes, masks and (*masks, *[0] * (n - len(masks)))


class TestWideGraphs:
    def test_blocking_attack_stops_at_the_first_attack(self):
        # C(64, 7) is about 6.2e8 attacks; the first one already blocks
        assert blocking_attack(Graph(64), 7) == tuple(range(7))

    def test_search_refuses_without_listing_every_attack(self, tmp_path):
        doc = tmp_path / "empty64.edges"
        doc.write_text("64 0\n", encoding="utf-8")
        src = Path(hrcolor.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        cap = 1 << 30  # listing every attack would need far more than 1 GiB

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-m", "hrcolor", "search", "--graph", str(doc),
             "-a", "7", "-k", "8", "--budget", "10", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=limit_memory,
        )
        assert proc.stderr == ""
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["outcome"] == UNSAT and report["nodes_expanded"] == 0


class TestCanonicalSequences:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_count_matches_multiset_coefficient(self, n, k):
        seqs = list(canonical_class_sequences(n, k))
        assert len(seqs) == comb((1 << n) + k - 1, k)
        # nondecreasing, and one representative per multiset
        assert all(all(s[i] <= s[i + 1] for i in range(k - 1)) for s in seqs)
        assert len({tuple(sorted(s)) for s in seqs}) == len(seqs)

    def test_sat_witness_is_the_first_canonical_coloring(self):
        # the search visits nonempty classes in the oracle's order, so its
        # witness is the first sequence both naive checkers accept
        cases = sats = 0
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = Graph(n, edges)
                for a in range(1, min(n, 2) + 1):
                    for k in range(a + 1, 4):
                        expected = first_canonical_coloring(n, edges, a, k)
                        d = decide(g, a, k, 10**6)
                        if expected is None:
                            assert d.outcome == UNSAT, (n, edges, a, k)
                        else:
                            assert d.outcome == SAT, (n, edges, a, k)
                            assert [set(s) for s in d.witness.sets()] == [
                                {i + 1 for i, c in enumerate(expected) if c >> v & 1}
                                for v in range(n)
                            ]
                            sats += 1
                        cases += 1
        assert (cases, sats) == (224, 6)


class TestDecideAgainstRawEnumeration:
    def test_all_graphs_up_to_three_vertices(self):
        for n in (1, 2, 3):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = Graph(n, edges)
                for a in range(1, min(2, n) + 1):
                    for k in (1, 2, 3):
                        got = decide(g, a, k, 10**6)
                        assert got.outcome in (SAT, UNSAT)
                        expected = raw_search_exists(n, edges, a, k)
                        assert (got.outcome == SAT) == (expected is not None)

    def test_random_five_vertex_graphs(self):
        rng = random.Random(77)
        for _ in range(10):
            n = 5
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            for a, k in ((1, 2), (1, 3), (2, 3)):
                got = decide(g, a, k, 10**7)
                raw = raw_search_exists(n, edges, a, k)
                assert (got.outcome == SAT) == (raw is not None)
                if got.outcome == SAT:
                    assert check_highly(g, got.witness, a).highly_resistant


class TestMinColors:
    def test_k_max_must_leave_a_palette_to_decide(self):
        with pytest.raises(ValueError, match=r"k_max must be at least a \+ 1"):
            min_colors(two_k2(), 1, 1)
        with pytest.raises(ValueError, match="attack size"):
            min_colors(two_k2(), 0, 3)

    def test_two_k2(self):
        r = min_colors(two_k2(), 1, 3)
        assert r.status == "found" and r.value == 2

    def test_three_triangles(self):
        g = clique_partition(2).graph
        r = min_colors(g, 2, 4)
        assert r.status == "found" and r.value == 3

    def test_k2_has_no_palette(self):
        r = min_colors(Graph(2, [(0, 1)]), 1, 4)
        assert r.status == "none" and r.value is None
        assert [k for k, _ in r.trail] == [2, 3, 4]

    def test_unknown_when_budget_runs_out(self):
        r = min_colors(two_k2(), 1, 3, budget=3)
        assert r.status == "unknown"


class TestExhaustiveNonexistence:
    def test_three_vertices_all_unsat(self):
        s = exhaustive_nonexistence(3, 1, 4)
        assert s.outcome == "all-unsat"
        assert s.graphs_total == 8 and s.graphs_examined == 8
        # every graph has a blocking attack, so no palette works at all
        assert s.every_palette and s.nodes_expanded == 0

    def test_every_palette_needs_every_graph_blocked(self):
        assert not exhaustive_nonexistence(4, 1, 2).every_palette
        # only the three labelings of 2K2 pass the test, and budget 0
        # leaves each of them unknown
        s = exhaustive_nonexistence(4, 1, 2, budget=0)
        assert s.outcome == "unknown" and s.unknown_count == 3
        assert not s.every_palette

    def test_two_vertices_all_unsat(self):
        s = exhaustive_nonexistence(2, 1, 3)
        assert s.outcome == "all-unsat"

    def test_four_vertices_finds_a_witness(self):
        s = exhaustive_nonexistence(4, 1, 2)
        assert s.outcome == "found-sat"
        assert s.sat_k == 2
        rep = check_highly(s.sat_graph, s.sat_witness, 1)
        assert rep.highly_resistant

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="n <= 6"):
            exhaustive_nonexistence(7, 1, 2)

    def test_k_max_validated(self):
        with pytest.raises(ValueError):
            exhaustive_nonexistence(3, 1, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_vertex_count_checked_before_attack_size(self, n):
        with pytest.raises(ValueError, match="vertex count n must be at least 1"):
            exhaustive_nonexistence(n, 1, 2)

    def test_negative_budget_refused_even_when_every_graph_is_blocked(self):
        # at n = 3, a = 1 every graph is blocked, so decide never runs
        with pytest.raises(ValueError, match="budget must be non-negative"):
            exhaustive_nonexistence(3, 1, 2, budget=-5)


def complement_color_sets(n: int, a: int) -> tuple[int, list[set[int]]]:
    """The complement coloring: one color per a-set X, in rank order, on
    every vertex outside X."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for color, attack in enumerate(combinations(range(n), a), start=1):
        for v in range(n):
            if v not in attack:
                sets[v].add(color)
    return comb(n, a), sets


def isomorphism_key(n: int, edges: list[tuple[int, int]]) -> tuple:
    """The least relabeled edge list over all vertex permutations."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in permutations(range(n))
    )


def naive_blocking_attack(n: int, edges: list[tuple[int, int]], a: int):
    """The first a-attack in rank order that leaves only components of at
    most a vertices, by the naive flood fill, or None."""
    return next(
        (x for x in combinations(range(n), a)
         if all(len(c) <= a for c in naive_components(*_attacked(n, edges, x)))),
        None,
    )


class TestExistenceCriterion:
    """A graph admits a highly a-resistant multicoloring for some palette
    iff every a-attack leaves a component with more than a vertices."""

    def test_every_labeled_graph_up_to_five_vertices_matches_the_naive_scan(self):
        cases = 0
        for n in range(1, 6):
            for bits in range(1 << n * (n - 1) // 2):
                g = from_pair_bits(n, bits)
                edges = list(g.edges())
                for a in range(1, n + 1):
                    assert blocking_attack(g, a) == naive_blocking_attack(n, edges, a), (
                        n, edges, a)
                    cases += 1
        assert cases == 5405

    def test_relabeled_catalog_graphs_match_the_naive_scan(self):
        # at the design size every catalog graph passes; one attacker more
        # blocks it, so both outcomes of the walk are compared
        checked = 0
        for seed, inst in enumerate(catalog()):
            n = inst.graph.n
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in inst.graph.edges()]
            g = Graph(n, edges)
            for a in (inst.attackers, inst.attackers + 1):
                if comb(n, a) > 15_000:
                    continue
                assert blocking_attack(g, a) == naive_blocking_attack(n, edges, a), (
                    inst.name, a)
                checked += 1
        assert checked == 10

    @pytest.mark.parametrize("a", [5, 6, 7])
    def test_clique_partition_settles_in_a_plus_one_floods(self, monkeypatch, a):
        # C(64, 7) is about 6.2e8 attacks; a+1 disjoint cliques, each one
        # whole component, settle the walk
        floods = []
        real = search._walk

        def counting(g, a, flood):
            def counted(survivors):
                floods.append(survivors)
                return flood(survivors)
            return real(g, a, counted)

        monkeypatch.setattr(search, "_walk", counting)
        assert blocking_attack(clique_partition(a).graph, a) is None
        assert 0 < len(floods) <= a + 1

    def test_every_labeled_graph_up_to_four_vertices(self):
        raw: dict[tuple, list[int] | None] = {}  # the raw search per shape
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = Graph(n, edges)
                for a in range(1, n + 1):
                    expected = naive_blocking_attack(n, edges, a)
                    attack = blocking_attack(g, a)
                    assert attack == expected, (n, edges, a)
                    d = decide(g, a, a + 1, 0)
                    if attack is None:
                        assert d.outcome == UNKNOWN
                        k, sets = complement_color_sets(n, a)
                        assert naive_check_hr(n, edges, k, sets, a)[0], (n, edges, a)
                        assert naive_check_resistant(n, edges, k, sets, a)[0], (n, edges, a)
                        continue
                    assert d.outcome == UNSAT and d.nodes_expanded == 0
                    for k in (a + 1, a + 2):
                        if (1 << k) ** n > 1 << 16:
                            continue
                        # the raw search does not depend on vertex labels
                        key = (isomorphism_key(n, edges), a, k)
                        if key not in raw:
                            raw[key] = raw_search_exists(n, edges, a, k)
                        assert raw[key] is None, (n, edges, a, k)

    def test_catalog_instances_at_their_design_size(self):
        checked = 0
        for inst in catalog():
            n, a = inst.graph.n, inst.attackers
            assert blocking_attack(inst.graph, a) is None, inst.name
            if comb(n, a) > 15_000:
                continue  # clique-partition:5 would need 376,992 colors
            k, sets = complement_color_sets(n, a)
            kappa = Multicoloring.from_sets(k, [sorted(s) for s in sets])
            assert check_highly(inst.graph, kappa, a).highly_resistant, inst.name
            checked += 1
        assert checked == 6

    @pytest.mark.parametrize("g, a", [
        (cycle(7), 3),
        (Graph(64), 7),
        (clique_partition(5).graph, 6),
    ], ids=["C7@3", "isolated-64@7", "clique-partition:5@6"])
    def test_decide_settles_a_blocked_graph_without_listing_attacks(
        self, monkeypatch, g, a
    ):
        def refuse(*args):
            raise AssertionError("decide listed the attacks of a blocked graph")

        monkeypatch.setattr(search, "combinations", refuse)
        assert blocking_attack(g, a) is not None
        for budget in (0, 10**6):
            d = decide(g, a, a + 1, budget)
            assert d.outcome == UNSAT and d.nodes_expanded == 0, budget

    def test_decide_at_budget_zero_is_the_naive_blocking_scan_on_five_vertices(self):
        # blocked graphs end unsat and the rest unknown, both with 0 nodes
        cases = 0
        for bits in range(1 << 10):
            g = from_pair_bits(5, bits)
            edges = list(g.edges())
            for a in range(1, 6):
                d = decide(g, a, a + 1, 0)
                blocked = naive_blocking_attack(5, edges, a) is not None
                assert d.outcome == (UNSAT if blocked else UNKNOWN), (edges, a)
                assert d.nodes_expanded == 0
                cases += 1
        assert cases == 5120


def table_row(a, n):
    """The table row whose attack size is a and whose n range holds n."""
    (row,) = [
        r for r in k_table(4)
        if r.attackers == a and r.n_lo <= n and (r.n_hi is None or n <= r.n_hi)
    ]
    return row


def min_colors_by_decide(g, a, k_max, budget):
    """`min_colors` composed from one public `decide` per palette size."""
    trail = []
    for k in range(a + 1, k_max + 1):
        trail.append((k, decide(g, a, k, budget)))
        if trail[-1][1].outcome == SAT:
            break
    unknown = any(d.outcome == UNKNOWN for _, d in trail)
    k, d = trail[-1]
    if d.outcome == SAT and not unknown:
        return MinColorsResult("found", k, tuple(trail))
    return MinColorsResult("unknown" if unknown else "none", None, tuple(trail))


def sweep_per_graph(n, a, k_max, budget, scan):
    """`exhaustive_nonexistence` with nothing settled in bulk: every labeled
    graph g is built, and `scan(g)` returns whether g is blocked and its
    palette trail."""
    total = 1 << comb(n, 2)
    nodes = unknown = 0
    every_palette = True
    sat = None
    for bits in range(total):
        g = from_pair_bits(n, bits)
        blocked, trail = scan(g)
        every_palette &= blocked
        nodes += sum(d.nodes_expanded for _, d in trail)
        unknown += sum(d.outcome == UNKNOWN for _, d in trail)
        if trail and trail[-1][1].outcome == SAT:
            k, d = trail[-1]
            sat = (bits + 1, g, k, d.witness)
            break
    examined, sat_graph, sat_k, witness = sat or (total, None, None, None)
    outcome = "found-sat" if sat else "unknown" if unknown else "all-unsat"
    return NonexistenceSummary(
        outcome, n, a, k_max, budget, total, examined, sat_graph, sat_k, witness,
        unknown, nodes, every_palette,
    )


def sweep_by_decide(n, a, k_max, budget):
    """`exhaustive_nonexistence` composed from `min_colors_by_decide`."""
    def scan(g):
        blocked = blocking_attack(g, a) is not None
        return blocked, min_colors_by_decide(g, a, k_max, budget).trail
    return sweep_per_graph(n, a, k_max, budget, scan)


def sweep_by_set_up(n, a, k_max, budget):
    """`exhaustive_nonexistence` as one set-up and one palette scan per
    graph, as the sweep ran before it settled graphs in bulk."""
    def scan(g):
        setup = search._attack_lists(g, a)
        if setup is None:
            return True, ()
        return False, search._scan_palettes(g, a, k_max, budget, setup).trail
    return sweep_per_graph(n, a, k_max, budget, scan)


def first_attack_open(g, a):
    """Whether the attack 0..a-1 leaves an oracle component of more than a
    vertices."""
    comps = naive_components(*_attacked(g.n, list(g.edges()), tuple(range(a))))
    return any(len(c) > a for c in comps)


class TestSharedSetUp:
    """`min_colors` and sweeps build a graph's attack lists once and must
    answer as one `decide` per palette size does."""

    def test_set_up_is_built_once_per_graph(self, monkeypatch):
        walks = count_calls(monkeypatch, "blocking_attack")
        listings = count_calls(monkeypatch, "combinations")
        r = min_colors(clique_partition(2).graph, 2, 5, 0)
        assert [k for k, _ in r.trail] == [3, 4, 5]
        assert len(walks) == 1 and len(listings) == 1
        for n, a, k_max in ((4, 1, 3), (5, 1, 3), (5, 2, 3)):
            walks.clear()
            s = exhaustive_nonexistence(n, a, k_max)
            # the sweep settles a graph whose first attack leaves no
            # component of more than a vertices without walking it
            graphs = (from_pair_bits(n, bits) for bits in range(s.graphs_examined))
            assert [g for g, _ in walks] == [g for g in graphs if first_attack_open(g, a)]

    def test_min_colors_is_decide_per_palette(self):
        for n in range(1, 5):
            for bits in range(1 << comb(n, 2)):
                g = from_pair_bits(n, bits)
                for a in range(1, n + 1):
                    for k_max in range(a + 1, a + 4):
                        for budget in (0, 3, 50, 10**6):
                            assert min_colors(g, a, k_max, budget) == min_colors_by_decide(
                                g, a, k_max, budget
                            ), (n, bits, a, k_max, budget)

    def test_sweep_is_decide_per_palette(self):
        for n in range(1, 5):
            for a in range(1, n + 1):
                for k_max in range(a + 1, a + 4):
                    for budget in (0, 3, 50, 10**6):
                        assert exhaustive_nonexistence(n, a, k_max, budget) == sweep_by_decide(
                            n, a, k_max, budget
                        ), (n, a, k_max, budget)


class TestBulkSettledSweeps:
    """Sweeps settle graphs blocked by their first attack in bulk and must
    answer as a sweep that builds and tests every graph does."""

    def test_sweep_is_one_set_up_per_graph(self):
        for n in range(1, 6):
            for a in range(1, n + 1):
                for k_max in (a + 1, a + 2):
                    for budget in (0, 3, 10**6):
                        assert exhaustive_nonexistence(n, a, k_max, budget) == sweep_by_set_up(
                            n, a, k_max, budget
                        ), (n, a, k_max, budget)
        for a in range(1, 7):
            assert exhaustive_nonexistence(6, a, a + 1) == sweep_by_set_up(6, a, a + 1, 10**6), a

    def test_open_graphs_ascend_and_match_the_oracle(self):
        # ascending order keeps the first sat graph, and graphs_examined
        for n in range(1, 7):
            for a in range(1, n + 1):
                want = [bits for bits in range(1 << comb(n, 2))
                        if first_attack_open(from_pair_bits(n, bits), a)]
                assert list(search._open_graphs(n, a)) == want, (n, a)

    @pytest.mark.parametrize("n, a, k_max, builds, walks", [
        (5, 2, 3, 16, 8),
        (6, 3, 4, 8, 0),
        (6, 2, 3, 999, None),
    ])
    def test_work_is_bounded(self, monkeypatch, n, a, k_max, builds, walks):
        built = count_calls(monkeypatch, "from_pair_bits")
        walked = count_calls(monkeypatch, "blocking_attack")
        s = exhaustive_nonexistence(n, a, k_max)
        assert s.outcome == "all-unsat" and s.graphs_examined == 1 << comb(n, 2)
        assert len(built) <= builds
        assert walks is None or len(walked) <= walks

    def test_no_graph_is_built_when_the_first_attack_leaves_at_most_a_vertices(
        self, monkeypatch
    ):
        # n - a <= a: the attack 0..a-1 leaves at most a vertices, so it
        # blocks every graph
        built = count_calls(monkeypatch, "from_pair_bits")
        for n in range(1, 7):
            for a in range(max(1, (n + 1) // 2), n + 1):
                s = exhaustive_nonexistence(n, a, a + 1)
                assert built == [], (n, a)
                assert (s.outcome, s.every_palette, s.nodes_expanded) == ("all-unsat", True, 0)
                assert s.graphs_examined == s.graphs_total == 1 << comb(n, 2)

    def test_cli_sweep_at_six_vertices(self, capsys):
        rc = main(["search", "--nonexistence", "-n", "6", "-a", "3", "--kmax", "4",
                   "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert obj["outcome"] == "all-unsat" and obj["every_palette"] is True


class TestPaletteBound:
    """Palettes stop at the codec's `MAX_COLORS`, so that a sat witness is
    a document it accepts and `--kmax` cannot run without end."""

    def test_over_the_bound_is_refused(self):
        with pytest.raises(ValueError, match="palette size must be at most 4096, got 4097"):
            decide(two_k2(), 1, 4097, 10)
        with pytest.raises(ValueError, match="k_max must be at most 4096, got 4097"):
            min_colors(cycle(7), 3, 4097)
        with pytest.raises(ValueError, match="k_max must be at most 4096, got 4097"):
            exhaustive_nonexistence(3, 1, 4097)

    def test_the_bound_itself_is_accepted(self):
        d = decide(two_k2(), 1, 4096, 10)
        assert d.outcome == UNKNOWN and d.nodes_expanded == 10
        r = min_colors(cycle(7), 3, 4096)
        assert r.status == "none" and len(r.trail) == 4093
        s = exhaustive_nonexistence(3, 1, 4096)
        assert s.outcome == "all-unsat" and s.every_palette


class TestKTable:
    def test_known_rows(self):
        # the constructions prove the upper bounds; the lower bounds are cited
        row = table_row(3, 14)
        assert row.value == 7 and row.proven_by == ("construction", "paper-citation")
        row = table_row(3, 16)
        assert row.value == 4
        row = table_row(4, 20)
        assert row.infinite and row.proven_by == ("paper-citation",)
        row = table_row(4, 21)
        assert row.value == 10 and row.instance_name == "paper-21"
        assert row.proven_by == ("construction", "paper-citation")
        row = table_row(1, 3)
        assert row.infinite
        assert set(row.proven_by) == {"exhaustive-search", "paper-citation"}
        for n in (22, 24):
            row = table_row(4, n)
            assert (row.n_lo, row.n_hi, row.value, row.infinite) == (22, 24, None, False)
            assert "between 5 and 10" in row.note
        row = table_row(4, 25)
        assert row.value == 5 and row.n_hi is None
        assert row.proven_by == ("construction",) and row.instance_name == "clique-partition:4"

    def test_max_a_filter_and_bounds(self):
        assert all(r.attackers <= 2 for r in k_table(2))
        with pytest.raises(ValueError):
            k_table(5)
        with pytest.raises(ValueError):
            k_table(0)

    def test_rows_recertify(self):
        for row in k_table(4):
            assert certify_table_row(row), row

    def test_exhaustive_rows_need_every_palette(self, monkeypatch):
        # an all-unsat sweep bounded by k_max does not certify an infinite row
        real = search.exhaustive_nonexistence

        def palette_bounded(*args, **kwargs):
            return replace(real(*args, **kwargs), every_palette=False)

        row = table_row(1, 3)
        assert certify_table_row(row)
        monkeypatch.setattr(search, "exhaustive_nonexistence", palette_bounded)
        assert not certify_table_row(row)
