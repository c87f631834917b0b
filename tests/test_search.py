import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import hrcolor
from hrcolor import search
from hrcolor.checker import check_highly, check_hr
from hrcolor.coloring import Multicoloring, from_class_masks
from hrcolor.constructions import catalog, clique_partition
from hrcolor.graph import Graph, complete, cycle, from_pair_bits
from hrcolor.search import (
    SAT,
    UNKNOWN,
    UNSAT,
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


def two_k2():
    return Graph(4, [(0, 1), (2, 3)])


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

    def test_clique_partition_two(self):
        d = decide(clique_partition(2).graph, 2, 3, 10**6)
        assert d.outcome == SAT and d.nodes_expanded == 23_453
        assert d.witness.masks == (1, 2, 4, 1, 2, 4, 1, 2, 4)

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


class TestExistenceCriterion:
    """A graph admits a highly a-resistant multicoloring for some palette
    iff every a-attack leaves a component with more than a vertices."""

    def test_every_labeled_graph_up_to_four_vertices(self):
        raw: dict[tuple, list[int] | None] = {}  # the raw search per shape
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = Graph(n, edges)
                for a in range(1, n + 1):
                    expected = next(
                        (x for x in combinations(range(n), a)
                         if all(len(c) <= a for c in naive_components(*_attacked(n, edges, x)))),
                        None,
                    )
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
            if comb(n, a) > 15_000:
                continue  # clique-partition:5 would need 376,992 colors
            assert blocking_attack(inst.graph, a) is None, inst.name
            k, sets = complement_color_sets(n, a)
            kappa = Multicoloring.from_sets(k, [sorted(s) for s in sets])
            assert check_highly(inst.graph, kappa, a).highly_resistant, inst.name
            checked += 1
        assert checked == 6


def table_row(a, n):
    """The table row whose attack size is a and whose n range holds n."""
    (row,) = [
        r for r in k_table(4)
        if r.attackers == a and r.n_lo <= n and (r.n_hi is None or n <= r.n_hi)
    ]
    return row


class TestKTable:
    def test_known_rows(self):
        row = table_row(3, 14)
        assert row.value == 7 and row.proven_by == ("construction",)
        row = table_row(3, 16)
        assert row.value == 4
        row = table_row(4, 20)
        assert row.infinite and row.proven_by == ("paper-citation",)
        row = table_row(4, 21)
        assert row.value == 10 and row.instance_name == "paper-21"
        row = table_row(1, 3)
        assert row.infinite
        assert set(row.proven_by) == {"exhaustive-search", "paper-citation"}
        row = table_row(4, 22)
        assert row.value is None and not row.infinite

    def test_max_a_filter_and_bounds(self):
        assert all(r.attackers <= 2 for r in k_table(2))
        with pytest.raises(ValueError):
            k_table(5)
        with pytest.raises(ValueError):
            k_table(0)

    def test_rows_recertify(self):
        for row in k_table(4):
            if row.instance_name == "paper-21" or row.attackers >= 4:
                continue  # certified in the acceptance suite
            assert certify_table_row(row)

    def test_exhaustive_rows_need_every_palette(self, monkeypatch):
        # an all-unsat sweep bounded by k_max does not certify an infinite row
        real = search.exhaustive_nonexistence

        def palette_bounded(*args, **kwargs):
            return replace(real(*args, **kwargs), every_palette=False)

        row = table_row(1, 3)
        assert certify_table_row(row)
        monkeypatch.setattr(search, "exhaustive_nonexistence", palette_bounded)
        assert not certify_table_row(row)
