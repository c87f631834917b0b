"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import os
import random
import time
from itertools import combinations
from math import comb

from hrcolor.checker import check_highly, check_hr, check_resistant
from hrcolor.cli import main
from hrcolor.codec import decode_instance, encode_instance
from hrcolor.coloring import Multicoloring
from hrcolor.constructions import (
    ColoredInstance,
    c7_pair,
    c8c8p5,
    catalog,
    clique_partition,
)
from hrcolor.graph import Graph, disjoint_union
from hrcolor.lemmas import LEMMA_IDS, run_lemma
from hrcolor.search import SAT, decide, exhaustive_nonexistence

from oracles import (
    naive_check_hr,
    naive_check_resistant,
    random_color_sets,
    random_edges,
    raw_search_exists,
)


def _elapsed(t0):
    return time.perf_counter() - t0


def test_criterion_01_pair_of_seven_cycles_certifies():
    inst = c7_pair()
    t0 = time.perf_counter()
    rep = check_highly(inst.graph, inst.coloring, 3)
    dt = _elapsed(t0)
    assert rep.highly_resistant
    assert rep.attack_sets_examined == comb(14, 3) == 364
    assert dt < 1.0
    print(f"criterion 1: PASS paper-14 highly 3-resistant, 364 attack sets, {dt:.3f}s")


def test_criterion_02_big_instance_certifies():
    inst = c8c8p5()
    t0 = time.perf_counter()
    rep = check_highly(inst.graph, inst.coloring, 4)
    dt = _elapsed(t0)
    assert rep.highly_resistant
    assert rep.attack_sets_examined == comb(21, 4) == 5985
    assert dt < 1.0
    print(f"criterion 2: PASS paper-21 highly 4-resistant, 5985 attack sets, {dt:.3f}s")


def test_criterion_03_clique_partition_family():
    t0 = time.perf_counter()
    examined = {}
    for a in range(1, 6):
        inst = clique_partition(a)
        assert inst.graph.n == (a + 1) ** 2
        assert inst.coloring.palette_size == a + 1
        rep = check_highly(inst.graph, inst.coloring, a)
        assert rep.highly_resistant
        examined[a] = rep.attack_sets_examined
    dt = _elapsed(t0)
    assert examined[5] == comb(36, 5) == 376992
    assert dt < 30.0
    print(f"criterion 3: PASS clique partitions a=1..5, C(36,5)={examined[5]}, {dt:.2f}s")


def test_criterion_04_bounded_nonexistence():
    t0 = time.perf_counter()
    s3 = exhaustive_nonexistence(3, 1, 4)
    assert s3.outcome == "all-unsat" and s3.graphs_total == 8
    s2 = exhaustive_nonexistence(2, 1, 3)
    assert s2.outcome == "all-unsat"
    s4 = exhaustive_nonexistence(4, 1, 2)
    assert s4.outcome == "found-sat"
    assert check_highly(s4.sat_graph, s4.sat_witness, 1).highly_resistant
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        "criterion 4: PASS sweeps: n=3 all-unsat over 8 graphs, n=2 all-unsat, "
        f"n=4 found-sat, {dt:.2f}s"
    )


def test_criterion_05_search_matches_raw_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(n, edges)
            for a in range(1, min(2, n) + 1):
                for k in range(1, 4):
                    got = decide(g, a, k, 10**6)
                    assert got.outcome in ("sat", "unsat")
                    raw = raw_search_exists(n, edges, a, k)
                    assert (got.outcome == SAT) == (raw is not None), (n, edges, a, k)
                    if got.outcome == SAT:
                        assert check_highly(g, got.witness, a).highly_resistant
                    checked += 1
    dt = _elapsed(t0)
    assert dt < 60.0
    print(f"criterion 5: PASS {checked} (graph, a, k) cases match raw enumeration, {dt:.2f}s")


def test_criterion_06_checker_matches_naive_reference():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 10)
        edges = random_edges(rng, n)
        k = rng.randint(1, 5)
        color_sets = random_color_sets(rng, n, k)
        a = rng.randint(1, min(3, n))
        g = Graph(n, edges)
        kappa = Multicoloring.from_sets(k, [sorted(s) for s in color_sets])

        hr_ok, hr_wit = check_hr(g, kappa, a)
        exp_ok, exp_wit = naive_check_hr(n, edges, k, color_sets, a)
        assert (hr_ok, None if hr_wit is None else hr_wit.vertices()) == (exp_ok, exp_wit)

        res_ok, res_wit = check_resistant(g, kappa, a)
        exp_ok, exp_wit = naive_check_resistant(n, edges, k, color_sets, a)
        assert (res_ok, None if res_wit is None else res_wit.vertices()) == (exp_ok, exp_wit)
    dt = _elapsed(t0)
    print(f"criterion 6: PASS 1000 random instances match the naive reference, {dt:.2f}s")


def test_criterion_07_lemma_suites():
    t0 = time.perf_counter()
    for lemma_id in LEMMA_IDS:
        t1 = time.perf_counter()
        report = run_lemma(lemma_id, trials=100_000, seed=0)
        assert report.violations == 0, f"lemma {lemma_id} violated: {report.first_violation}"
        print(f"  lemma {lemma_id}: 100000 trials, 0 violations, {_elapsed(t1):.1f}s")
    dt = _elapsed(t0)
    assert dt < 300.0
    print(f"criterion 7: PASS all 7 suites clean at seed 0, {dt:.1f}s total")


def _extension_plan():
    # steps per chain tuned so the expensive attack sizes stay cheap
    return [
        (clique_partition(1), 350, 2),   # (base, steps, vertex step interval)
        (clique_partition(2), 250, 3),
        (clique_partition(3), 150, 10),
        (c7_pair(), 110, 10),
        (clique_partition(4), 70, 10),
        (c8c8p5(), 61, 10),
        (clique_partition(5), 2, 0),     # palette extensions only
    ]


def _with_empty_vertex(g, kappa):
    """One more vertex, isolated and colorless."""
    return disjoint_union(g, Graph(1)), Multicoloring(kappa.palette_size, kappa.masks + (0,))


def _with_universal_color(kappa):
    """A new color on every vertex."""
    k = kappa.palette_size
    return Multicoloring(k + 1, [m | 1 << k for m in kappa.masks])


def test_criterion_08_extension_transforms_preserve_the_verdict():
    t0 = time.perf_counter()
    passing = 0
    vertex_steps = 0
    palette_steps = 0
    for base, steps, vertex_every in _extension_plan():
        passing += 1  # the base instance is certified by criteria 1-3
        g, kappa, a = base.graph, base.coloring, base.attackers
        for step in range(1, steps + 1):
            if vertex_every and step % vertex_every == 0:
                g, kappa = _with_empty_vertex(g, kappa)
                vertex_steps += 1
            else:
                kappa = _with_universal_color(kappa)
                palette_steps += 1
            rep = check_highly(g, kappa, a)
            assert rep.highly_resistant, (base.name, step)
            passing += 1
    dt = _elapsed(t0)
    assert passing == 1000
    print(
        f"criterion 8: PASS 1000 passing instances ({vertex_steps} vertex extensions, "
        f"{palette_steps} palette extensions), {dt:.1f}s"
    )


def test_criterion_09_catalog_passes_below_its_attack_size():
    t0 = time.perf_counter()
    for inst in catalog():
        for b in range(1, inst.attackers):
            rep = check_highly(inst.graph, inst.coloring, b)
            assert rep.highly_resistant, (inst.name, b)
    dt = _elapsed(t0)
    print(f"criterion 9: PASS every catalog entry passes at all smaller attack sizes, {dt:.1f}s")


def test_criterion_10_codec_round_trips():
    t0 = time.perf_counter()
    for inst in catalog():
        text = encode_instance(inst)
        assert decode_instance(text) == inst
        assert encode_instance(inst) == text
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(0, 12)
        k = rng.randint(1, 10)
        g = Graph(n, random_edges(rng, n))
        kappa = Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
        inst = ColoredInstance(
            name=f"r{rng.randint(0, 9999)}" if rng.random() < 0.5 else None,
            graph=g,
            coloring=kappa,
            attackers=rng.randint(1, n) if n and rng.random() < 0.5 else None,
        )
        first = encode_instance(inst)
        second = encode_instance(inst)
        assert first == second
        assert decode_instance(first) == inst
    dt = _elapsed(t0)
    print(f"criterion 10: PASS catalog and 1000 random instances round-trip byte-stably, {dt:.1f}s")


def test_criterion_11_reports_identical_across_thread_counts(tmp_path, capsys):
    t0 = time.perf_counter()
    cases = [(c7_pair(), 3), (c8c8p5(), 4)] + [
        (clique_partition(a), a) for a in range(1, 6)
    ]
    thread_counts = [1, 2, os.cpu_count() or 1]
    for inst, a in cases:
        doc = tmp_path / f"{inst.name}.json"
        doc.write_text(encode_instance(inst), encoding="utf-8")
        rendered = set()
        for t in thread_counts:
            code = main(["check", "--instance", str(doc), "-a", str(a),
                         "--format", "json", "--threads", str(t)])
            out = capsys.readouterr().out
            assert code == 0 and f'"threads": {t}}}' in out
            # the report names its thread count; every other byte must agree
            rendered.add(out.replace(f'"threads": {t}}}', '"threads": 1}').encode("utf-8"))
        assert len(rendered) == 1, inst.name
    dt = _elapsed(t0)
    print(
        f"criterion 11: PASS reports byte-identical at threads={thread_counts}, {dt:.1f}s"
    )
