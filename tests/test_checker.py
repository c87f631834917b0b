import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrcolor import checker
from hrcolor.checker import (
    CheckReport,
    check_highly,
    check_hr,
    check_resistant,
    sample_check,
    substream_seed,
)
from hrcolor.coloring import Multicoloring
from hrcolor.constructions import c7_pair, c8c8p5, clique_partition
from hrcolor.graph import Graph, VertexSet, complete, cycle, disjoint_union

from oracles import (
    _attacked,
    naive_check_hr,
    naive_check_resistant,
    naive_components,
    random_color_sets,
    random_edges,
)


def k2_two_colors():
    return Graph(2, [(0, 1)]), Multicoloring.from_sets(2, [[1], [2]])


def two_k2():
    return Graph(4, [(0, 1), (2, 3)]), Multicoloring.from_sets(2, [[1], [2], [1], [2]])


# (instance, attack sizes) whose scans see few distinct removed masks; each
# runs one size past the instance's design size, where it fails
REPEATING_MASK_CASES = (
    (clique_partition(3), (1, 2, 3, 4)),
    (c7_pair(), (2, 3, 4)),
)


def one_color_instance(rng, n, m, k):
    """n vertices, m random edges and one random color of k on each vertex."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(rng.sample(pairs, m))
    return Graph(n, edges), Multicoloring(k, [1 << rng.randrange(k) for _ in range(n)])


def sparse_random_instances():
    """Random sparse instances: n = 20..30, 3n/2 edges (mean degree 3) and
    nonempty subsets of 3 colors. Almost every removed mask is distinct,
    so resistance verdicts come from the fill and the last full-color part."""
    rng = random.Random(53)
    cases = []
    for n in (20, 23, 26, 30):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, 3 * n // 2))
        kappa = Multicoloring(3, [rng.randrange(1, 8) for _ in range(n)])
        cases.append((Graph(n, edges), kappa))
    return cases


def naive_attack_defeats(n, edges, k, colors, attack):
    """True when no component left by the attack holds every color."""
    survivors, sub_edges = _attacked(n, edges, attack)
    palette = set(range(1, k + 1))
    return all(
        set().union(*(colors[v] for v in comp)) != palette
        for comp in naive_components(survivors, sub_edges)
    )


def assert_report_matches_naive(g, kappa, a):
    """check_highly's verdicts, witnesses and examined count against the
    naive reference."""
    n, edges = g.n, list(g.edges())
    k = kappa.palette_size
    colors = [set(kappa.colors_of(v)) for v in range(n)]
    hr_ok, hr_wit = naive_check_hr(n, edges, k, colors, a)
    res_ok, res_wit = naive_check_resistant(n, edges, k, colors, a)
    if hr_wit is not None and res_wit is not None:
        ranks = list(combinations(range(n), a))
        examined = max(ranks.index(hr_wit), ranks.index(res_wit)) + 1
    else:
        examined = comb(n, a)
    rep = check_highly(g, kappa, a)
    assert (rep.hr_holds, rep.resistant) == (hr_ok, res_ok)
    assert (None if rep.hr_witness is None else rep.hr_witness.vertices()) == hr_wit
    assert (
        None if rep.resistance_witness is None else rep.resistance_witness.vertices()
    ) == res_wit
    assert rep.attack_sets_examined == examined


@pytest.fixture
def fills(monkeypatch):
    """What each call of checker._full_color_part returns, in call order."""
    real = checker._full_color_part
    found = []

    def recording(closed, colors, full, survivors):
        part = real(closed, colors, full, survivors)
        found.append(part)
        return part

    monkeypatch.setattr(checker, "_full_color_part", recording)
    return found


def assert_sample_matches_naive(g, kappa, a, trials, seed, workers=1):
    """sample_check's counts and first failures against a replay of the
    substreams that draws with random.Random.sample and judges each attack
    with the naive reference. Returns the report."""
    n, edges, k = g.n, list(g.edges()), kappa.palette_size
    colors = [set(kappa.colors_of(v)) for v in range(n)]
    palette = set(range(1, k + 1))
    hr_failures = res_failures = 0
    first_hr = first_res = None
    base, extra = divmod(trials, workers)
    for w in range(workers):
        rng = random.Random(substream_seed(seed, w))
        for _ in range(base + (1 if w < extra else 0)):
            attack = tuple(sorted(rng.sample(range(n), a)))
            if set().union(*(colors[u] for u in attack)) == palette:
                hr_failures += 1
                first_hr = first_hr or attack
            if naive_attack_defeats(n, edges, k, colors, attack):
                res_failures += 1
                first_res = first_res or attack
    rep = sample_check(g, kappa, a, trials, seed, workers=workers)
    assert (rep.hr_failures, rep.resistance_failures) == (hr_failures, res_failures)
    assert rep.first_hr_failure == (
        None if first_hr is None else VertexSet.from_vertices(first_hr, n)
    )
    assert rep.first_resistance_failure == (
        None if first_res is None else VertexSet.from_vertices(first_res, n)
    )
    return rep


class TestValidation:
    def test_attack_size_bounds(self):
        g, kappa = k2_two_colors()
        for bad in (0, -1, 3):
            with pytest.raises(ValueError):
                check_hr(g, kappa, bad)

    def test_length_mismatch(self):
        g, _ = k2_two_colors()
        with pytest.raises(ValueError):
            check_hr(g, Multicoloring.from_sets(2, [[1]]), 1)

    def test_empty_palette_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            check_hr(g, Multicoloring(0, [0, 0]), 1)


class TestCheckHr:
    def test_pair_of_seven_cycles_holds_at_three(self):
        inst = c7_pair()
        assert check_hr(inst.graph, inst.coloring, 3) == (True, None)

    def test_k2_fails_at_two(self):
        g, kappa = k2_two_colors()
        ok, witness = check_hr(g, kappa, 2)
        assert not ok
        assert witness == VertexSet.from_vertices([0, 1], 2)

    def test_big_instance_holds_at_four(self):
        inst = c8c8p5()
        assert check_hr(inst.graph, inst.coloring, 4) == (True, None)

    def test_all_empty_coloring_holds(self):
        g = cycle(5)
        kappa = Multicoloring(1, [0] * 5)
        for a in range(1, 6):
            assert check_hr(g, kappa, a) == (True, None)

    def test_witness_is_lexicographically_first(self):
        # vertices 1 and 3 cover {1,2}, and so do 0 and 3; (0,3) comes first
        g = Graph(4, [])
        kappa = Multicoloring.from_sets(2, [[1], [1], [], [2]])
        _, witness = check_hr(g, kappa, 2)
        assert witness.vertices() == (0, 3)


class TestCheckResistant:
    def test_two_k2_resistant_at_one(self):
        g, kappa = two_k2()
        assert check_resistant(g, kappa, 1) == (True, None)

    def test_k2_fails_at_one(self):
        g, kappa = k2_two_colors()
        ok, witness = check_resistant(g, kappa, 1)
        assert not ok
        assert witness.vertices() == (0,)

    def test_pair_of_seven_cycles_resistant_at_three(self):
        inst = c7_pair()
        assert check_resistant(inst.graph, inst.coloring, 3) == (True, None)

    def test_attack_emptying_graph_fails(self):
        g = complete(4)
        kappa = Multicoloring.from_sets(2, [[1], [2], [1], [2]])
        ok, witness = check_resistant(g, kappa, 1)
        assert not ok and witness.vertices() == (0,)


class TestCheckHighly:
    def test_big_instance(self):
        inst = c8c8p5()
        rep = check_highly(inst.graph, inst.coloring, 4)
        assert rep.highly_resistant
        assert rep.attack_sets_examined == 5985

    def test_four_disjoint_k4(self):
        inst = clique_partition(3)
        rep = check_highly(inst.graph, inst.coloring, 3)
        assert rep.highly_resistant
        assert rep.attack_sets_examined == 560

    def test_pair_of_seven_cycles_fails_at_four(self):
        inst = c7_pair()
        rep = check_highly(inst.graph, inst.coloring, 4)
        assert not rep.highly_resistant
        # replay both witnesses through the definitions
        if rep.hr_witness is not None:
            union = 0
            for v in rep.hr_witness:
                union |= inst.coloring.masks[v]
            assert union == (1 << 7) - 1
        if rep.resistance_witness is not None:
            n, edges = inst.graph.n, list(inst.graph.edges())
            colors = [set(s) for s in inst.coloring.sets()]
            attack = rep.resistance_witness.vertices()
            assert naive_attack_defeats(n, edges, 7, colors, attack)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            CheckReport(True, VertexSet(1, 2), True, None, 1)
        with pytest.raises(ValueError):
            CheckReport(True, None, False, None, 1)

    def test_short_circuit_count_is_sequential(self):
        # both conditions fail; examined stops one past the later first failure
        g, kappa = k2_two_colors()
        rep = check_highly(g, kappa, 2)
        assert not rep.hr_holds
        assert not rep.resistant
        assert rep.attack_sets_examined == 1  # the single pair settles both


def disjunction(g, kappa, a_hr, r):
    """The small-graph facts' shape: the hold condition fails at size `a_hr`
    or the coloring is not `r`-resistant."""
    return not check_hr(g, kappa, a_hr)[0] or not check_resistant(g, kappa, r)[0]


class TestLemmaDisjunction:
    def test_colorless_cycle(self):
        g = cycle(7)
        kappa = Multicoloring(6, [0] * 7)
        assert disjunction(g, kappa, 3, 1)

    def test_full_palette_vertex(self):
        g = cycle(7)
        kappa = Multicoloring.from_sets(6, [[1, 2, 3, 4, 5, 6]] + [[]] * 6)
        assert disjunction(g, kappa, 3, 1)

    def test_random_cycle_colorings(self):
        rng = random.Random(11)
        g = cycle(7)
        for _ in range(2000):
            kappa = Multicoloring(6, [rng.getrandbits(6) for _ in range(7)])
            assert disjunction(g, kappa, 3, 1)

    # each check tests the coloring before its size, and check_hr runs
    # first, so the coloring, then a_hr, then r raises the first error
    @pytest.mark.parametrize(
        "n_colored, k, a_hr, r, message",
        [
            (6, 6, 0, 99, "6 entries for a graph on 7 vertices"),
            (7, 0, 0, 99, "at least one color"),
            (7, 6, 0, 99, "1 <= a <= 7, got 0"),
            (7, 6, 8, 0, "1 <= a <= 7, got 8"),
            (7, 6, 3, 0, "1 <= a <= 7, got 0"),
            (7, 6, 3, 8, "1 <= a <= 7, got 8"),
        ],
    )
    def test_errors_keep_their_order(self, n_colored, k, a_hr, r, message):
        kappa = Multicoloring(k, [0] * n_colored)
        with pytest.raises(ValueError, match=message):
            disjunction(cycle(7), kappa, a_hr, r)


class TestSampleCheck:
    def test_passing_instance_has_no_failures(self):
        inst = c8c8p5()
        rep = sample_check(inst.graph, inst.coloring, 4, trials=10**4, seed=0)
        assert rep.hr_failures == 0 and rep.resistance_failures == 0

    def test_always_failing_instance(self):
        g, kappa = k2_two_colors()
        rep = sample_check(g, kappa, 1, trials=10, seed=0)
        assert rep.resistance_failures == 10
        assert rep.first_resistance_failure is not None

    def test_deterministic_replay(self):
        g, kappa = two_k2()
        a = sample_check(g, kappa, 1, trials=500, seed=42)
        b = sample_check(g, kappa, 1, trials=500, seed=42)
        assert a == b

    def test_worker_policy_recorded_and_deterministic(self):
        inst = c7_pair()
        a = sample_check(inst.graph, inst.coloring, 3, trials=200, seed=1, workers=3)
        b = sample_check(inst.graph, inst.coloring, 3, trials=200, seed=1, workers=3)
        assert a == b and a.workers == 3

    def test_substreams_beyond_the_trial_count_cost_nothing(self):
        # workers is only a substream count: no thread is started, and
        # substreams at index >= trials draw nothing
        for inst, a in ((c7_pair(), 4), (clique_partition(2), 2)):
            few = sample_check(inst.graph, inst.coloring, a, trials=3, seed=5, workers=3)
            many = sample_check(inst.graph, inst.coloring, a, trials=3, seed=5, workers=10**9)
            assert many.workers == 10**9
            assert replace(many, workers=3) == few

    def test_trials_validated(self):
        g, kappa = k2_two_colors()
        with pytest.raises(ValueError):
            sample_check(g, kappa, 1, trials=0, seed=0)

    def test_failure_that_does_not_replay_raises(self, monkeypatch):
        g, kappa = k2_two_colors()
        real = checker._full_color_part
        calls = []

        def disagreeing(closed, colors, full, survivors):
            # the single trial is judged truly (it fails); the replay of
            # that failure then finds a full-color part
            calls.append(survivors)
            return real(closed, colors, full, survivors) if len(calls) == 1 else 1

        monkeypatch.setattr(checker, "_full_color_part", disagreeing)
        with pytest.raises(RuntimeError):
            sample_check(g, kappa, 1, trials=1, seed=0)
        assert len(calls) == 2

    def test_matches_a_naive_replay_of_the_substreams(self):
        # random.sample swaps in a pool list up to 21 vertices and rejects
        # repeats above; for a > 5 the switch moves (to 85 vertices at
        # a = 6). Each index is drawn with n.bit_length() bits, one more
        # than n - 1 needs when n is a power of two (16, 64). The boundary
        # instances sit on both sides of these rules and fail both
        # conditions on some draws but not all, so a draw that moves
        # changes a count or a first failure.
        cases = [(g, kappa, a, seed, workers, False)
                 for g, kappa in sparse_random_instances()
                 for a, seed, workers in ((2, 5, 1), (3, 6, 3))]
        rng = random.Random(59)
        for n, m, a in ((16, 24, 3), (21, 31, 3), (22, 33, 3), (64, 1000, 3),
                        (85, 1020, 6), (86, 1032, 6)):
            g, kappa = one_color_instance(rng, n, m, 3 if a == 3 else 4)
            cases += [(g, kappa, a, seed, workers, True)
                      for seed, workers in ((7, 1), (8, 2), (9, 5))]
        for g, kappa, a, seed, workers, boundary in cases:
            rep = assert_sample_matches_naive(g, kappa, a, 400, seed, workers)
            if boundary:
                assert 0 < rep.hr_failures < 400 and 0 < rep.resistance_failures < 400

    def test_part_list_past_its_cap_keeps_the_naive_counts(self, fills):
        # sampled trials at n = 23, a = 2 find more full-color parts than
        # the list keeps, and some of them fail
        g, kappa = sparse_random_instances()[1]
        rep = assert_sample_matches_naive(g, kappa, 2, 2000, 3)
        assert rep.resistance_failures > 0
        assert sum(1 for part in fills if part) > checker._RECENT_PARTS


@st.composite
def colored_instances(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(min_value=1, max_value=4))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << k) - 1), min_size=n, max_size=n
        )
    )
    a = draw(st.integers(min_value=1, max_value=n))
    return n, edges, k, masks, a


@given(colored_instances())
@settings(max_examples=200)
def test_verdicts_and_witnesses_match_the_naive_reference(case):
    n, edges, k, masks, a = case
    g = Graph(n, edges)
    kappa = Multicoloring(k, masks)
    color_sets = [set(kappa.colors_of(v)) for v in range(n)]

    hr_ok, hr_wit = check_hr(g, kappa, a)
    exp_ok, exp_wit = naive_check_hr(n, edges, k, color_sets, a)
    assert (hr_ok, None if hr_wit is None else hr_wit.vertices()) == (exp_ok, exp_wit)

    res_ok, res_wit = check_resistant(g, kappa, a)
    exp_ok, exp_wit = naive_check_resistant(n, edges, k, color_sets, a)
    assert (res_ok, None if res_wit is None else res_wit.vertices()) == (exp_ok, exp_wit)


def test_matches_naive_oracle_on_random_instances():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 10)
        edges = random_edges(rng, n)
        k = rng.randint(1, 5)
        color_sets = random_color_sets(rng, n, k)
        a = rng.randint(1, min(3, n))
        g = Graph(n, edges)
        kappa = Multicoloring.from_sets(k, [sorted(s) for s in color_sets])

        hr_ok, hr_wit = check_hr(g, kappa, a)
        exp_ok, exp_wit = naive_check_hr(n, edges, k, color_sets, a)
        assert hr_ok == exp_ok
        assert (None if hr_wit is None else hr_wit.vertices()) == exp_wit

        res_ok, res_wit = check_resistant(g, kappa, a)
        exp_ok, exp_wit = naive_check_resistant(n, edges, k, color_sets, a)
        assert res_ok == exp_ok
        assert (None if res_wit is None else res_wit.vertices()) == exp_wit


def test_first_cover_matches_the_naive_hold_check():
    # the color-only scan behind check_hr, lemma_disjunction and run_lemma:
    # verdict and rank-first witness, with empty color sets, k = 1, a = 1
    # and a = n among the draws
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 9)
        k = rng.choice((1, rng.randint(1, 5)))
        color_sets = random_color_sets(rng, n, k, rng.choice((0.0, 0.25, 0.5, 0.75)))
        masks = [sum(1 << (c - 1) for c in s) for s in color_sets]
        for a in sorted({1, n, rng.randint(1, n)}):
            cover = checker._first_cover(masks, (1 << k) - 1, a)
            assert (cover is None, cover) == naive_check_hr(n, [], k, color_sets, a)


def test_catalog_instances_agree_with_the_naive_reference():
    for inst, a in ((c7_pair(), 3), (c8c8p5(), 4)):
        n, edges = inst.graph.n, list(inst.graph.edges())
        k = inst.coloring.palette_size
        colors = [set(inst.coloring.colors_of(v)) for v in range(n)]
        assert naive_check_hr(n, edges, k, colors, a) == (True, None)
        assert naive_check_resistant(n, edges, k, colors, a) == (True, None)
    for inst, sizes in REPEATING_MASK_CASES:
        for a in sizes:
            assert_report_matches_naive(inst.graph, inst.coloring, a)


def test_sparse_random_instances_agree_with_the_naive_reference():
    for g, kappa in sparse_random_instances():
        for a in (2, 3):
            assert_report_matches_naive(g, kappa, a)


def test_part_list_past_its_cap_keeps_the_naive_verdicts(fills):
    # the exhaustive scan at n = 26, a = 3 finds more full-color parts than
    # the list keeps, and passes
    g, kappa = sparse_random_instances()[2]
    assert_report_matches_naive(g, kappa, 3)
    assert all(fills) and len(fills) > checker._RECENT_PARTS


def _union(masks, vertices):
    cu = 0
    for v in vertices:
        cu |= masks[v]
    return cu


@st.composite
def survivor_cases(draw):
    n, edges, k, masks, _ = draw(colored_instances(max_n=12))
    survivors = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, edges, k, masks, survivors


@given(survivor_cases())
@settings(max_examples=300)
def test_full_color_part_is_a_connected_full_color_set_of_survivors(case):
    n, edges, k, masks, survivors = case
    g = Graph(n, edges)
    full = (1 << k) - 1
    part = checker._full_color_part(g.closed_masks, tuple(masks), full, survivors)

    alive = [v for v in range(n) if survivors >> v & 1]
    alive_edges = [(u, v) for u, v in edges if survivors >> u & 1 and survivors >> v & 1]
    expected = any(
        _union(masks, comp) == full for comp in naive_components(alive, alive_edges)
    )
    assert (part != 0) == expected
    if part:
        assert part & ~survivors == 0
        inside = [v for v in range(n) if part >> v & 1]
        inside_edges = [(u, v) for u, v in edges if part >> u & 1 and part >> v & 1]
        assert len(naive_components(inside, inside_edges)) == 1
        assert _union(masks, inside) == full


def test_downward_monotone_in_attack_size():
    for inst in (clique_partition(2), clique_partition(3), c7_pair()):
        a = inst.attackers
        assert check_highly(inst.graph, inst.coloring, a).highly_resistant
        for b in range(1, a):
            rep = check_highly(inst.graph, inst.coloring, b)
            assert rep.highly_resistant
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = Graph(n, random_edges(rng, n))
        k = rng.randint(1, 4)
        kappa = Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
        a = rng.randint(1, n)
        if check_resistant(g, kappa, a)[0]:
            for b in range(1, a):
                assert check_resistant(g, kappa, b)[0]
        if check_hr(g, kappa, a)[0]:
            for b in range(1, a):
                assert check_hr(g, kappa, b)[0]


def with_isolated_vertex(g):
    return disjoint_union(g, Graph(1))


def with_empty_vertex(kappa):
    return Multicoloring(kappa.palette_size, kappa.masks + (0,))


def with_universal_color(kappa):
    """A new color on every vertex."""
    k = kappa.palette_size
    return Multicoloring(k + 1, [m | 1 << k for m in kappa.masks])


def induced_subgraph(g, keep):
    """The subgraph induced on the sorted vertex list `keep`, relabeled
    0..len(keep)-1 in order."""
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph(
        len(keep),
        [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
    )


def test_extension_transforms_preserve_the_verdict():
    for inst in (clique_partition(1), clique_partition(2), c7_pair()):
        g, kappa, a = inst.graph, inst.coloring, inst.attackers
        assert check_highly(g, kappa, a).highly_resistant
        assert check_highly(
            with_isolated_vertex(g), with_empty_vertex(kappa), a
        ).highly_resistant
        assert check_highly(g, with_universal_color(kappa), a).highly_resistant


def test_every_color_used_and_small_palette_forces_hr_failure():
    # whenever each color appears somewhere and k <= a, some attack covers all
    rng = random.Random(37)
    found = 0
    while found < 100:
        n = rng.randint(1, 8)
        k = rng.randint(1, min(4, n))
        kappa = Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
        used = 0
        for m in kappa.masks:
            used |= m
        if used != (1 << k) - 1:
            continue
        found += 1
        g = Graph(n, random_edges(rng, n))
        a = rng.randint(k, n)
        ok, witness = check_hr(g, kappa, a)
        assert not ok and witness is not None


def test_hr_inherited_by_induced_subgraphs():
    rng = random.Random(41)
    found = 0
    while found < 60:
        n = rng.randint(2, 8)
        k = rng.randint(2, 5)
        g = Graph(n, random_edges(rng, n))
        kappa = Multicoloring(k, [rng.getrandbits(k) & rng.getrandbits(k) for _ in range(n)])
        a = rng.randint(1, n)
        if not check_hr(g, kappa, a)[0]:
            continue
        found += 1
        keep = [v for v in range(n) if rng.random() < 0.7]
        if len(keep) < a:
            keep = sorted(rng.sample(range(n), a))
        sub = induced_subgraph(g, sorted(keep))
        sub_kappa = Multicoloring(k, [kappa.masks[v] for v in sorted(keep)])
        assert check_hr(sub, sub_kappa, a)[0]


def test_relabeling_invariance():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = random_edges(rng, n)
        k = rng.randint(1, 4)
        g = Graph(n, edges)
        kappa = Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
        a = rng.randint(1, n)
        rep = check_highly(g, kappa, a)

        perm = list(range(n))
        rng.shuffle(perm)
        pg = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        pmasks = [0] * n
        for v in range(n):
            pmasks[perm[v]] = kappa.masks[v]
        pkappa = Multicoloring(k, pmasks)
        prep = check_highly(pg, pkappa, a)
        assert rep.hr_holds == prep.hr_holds
        assert rep.resistant == prep.resistant

        # the image of a witness still witnesses the failure
        if rep.hr_witness is not None:
            image = VertexSet.from_vertices([perm[v] for v in rep.hr_witness], n)
            union = 0
            for v in image:
                union |= pkappa.masks[v]
            assert union == (1 << k) - 1
        if rep.resistance_witness is not None:
            image = VertexSet.from_vertices(
                [perm[v] for v in rep.resistance_witness], n
            )
            pcolors = [set(pkappa.colors_of(v)) for v in range(n)]
            pedges = list(pg.edges())
            assert naive_attack_defeats(n, pedges, k, pcolors, image.vertices())

        # color permutation leaves verdicts alone too
        cperm = list(range(1, k + 1))
        rng.shuffle(cperm)
        ckappa = Multicoloring.from_sets(
            k, [sorted(cperm[c - 1] for c in kappa.colors_of(v)) for v in range(n)]
        )
        crep = check_highly(g, ckappa, a)
        assert rep.hr_holds == crep.hr_holds
        assert rep.resistant == crep.resistant
