import random
import tracemalloc
from functools import partial
from itertools import combinations
from math import comb
from unittest.mock import patch

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
from hrcolor.constructions import c7_pair, c8c8p5, catalog, clique_partition
from hrcolor.graph import Graph, VertexSet, complete, component_masks, cycle, disjoint_union

from oracles import (
    _attacked,
    naive_check_hr,
    naive_check_resistant,
    naive_components,
    random_color_sets,
    random_edges,
)
from records import replace


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


def hub_instance(rng, n):
    """A sparse instance on n vertices whose sampled attacks fail both
    conditions on some draws but not all: vertex 0 is a hub with n // 10
    leaves that alone hold color 3, so an attack that hits N[0] strands
    them; the other vertices hold colors 1 and 2, on mean degree 3 edges
    among themselves and a few to the hub."""
    leaves = range(1, 1 + n // 10)
    core = range(1 + n // 10, n)
    pairs = [(u, v) for u in core for v in core if u < v]
    edges = [(0, v) for v in leaves]
    edges += [(0, v) for v in rng.sample(core, 2 + n // 30)]
    edges += rng.sample(pairs, 3 * len(core) // 2)
    masks = [0] + [4] * len(leaves) + [rng.randrange(1, 4) for _ in core]
    return Graph(n, edges), Multicoloring(3, masks)


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
    naive reference; returns the naive resistance verdict and witness."""
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
    return res_ok, res_wit


@pytest.fixture
def fills(monkeypatch):
    """The part each call of checker._full_color_part returns, in call order."""
    real = checker._full_color_part
    found = []

    def recording(closed, colors, full, survivors):
        part, reach = real(closed, colors, full, survivors)
        found.append(part)
        return part, reach

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
            return real(closed, colors, full, survivors) if len(calls) == 1 else (1, 1)

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

    def test_every_vertex_stream_matches_a_naive_replay(self):
        # above the pool size, n < 256 draws come in blocks cut to top
        # bytes (255 is the last such n, 256 and 300 draw one call each);
        # 5,000 trials at n = 40 draw several blocks
        rng = random.Random(61)
        for n, trials in ((255, 300), (256, 300), (300, 300), (40, 5000)):
            g, kappa = hub_instance(rng, n)
            for seed, workers in ((11, 1), (12, 3)):
                rep = assert_sample_matches_naive(g, kappa, 4, trials, seed, workers)
                assert 0 < rep.hr_failures < trials
                assert 0 < rep.resistance_failures < trials

    def test_getrandbits_of_32m_bits_is_m_outputs_least_significant_first(self):
        # the block draw reads m outputs from one getrandbits(32 * m) call
        for seed in (0, 7, 2**40 + 3):
            for m in (1, 2, 5, checker._BLOCK_WORDS):
                block = random.Random(seed).getrandbits(32 * m)
                one = random.Random(seed).getrandbits
                assert block == sum(one(32) << 32 * i for i in range(m))

    def test_getrandbits_of_w_bits_is_the_top_of_one_output(self):
        # _randbelow's w-bit draw, for w <= 32, uses one whole output
        for seed in (0, 7, 2**40 + 3):
            for w in range(1, 33):
                short, whole = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert short.getrandbits(w) == whole.getrandbits(32) >> 32 - w

    def test_memory_does_not_grow_with_the_trial_count(self):
        rng = random.Random(67)
        pairs = list(combinations(range(40), 2))
        g = Graph(40, rng.sample(pairs, 60))
        kappa = Multicoloring(3, [rng.randrange(1, 8) for _ in range(40)])
        sample_check(g, kappa, 4, 100, 0)  # caches what a first call builds
        peaks = []
        for trials in (100, 100_000):
            tracemalloc.start()
            try:
                sample_check(g, kappa, 4, trials, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4096, peaks

    def test_part_list_past_its_cap_keeps_the_naive_counts(self, fills):
        # sampled trials at n = 23, a = 2 find more full-color parts than
        # the ring of slots keeps, and some of them fail; the packing that
        # seeds the ring falls short, so trials still flood
        g, kappa = sparse_random_instances()[1]
        assert len(checker._packing(g.closed_masks, kappa.masks, 7, 3)) <= 2
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


def assert_first_cover_matches_naive(masks, k, a):
    """`_first_cover`'s verdict and rank-first witness against the naive
    hold check."""
    color_sets = [{c + 1 for c in range(k) if m >> c & 1} for m in masks]
    cover = checker._first_cover(masks, (1 << k) - 1, a)
    expected = naive_check_hr(len(masks), [], k, color_sets, a)
    assert (cover is None, cover) == expected, (masks, k, a)


def test_first_cover_matches_the_naive_hold_check():
    # the color-only search behind check_hr, lemma_disjunction, run_lemma
    # and search's hold cover: verdict and rank-first witness, with empty
    # color sets and k = 1 among the draws, at every attack size
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 9)
        k = rng.choice((1, rng.randint(1, 5)))
        color_sets = random_color_sets(rng, n, k, rng.choice((0.0, 0.25, 0.5, 0.75)))
        masks = [sum(1 << (c - 1) for c in s) for s in color_sets]
        for a in range(1, n + 1):
            assert_first_cover_matches_naive(masks, k, a)
    # masks drawn from a pool of 1-3 distinct masks, 0 among the choices:
    # many prefixes share a state (s, c), so the memo skips most of them
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(1, 12)
        k = rng.randint(1, 5)
        pool = rng.sample(range(1 << k), min(rng.randint(1, 3), 1 << k))
        masks = [rng.choice(pool) for _ in range(n)]
        for a in range(1, min(n, 5) + 1):
            assert_first_cover_matches_naive(masks, k, a)


def test_first_cover_matches_the_naive_hold_check_on_the_catalog():
    # `_first_cover` itself, past the k > a * max|κ(v)| bound that settles
    # the clique partitions in `_cover`, up to one size past each design
    for inst in catalog():
        for a in range(1, inst.attackers + 2):
            assert_first_cover_matches_naive(
                list(inst.coloring.masks), inst.coloring.palette_size, a
            )


@st.composite
def repeated_masks(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << k) - 1),
                 min_size=1, max_size=3, unique=True)
    )
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    a = draw(st.integers(min_value=1, max_value=min(5, len(masks))))
    return masks, k, a


@given(repeated_masks())
@settings(max_examples=300)
def test_first_cover_matches_the_naive_hold_check_on_repeated_masks(case):
    assert_first_cover_matches_naive(*case)


def test_first_cover_work_is_bounded_by_its_states():
    # five copies of paper-21's masks: n = 105 and C(105, 4) ≈ 4.8e6 sets,
    # none of which holds the palette. Its 8 distinct masks give few
    # states (s, c), so the search ORs masks far fewer times than a scan
    # of every 3-vertex prefix, which needs millions; each OR that touches
    # a color mask is counted
    ors = 0

    class Counted(int):
        def __or__(self, other):
            nonlocal ors
            ors += 1
            return int.__or__(self, other)

        __ror__ = __or__

    kappa = c8c8p5().coloring
    masks = [Counted(m) for m in kappa.masks] * 5
    assert checker._first_cover(masks, (1 << kappa.palette_size) - 1, 4) is None
    assert 0 < ors <= 50_000, ors


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
    # the ring of slots keeps, and passes; the packing falls short of
    # settling it
    g, kappa = sparse_random_instances()[2]
    assert len(checker._packing(g.closed_masks, kappa.masks, 7, 4)) <= 3
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
    part, _ = checker._full_color_part(g.closed_masks, tuple(masks), full, survivors)

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


def relabeled(inst, seed):
    """The instance's graph and coloring under a seeded vertex permutation."""
    g, kappa = inst.graph, inst.coloring
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    masks = [0] * g.n
    for v in range(g.n):
        masks[perm[v]] = kappa.masks[v]
    return (Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]),
            Multicoloring(kappa.palette_size, masks))


def test_every_labelled_graph_on_five_vertices_matches_the_naive_reference():
    # the resistance walk's skip rules and the hold bound against the naive
    # scans at every attack size, with empty color sets, k = 1 and colorings
    # whose palette no a vertices can hold among the draws
    rng = random.Random(61)
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            for k in (1, rng.randint(2, 4)):
                density = rng.choice((0.25, 0.5, 0.75))
                color_sets = random_color_sets(rng, n, k, density)
                kappa = Multicoloring.from_sets(k, [sorted(c) for c in color_sets])
                for a in range(1, n + 1):
                    assert_report_matches_naive(g, kappa, a)


@pytest.mark.parametrize(
    "inst",
    [clique_partition(3), clique_partition(4), c7_pair(), c8c8p5()],
    ids=lambda inst: inst.name,
)
def test_relabeled_catalog_instances_match_the_naive_reference(inst):
    # the constructions are where whole subtrees get skipped; each passes up
    # to its design size and fails one past it
    g, kappa = relabeled(inst, 67)
    for a in range(1, inst.attackers + 2):
        assert_report_matches_naive(g, kappa, a)


def test_sparse_random_graphs_up_to_26_vertices_match_the_naive_reference():
    rng = random.Random(71)
    for n in range(6, 27, 4):
        pairs = list(combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(n // 2, 3 * n // 2)))
        k = rng.randint(1, 4)
        g = Graph(n, edges)
        kappa = Multicoloring(k, [rng.randrange(1, 1 << k) for _ in range(n)])
        for a in (2, 3):
            assert_report_matches_naive(g, kappa, a)


class ReadCounter(tuple):
    """Closed-neighborhood masks that count the reads by index or slice."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("seed", [None, 5])
def test_clique_partition_five_is_settled_without_visiting_its_attacks(fills, seed):
    # six disjoint full-color cliques: a 5-attack cannot reach all six
    # components, so the components settle the check before any fill (a
    # scan reads a closed mask per attacker of each of the C(36,5) sets),
    # and the report still counts every set of a sequential scan
    inst = clique_partition(5)
    g, kappa = (inst.graph, inst.coloring) if seed is None else relabeled(inst, seed)
    closed = ReadCounter(g.closed_masks)
    rep = check_highly(Graph._from_closed(g.n, closed), kappa, 5)
    assert rep.highly_resistant
    assert rep.attack_sets_examined == comb(36, 5)
    assert closed.reads < 1000
    if seed is None:
        assert fills == []


DEEP_N = 1500


@pytest.mark.parametrize("a", [DEEP_N - 1, DEEP_N])
def test_attack_sizes_near_n_on_a_large_edgeless_graph(a):
    # an explicit stack: a walk 1,499 levels deep raises no RecursionError
    n = DEEP_N
    g = Graph(n, [])
    kappa = Multicoloring(1, [1] * n)
    everyone = VertexSet.from_vertices(range(n), n)
    first = VertexSet.from_vertices(range(a), n)
    rep = check_highly(g, kappa, a)
    assert (rep.hr_holds, rep.hr_witness) == (False, first)
    if a == n - 1:
        # every attack leaves one vertex, which holds the whole palette
        assert check_resistant(g, kappa, a) == (True, None)
        assert (rep.resistant, rep.attack_sets_examined) == (True, n)
        # with vertex 700 colorless, the failing attack spares it, and the
        # attacks that spare a later vertex come first in rank order
        holey = Multicoloring(1, [0 if v == 700 else 1 for v in range(n)])
        spare = VertexSet.from_vertices([v for v in range(n) if v != 700], n)
        assert check_resistant(g, holey, a) == (False, spare)
        rep = check_highly(g, holey, a)
        assert (rep.resistant, rep.resistance_witness) == (False, spare)
        assert rep.attack_sets_examined == n - 700
    else:
        assert check_resistant(g, kappa, a) == (False, everyone)
        assert (rep.resistant, rep.resistance_witness) == (False, everyone)
        assert rep.attack_sets_examined == 1


@pytest.mark.parametrize("a", [DEEP_N - 1, DEEP_N])
def test_attack_sizes_near_n_on_a_long_path(a):
    # n - 1 attackers on a path remove every vertex: the first attack fails
    n = DEEP_N
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    kappa = Multicoloring(1, [1] * n)
    first = VertexSet.from_vertices(range(a), n)
    assert check_resistant(g, kappa, a) == (False, first)
    rep = check_highly(g, kappa, a)
    assert (rep.hr_holds, rep.hr_witness) == (False, first)
    assert (rep.resistant, rep.resistance_witness) == (False, first)
    assert rep.attack_sets_examined == 1


@pytest.mark.parametrize(
    "case",
    [(sparse_random_instances()[2], 3),
     (relabeled(clique_partition(4), 3), 5),
     ((c8c8p5().graph, c8c8p5().coloring), 4)],
    ids=["sparse-26@3", "clique-partition:4@5", "paper-21@4"],
)
def test_walk_floods_only_attacks_that_hit_every_kept_part(monkeypatch, case):
    # an attack that leaves a kept part whole is resisted and must not be
    # flooded; the first case finds more parts than the walk keeps. The
    # walk runs on the whole graph, so every kept part is in one numbering
    (g, kappa), a = case
    real = checker._full_color_part
    kept = []

    def checked(closed, colors, full, survivors):
        assert not any(part & ~survivors == 0 for part in kept)
        part, reach = real(closed, colors, full, survivors)
        if part:
            kept[:] = [part, *kept][: checker._RECENT_PARTS]
        return part, reach

    monkeypatch.setattr(checker, "_full_color_part", checked)
    n, k = g.n, kappa.palette_size
    flood = partial(checker._full_color_part, g.closed_masks, kappa.masks, (1 << k) - 1)
    colors = [set(kappa.colors_of(v)) for v in range(n)]
    _, witness = naive_check_resistant(n, list(g.edges()), k, colors, a)
    assert checker._walk(g.closed_masks, a, flood) == witness


def random_union(rng):
    """2 to 4 random connected parts on at most 10 vertices in all, each a
    random tree plus random chords, on shuffled labels so that a part is
    rarely a range of them, and a random coloring with k <= 4."""
    parts = rng.randint(2, 4)
    n = rng.randint(parts, 10)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        vs = label[lo:hi]
        for i in range(1, len(vs)):
            edges.append((vs[rng.randrange(i)], vs[i]))
        for u, v in combinations(vs, 2):
            if rng.random() < 0.3 and (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
    k = rng.randint(1, 4)
    color_sets = random_color_sets(rng, n, k, rng.choice((0.5, 0.75, 0.9)))
    g = Graph(n, [(min(e), max(e)) for e in edges])
    return g, Multicoloring.from_sets(k, [sorted(c) for c in color_sets]), parts


@pytest.fixture
def whole_walks(monkeypatch):
    """The closed masks `checker._walk` is called on, in call order."""
    real = checker._walk
    seen = []

    def recording(closed, a, flood):
        seen.append(closed)
        return real(closed, a, flood)

    monkeypatch.setattr(checker, "_walk", recording)
    return seen


def test_disjoint_unions_are_settled_by_their_components(whole_walks):
    # a coloring of a graph with components H_i is a-resistant iff
    # sum(rho_i + 1) >= a + 1, so the components settle every resistant
    # check and the whole-graph walk runs exactly on the failing ones,
    # where it finds the naive witness
    rng = random.Random(181)
    cases = settled = 0
    while cases < 2000:
        g, kappa, parts = random_union(rng)
        assert len(component_masks(g.closed_masks, g.full_mask)) == parts
        for a in range(1, g.n + 1):
            whole_walks.clear()
            res_ok, res_wit = assert_report_matches_naive(g, kappa, a)
            res_set = None if res_wit is None else VertexSet.from_vertices(res_wit, g.n)
            assert check_resistant(g, kappa, a) == (res_ok, res_set)
            assert (g.closed_masks in whole_walks) == (not res_ok)
            cases += 1
            settled += res_ok
    assert 300 < settled < cases - 300


@pytest.mark.parametrize("seed", [None, 18])
@pytest.mark.parametrize("inst", catalog(), ids=lambda inst: inst.name)
def test_catalog_instances_match_the_naive_reference_canonical_and_relabelled(inst, seed):
    # every catalog instance up to one past its design size; past
    # clique-partition:4's largest scan, C(25, 5) attacks (so on
    # clique-partition:5 at a >= 4), the naive oracle takes seconds, and
    # the whole-graph walk, which the oracle pins everywhere else, is the
    # reference
    g, kappa = (inst.graph, inst.coloring) if seed is None else relabeled(inst, seed)
    full = (1 << kappa.palette_size) - 1
    for a in range(1, inst.attackers + 2):
        if comb(g.n, a) <= comb(25, 5):
            res_ok, res_wit = assert_report_matches_naive(g, kappa, a)
            res_set = None if res_wit is None else VertexSet.from_vertices(res_wit, g.n)
            assert check_resistant(g, kappa, a) == (res_ok, res_set)
        else:
            closed = g.closed_masks
            whole = checker._walk(
                closed, a, partial(checker._full_color_part, closed, kappa.masks, full)
            )
            assert checker._scan(g, kappa, a) == whole
            assert (whole is None) == (a <= inst.attackers)


@pytest.mark.parametrize(
    "inst",
    [*(clique_partition(a) for a in range(3, 8)), c7_pair(), c8c8p5()],
    ids=lambda inst: inst.name,
)
def test_extremal_unions_pass_at_their_design_size_without_a_whole_graph_walk(
    inst, whole_walks
):
    # clique-partition:a has a+1 full-color components; paper-14's two C7
    # and paper-21's two C8 are 1-resistant, which with the P5 of paper-21
    # makes a+1 as well
    g = inst.graph
    rep = check_highly(g, inst.coloring, inst.attackers)
    assert rep.highly_resistant
    assert rep.attack_sets_examined == comb(g.n, inst.attackers)
    assert all(len(closed) < g.n for closed in whole_walks)


def assert_packing_is_sound(n, edges, k, masks, a, limit):
    """_packing's parts against the naive references: each is connected and
    holds every color, their closed neighborhoods are pairwise disjoint,
    there are at most `limit` of them, and more than `a` of them only on a
    coloring that the naive scan finds `a`-resistant, which `_scan` then
    settles without a walk. Returns the parts."""
    full = (1 << k) - 1
    g = Graph(n, edges)
    parts = checker._packing(g.closed_masks, tuple(masks), full, limit)
    assert len(parts) <= limit
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    reached = set()
    for part, _ in parts:
        inside = [v for v in range(n) if part >> v & 1]
        inside_edges = [(u, v) for u, v in edges if part >> u & 1 and part >> v & 1]
        assert len(naive_components(inside, inside_edges)) == 1
        assert _union(masks, inside) == full
        reach = set().union(*(closed[v] for v in inside))
        assert not reach & reached
        reached |= reach
    if len(parts) > a:
        color_sets = [{c + 1 for c in range(k) if m >> c & 1} for m in masks]
        assert naive_check_resistant(n, edges, k, color_sets, a) == (True, None)
        with patch.object(checker, "_walk", side_effect=AssertionError("walked")):
            assert checker._scan(g, Multicoloring(k, masks), a) is None
    return parts


@st.composite
def packing_cases(draw):
    n, edges, k, masks, a = draw(colored_instances(max_n=9))
    return n, edges, k, masks, a, draw(st.integers(min_value=1, max_value=a + 1))


@given(packing_cases())
@settings(max_examples=300)
def test_packing_parts_are_connected_full_color_and_far_apart(case):
    assert_packing_is_sound(*case)


@pytest.mark.parametrize(
    "case, parts",
    [
        # one vertex holding the palette is one part
        ((1, [], 2, [3], 1, 2), 1),
        # color 3 is on no vertex: nothing is full-color
        ((4, [(0, 1), (2, 3)], 3, [3, 3, 1, 2], 1, 2), 0),
        # 20 isolated full-color vertices at a = 16: the scan's limit of 17
        # settles it, the sampler's ring of 16 holds 16 of them
        ((20, [], 1, [1] * 20, 16, 17), 17),
        ((20, [], 1, [1] * 20, 16, checker._RECENT_PARTS), checker._RECENT_PARTS),
        # a path 0-1-...-6 colored at 0, 3 and 6: N[{0}], N[{3}] and
        # N[{6}] are disjoint, so three one-vertex parts settle a = 2
        ((7, [(v, v + 1) for v in range(6)], 1, [1, 0, 0, 1, 0, 0, 1], 2, 3), 3),
    ],
    ids=["n=1", "color-on-no-vertex", "a=16-scan", "a=16-ring", "path"],
)
def test_packing_edge_cases(case, parts):
    assert len(assert_packing_is_sound(*case)) == parts


def test_packing_on_sparse_random_instances():
    for g, kappa in sparse_random_instances():
        for a in (1, 2, 3, 4):
            for limit in (a + 1, min(a + 1, checker._RECENT_PARTS)):
                assert_packing_is_sound(
                    g.n, list(g.edges()), 3, kappa.masks, a, limit
                )


def check_random_instances(count, seed):
    """`count` instances shaped like the benchmark's check-random ones:
    n = 36..48, 3n/2 edges (mean degree 3), nonempty subsets of 3 colors."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(36, 48)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, 3 * n // 2))
        out.append((Graph(n, edges), Multicoloring(3, [rng.randrange(1, 8) for _ in range(n)])))
    return out


def reports_with_and_without_packing(monkeypatch, g, kappa, a, workers):
    """(check_highly, sample_check) reports with the packing, then with it
    patched to find no part."""
    reports = []
    for found in (checker._packing, lambda closed, colors, full, limit: []):
        with monkeypatch.context() as m:
            m.setattr(checker, "_packing", found)
            reports.append((
                check_highly(g, kappa, a),
                sample_check(g, kappa, a, 300, 11, workers=workers),
            ))
    return reports


def test_packing_changes_no_report_on_random_instances(monkeypatch):
    # the packing only skips attacks that leave a full-color part whole,
    # so witnesses, examined counts and sampled counts do not move; most
    # of these instances are settled by it, and some are not
    settled = 0
    for i, (g, kappa) in enumerate(check_random_instances(40, 97)):
        for a in (3, 4):
            with_packing, without = reports_with_and_without_packing(
                monkeypatch, g, kappa, a, 1 + 2 * (i % 2)
            )
            assert with_packing == without
            settled += len(checker._packing(g.closed_masks, kappa.masks, 7, a + 1)) > a
    assert 20 < settled < 80


@pytest.mark.parametrize("inst", catalog(), ids=lambda inst: inst.name)
def test_packing_changes_no_report_on_the_catalog(monkeypatch, inst):
    for a in range(1, inst.attackers + 2):
        for workers in (1, 3):
            with_packing, without = reports_with_and_without_packing(
                monkeypatch, inst.graph, inst.coloring, a, workers
            )
            assert with_packing == without


def counting(monkeypatch, name):
    """Count the calls of checker.`name` and pass them through."""
    real = getattr(checker, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checker, name, counted)
    return calls


def packing_settled_instances():
    """A connected instance and a sparse random one of several components
    that the packing settles at a = 3: a 30-cycle colored 1, 2, 3 around,
    and the first check-random-shaped instance with more than 3 parts."""
    cycle_inst = (cycle(30), Multicoloring(3, [1 << v % 3 for v in range(30)]))
    random_inst = next(
        (g, kappa) for g, kappa in check_random_instances(40, 97)
        if len(component_masks(g.closed_masks, g.full_mask)) > 1
        and len(checker._packing(g.closed_masks, kappa.masks, 7, 4)) > 3
    )
    return [cycle_inst, random_inst]


@pytest.mark.parametrize("case", packing_settled_instances(), ids=["cycle-30", "random"])
def test_a_packing_settled_scan_walks_nothing(monkeypatch, case):
    g, kappa = case
    assert len(checker._packing(g.closed_masks, kappa.masks, 7, 4)) == 4
    walks = counting(monkeypatch, "_walk")
    rounds = counting(monkeypatch, "_components_resist")
    assert check_resistant(g, kappa, 3) == (True, None)
    assert check_highly(g, kappa, 3).resistant
    assert walks == [] and rounds == []


@pytest.mark.parametrize("case", packing_settled_instances(), ids=["cycle-30", "random"])
def test_a_packing_settled_sample_floods_nothing(monkeypatch, fills, case):
    # the a + 1 = 4 seeded parts leave every 3-attack one part whole, so
    # 10^4 trials fill no slot past the seeds and flood nothing
    g, kappa = case
    slots = counting(monkeypatch, "_fill_slot")
    rep = sample_check(g, kappa, 3, 10_000, 5)
    assert rep.resistance_failures == 0
    assert fills == []
    assert len(slots) == 4


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_clique_partition_below_its_design_size_is_settled_by_its_cliques(monkeypatch, a):
    # a + 1 or more full-color cliques settle the scan before the packing
    packings = counting(monkeypatch, "_packing")
    for design in range(a, 6):
        inst = clique_partition(design)
        assert check_highly(inst.graph, inst.coloring, a).resistant
    assert packings == []


@pytest.mark.parametrize("inst", catalog(), ids=lambda inst: inst.name)
def test_catalog_components_have_no_room_for_a_second_part(monkeypatch, inst):
    # a part of clique-partition:a needs all a + 1 vertices of its clique,
    # one of paper-14 four of its C7's 7 vertices and one of paper-21 four
    # of a C8's 8 (or the P5's 5): with N[P] one vertex larger, no
    # component has room for two, so the scan never runs the packing
    packings = counting(monkeypatch, "_packing")
    for a in range(1, inst.attackers + 2):
        check_highly(inst.graph, inst.coloring, a)
    assert packings == []


def naive_reach(edges, part):
    """N[part] from the edge list: the part and every vertex joined to it."""
    reach = part
    for u, v in edges:
        if part >> u & 1:
            reach |= 1 << v
        if part >> v & 1:
            reach |= 1 << u
    return reach


def as_mask(vertices):
    return sum(1 << v for v in vertices)


def assert_fills_return_their_reach(n, edges, colors, full, survivors, a):
    """Every fill's N[P] against a naive N[P] of the part it returns: the
    fill from each survivor, `_full_color_part`, every `_packing` part and
    `_large`, whose component is also the naive one."""
    closed = Graph(n, edges).closed_masks
    alive = [v for v in range(n) if survivors >> v & 1]
    alive_edges = [(u, v) for u, v in edges if survivors >> u & 1 and survivors >> v & 1]
    comps = [as_mask(c) for c in naive_components(alive, alive_edges)]
    for v in alive:
        part, reach = checker._fill(closed, colors, full, survivors, 1 << v)
        if part:
            assert part >> v & 1 and part & ~survivors == 0
            assert reach == naive_reach(edges, part)
        else:  # the fill fell short on the whole component of v
            comp = next(c for c in comps if c >> v & 1)
            assert reach & survivors == comp
            assert reach == naive_reach(edges, comp)
    part, reach = checker._full_color_part(closed, colors, full, survivors)
    assert reach == (naive_reach(edges, part) if part else 0)
    for part, reach in checker._packing(closed, colors, full, a + 1):
        assert reach == naive_reach(edges, part)
    comp, reach = checker._large(closed, a, survivors)
    assert comp == next((c for c in comps if c.bit_count() > a), 0)
    assert reach == (naive_reach(edges, comp) if comp else 0)


@given(survivor_cases(), st.integers(min_value=0, max_value=12))
@settings(max_examples=300)
def test_fills_return_the_closed_neighborhood_of_their_part(case, a):
    n, edges, k, masks, survivors = case
    assert_fills_return_their_reach(n, edges, tuple(masks), (1 << k) - 1, survivors, a)


@pytest.mark.parametrize("inst", catalog(), ids=lambda inst: inst.name)
def test_fills_return_the_closed_neighborhood_of_their_part_on_the_catalog(inst):
    # the whole graph, then what 40 random design-size attacks leave
    g, kappa, a = inst.graph, inst.coloring, inst.attackers
    edges = list(g.edges())
    full = (1 << kappa.palette_size) - 1
    rng = random.Random(inst.name)
    assert_fills_return_their_reach(g.n, edges, kappa.masks, full, g.full_mask, a)
    for _ in range(40):
        removed = naive_reach(edges, as_mask(rng.sample(range(g.n), a)))
        survivors = g.full_mask & ~removed
        assert_fills_return_their_reach(g.n, edges, kappa.masks, full, survivors, a)


@pytest.fixture
def ring_fills(monkeypatch):
    """Each ring fill as (the slots' N[P] list, the marks list, slot, bit)."""
    real = checker._fill_slot
    calls = []

    def recording(nbhd, marks, i, bit, reach):
        calls.append((nbhd, marks, i, bit))
        return real(nbhd, marks, i, bit, reach)

    monkeypatch.setattr(checker, "_fill_slot", recording)
    return calls


def assert_ring_holds_its_parts(edges, calls, parts):
    """Each slot's stored N[P] is the naive N[P] of the last of `parts` put
    there (the parts are in fill order), and each vertex is marked with
    exactly the slots whose N[P] hold it."""
    assert len(calls) == len(parts)
    last = {i: (nbhd, marks, bit, part) for (nbhd, marks, i, bit), part in zip(calls, parts)}
    for i, (nbhd, marks, bit, part) in last.items():
        assert nbhd[i] == naive_reach(edges, part)
        assert as_mask(u for u, m in enumerate(marks) if m & bit) == nbhd[i]


def walk_cases():
    """Check-random-shaped instances at a = 3 and 4, and the catalog at its
    design size and one past it."""
    cases = [
        pytest.param(g, kappa, a, id=f"random-{i}@{a}")
        for i, (g, kappa) in enumerate(check_random_instances(6, 5)) for a in (3, 4)
    ]
    for inst in catalog():
        cases += [
            pytest.param(inst.graph, inst.coloring, a, id=f"{inst.name}@{a}")
            for a in (inst.attackers, inst.attackers + 1)
        ]
    return cases


@pytest.mark.parametrize("g, kappa, a", walk_cases())
def test_walk_rings_hold_the_closed_neighborhoods_of_their_parts(ring_fills, g, kappa, a):
    # both part tests: the full-color flood and `_large`; a walk that the
    # first attack fails fills no slot
    closed, edges = g.closed_masks, list(g.edges())
    full = (1 << kappa.palette_size) - 1
    filled = 0
    for test in (partial(checker._full_color_part, closed, kappa.masks, full),
                 partial(checker._large, closed, a)):
        ring_fills.clear()
        parts = []

        def flood(survivors):
            part, reach = test(survivors)
            if part:
                parts.append(part)
            return part, reach

        checker._walk(closed, a, flood)
        assert_ring_holds_its_parts(edges, ring_fills, parts)
        filled += len(parts)
    assert filled


@pytest.mark.parametrize("g, kappa, a", walk_cases())
def test_sampler_rings_hold_the_closed_neighborhoods_of_their_parts(
    monkeypatch, ring_fills, g, kappa, a
):
    # the packing's seeds and then every trial's fill, in fill order
    parts = []
    packing, flood = checker._packing, checker._full_color_part

    def seeds(*args):
        found = packing(*args)
        parts.extend(part for part, _ in found)
        return found

    def filled(*args):
        part, reach = flood(*args)
        if part:
            parts.append(part)
        return part, reach

    monkeypatch.setattr(checker, "_packing", seeds)
    monkeypatch.setattr(checker, "_full_color_part", filled)
    sample_check(g, kappa, a, 300, 7)
    assert_ring_holds_its_parts(list(g.edges()), ring_fills, parts)
