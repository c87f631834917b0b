"""The lemma suites' trial stream, replayed from the documented draw order.

`run_lemma` builds its graphs from bit strings, only for trials that pass
the color-only hold test, and reuses one cycle per run; the replay here
builds every trial's graph from an explicit edge list and a fresh `cycle`,
so any change to a draw or to a built instance shows. The stream tests
record every trial `_trials` yields, let every full-palette trial through
the hold test and record what reaches the resistance scan; the false
scopes judge the replay with the naive checkers instead.
"""

import random
from collections import Counter
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest

from hrcolor import lemmas
from hrcolor.coloring import Multicoloring
from hrcolor.graph import Graph, cycle, disjoint_union, from_pair_bits

from oracles import naive_check_hr, naive_check_resistant, naive_components
from records import replace

SEEDS = (0, 1, 2)
TRIALS = 200


def naive_is_cycle(g):
    """Connected and 2-regular, from the edge list alone."""
    edges = list(g.edges())
    degree = Counter(v for e in edges for v in e)
    return (
        g.n >= 3
        and all(degree[u] == 2 for u in range(g.n))
        and len(naive_components(list(range(g.n)), edges)) == 1
    )


def replay(scope, trials, seed):
    """Every (graph, coloring) of a run, drawn in the documented order: size,
    edges, palette, density flag, color memberships."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        if scope.fixed_cycle is not None:
            g = cycle(scope.fixed_cycle)
        else:
            while True:
                n = rng.randint(scope.n_lo, scope.n_hi)
                pairs = list(combinations(range(n), 2))
                bits = rng.getrandbits(len(pairs))
                g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                if not (n == scope.excluded_cycle and naive_is_cycle(g)):
                    break
        k = scope.k_lo if scope.k_lo == scope.k_hi else rng.randint(scope.k_lo, scope.k_hi)
        density = 0.5
        if rng.random() < 0.1:
            density = 0.25 if rng.random() < 0.5 else 0.75
        if density == 0.5:
            masks = [rng.getrandbits(k) for _ in range(g.n)]
        else:
            masks = [
                sum(1 << c for c in range(k) if rng.random() < density)
                for _ in range(g.n)
            ]
        out.append((g, Multicoloring(k, masks)))
    return out


def built(scope, trial):
    """The graph and coloring of one trial as `_trials` yields it."""
    n, bits, k, masks = trial
    assert (bits is None) == (scope.fixed_cycle is not None)
    g = cycle(n) if bits is None else from_pair_bits(n, bits)
    return g, Multicoloring(k, masks)


def palette_short(kappa):
    """Whether some palette color is on no vertex."""
    return reduce(or_, kappa.masks) != (1 << kappa.palette_size) - 1


def recorded_run(monkeypatch, lemma_id, seed, fail_at=()):
    """Run a suite with the hold test passing every trial that reaches it
    and the resistance scan replaced by a recorder that finds the trials at
    the indices in `fail_at` resistant, so those count as violations.
    Return the report, every trial's draws as `_trials` yielded them, and
    the recorded scans as {trial index: (graph, coloring, a_hr, r)}."""
    drawn = []
    holds = {}
    calls = {}
    trials = lemmas._trials

    def spy(*args):
        for trial in trials(*args):
            drawn.append(trial)
            yield trial

    def no_cover(colors, full, a):
        holds[len(drawn) - 1] = (list(colors), full, a)
        return None

    def record(g, kappa, a):
        assert isinstance(g, Graph) and isinstance(kappa, Multicoloring)
        t = len(drawn) - 1
        colors, full, a_hr = holds[t]
        assert colors == list(kappa.masks) and full == (1 << kappa.palette_size) - 1
        calls[t] = (g, kappa, a_hr, a)
        return None if t in fail_at else (0,)

    monkeypatch.setattr(lemmas, "_trials", spy)
    monkeypatch.setattr(lemmas, "_first_cover", no_cover)
    monkeypatch.setattr(lemmas, "_scan", record)
    report = lemmas.run_lemma(lemma_id, TRIALS, seed)
    # a palette-short trial passes the hold test without reaching it
    scope = lemmas.SCOPES[lemma_id]
    short = {t for t, trial in enumerate(drawn) if palette_short(built(scope, trial)[1])}
    assert len(drawn) == report.resistance_checked == TRIALS
    assert holds.keys() == calls.keys() == set(range(TRIALS)) - short
    assert report.palette_short == len(short)
    return report, drawn, calls


@pytest.mark.parametrize("lemma_id", lemmas.LEMMA_IDS)
def test_trial_stream_matches_the_documented_draw_order(monkeypatch, lemma_id):
    scope = lemmas.SCOPES[lemma_id]
    for seed in SEEDS:
        report, drawn, calls = recorded_run(monkeypatch, lemma_id, seed)
        assert report.violations == 0 and report.first_violation is None
        want = replay(scope, TRIALS, seed)
        assert len(drawn) == TRIALS
        for t, (trial, (g_want, kappa_want)) in enumerate(zip(drawn, want)):
            g, kappa = built(scope, trial)
            assert g == g_want and g.edges() == g_want.edges()
            assert kappa == kappa_want
            if t in calls:
                g, kappa, a_hr, r = calls[t]
                assert (a_hr, r) == (scope.a_hr, scope.r)
                assert g == g_want and g.edges() == g_want.edges()
                assert kappa == kappa_want
        assert report.palette_short == sum(palette_short(kappa) for _, kappa in want)


# the real suites exclude the 7- and 8-cycle, which a 200-trial run almost
# never draws; these scopes redraw a triangle or a 4-cycle often
@pytest.mark.parametrize("n_lo, n_hi, excluded", [(3, 3, 3), (3, 5, 3), (4, 5, 4)])
def test_excluded_cycles_are_redrawn(monkeypatch, n_lo, n_hi, excluded):
    scope = replace(lemmas.SCOPES[4], n_lo=n_lo, n_hi=n_hi, excluded_cycle=excluded)
    monkeypatch.setitem(lemmas.SCOPES, 4, scope)
    tested = []
    is_cycle = lemmas._is_cycle

    def spy(g):
        tested.append(g)
        return is_cycle(g)

    monkeypatch.setattr(lemmas, "_is_cycle", spy)
    for seed in SEEDS:
        _, drawn, calls = recorded_run(monkeypatch, 4, seed)
        want = replay(scope, TRIALS, seed)
        assert [built(scope, trial) for trial in drawn] == want
        assert all((g, kappa) == want[t] for t, (g, kappa, _, _) in calls.items())
        assert not any(g.n == excluded and naive_is_cycle(g) for g, _ in want)
        assert want != replay(replace(scope, excluded_cycle=None), TRIALS, seed)
    # a cycle has as many edges as vertices, so only such draws are built
    # for the structural test
    assert tested
    assert all(g.n == excluded and g.num_edges() == excluded for g in tested)


@pytest.mark.parametrize("lemma_id", lemmas.LEMMA_IDS)
def test_violations_keep_the_first_failing_trial(monkeypatch, lemma_id):
    scope = lemmas.SCOPES[lemma_id]
    for seed in SEEDS:
        want = replay(scope, TRIALS, seed)
        full = [t for t, (_, kappa) in enumerate(want) if not palette_short(kappa)]
        short = set(range(TRIALS)) - set(full)
        chosen = random.Random(seed).choice(full[:-1])
        # palette-short trials never reach the scan, so they never violate
        report, _, _ = recorded_run(monkeypatch, lemma_id, seed, {chosen, full[-1]} | short)
        g, kappa = want[chosen]
        assert report.violations == 2
        assert report.first_violation == lemmas.Violation(chosen, g, kappa, scope.a_hr, scope.r)


# CPython facts that `_trials` relies on to replay `randint` and the
# sparse and dense `random()` memberships through `getrandbits`; an
# interpreter that breaks one fails here by name, not as a drifted stream
DRAW_SEEDS = (0, 7, 2**40 + 3)


def from_outputs(x, y):
    """CPython's `random()` from its two 32-bit outputs."""
    return ((x >> 5) * 2**26 + (y >> 6)) / 2**53


def test_randint_is_lo_plus_rejection_sampled_getrandbits():
    for seed in DRAW_SEEDS:
        for lo, hi in ((3, 3), (3, 7), (4, 8), (4, 16), (1, 9), (0, 2**40)):
            rng, bits = random.Random(seed), random.Random(seed)
            for _ in range(50):
                span = hi - lo + 1
                r = bits.getrandbits(span.bit_length())
                while r >= span:
                    r = bits.getrandbits(span.bit_length())
                assert rng.randint(lo, hi) == lo + r
                assert lemmas._below(rng.getrandbits, span) == bits.randint(lo, hi) - lo
            assert rng.getstate() == bits.getstate()


def test_random_consumes_exactly_two_outputs():
    for seed in DRAW_SEEDS:
        rng, outputs = random.Random(seed), random.Random(seed)
        for _ in range(200):
            x, y = outputs.getrandbits(32), outputs.getrandbits(32)
            assert rng.random() == from_outputs(x, y)
        assert rng.getstate() == outputs.getstate()


def test_random_below_a_quarter_or_three_quarters_reads_the_first_output():
    for seed in DRAW_SEEDS:
        rng, outputs = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            x, _ = outputs.getrandbits(32), outputs.getrandbits(32)
            u = rng.random()
            assert (u < 0.25) == (x < 2**30) and (u < 0.75) == (x < 3 * 2**30)
    # at the thresholds the second output cannot tip the comparison
    for below in (2**30, 3 * 2**30):
        assert from_outputs(below - 1, 2**32 - 1) < below / 2**32
        assert not from_outputs(below, 0) < below / 2**32


def test_getrandbits_of_64m_bits_is_2m_outputs_least_significant_first():
    for seed in DRAW_SEEDS:
        for m in (1, 2, 5, 16 * 9):
            block = random.Random(seed).getrandbits(64 * m)
            one = random.Random(seed).getrandbits
            assert block == sum(one(32) << 32 * i for i in range(2 * m))


# scopes whose disjunction is false, so violations are real; each still
# fits its sizes to its smallest graph
FALSE_SCOPES = [
    lemmas.LemmaScope(4, "the 9-cycle with 3 colors", 9, 9, 9, None, 3, 3, 1, 1),
    lemmas.LemmaScope(4, "the 11-cycle with 6 colors", 11, 11, 11, None, 6, 6, 2, 1),
    lemmas.LemmaScope(4, "graphs on 3 to 12 vertices other than the triangle",
                      None, 3, 12, 3, 4, 6, 1, 1),
    # about half of these trials leave some color on no vertex
    lemmas.LemmaScope(4, "graphs on 3 to 5 vertices with 9 colors",
                      None, 3, 5, None, 9, 9, 1, 1),
]


@pytest.mark.parametrize("scope", FALSE_SCOPES, ids=lambda s: s.description)
def test_real_violations_match_the_naive_checkers(monkeypatch, scope):
    monkeypatch.setitem(lemmas.SCOPES, 4, scope)
    seen = 0
    for seed in SEEDS:
        report = lemmas.run_lemma(4, TRIALS, seed)
        held = []
        short = 0
        first = None
        for t, (g, kappa) in enumerate(replay(scope, TRIALS, seed)):
            edges = list(g.edges())
            colors = [{c + 1 for c in range(kappa.palette_size) if m >> c & 1}
                      for m in kappa.masks]
            short += set().union(*colors) != set(range(1, kappa.palette_size + 1))
            if not naive_check_hr(g.n, edges, kappa.palette_size, colors, scope.a_hr)[0]:
                continue
            resistant = naive_check_resistant(g.n, edges, kappa.palette_size, colors, scope.r)[0]
            held.append(resistant)
            if resistant and first is None:
                first = lemmas.Violation(t, g, kappa, scope.a_hr, scope.r)
        assert report.resistance_checked == len(held)
        assert report.palette_short == short
        assert report.violations == sum(held)
        assert report.first_violation == first
        seen += report.violations
    assert seen


@pytest.mark.parametrize(
    "lemma_id, change, message",
    [
        (4, {"a_hr": 4}, "1 <= a <= 3, got 4"),
        (4, {"a_hr": 0}, "1 <= a <= 3, got 0"),
        (11, {"r": 5}, "1 <= a <= 4, got 5"),
        (5, {"r": 8}, "1 <= a <= 7, got 8"),
        (9, {"a_hr": 9}, "1 <= a <= 8, got 9"),
        (7, {"k_lo": 0}, "at least one color"),
    ],
)
def test_scope_sizes_are_refused_before_any_draw(monkeypatch, lemma_id, change, message):
    # the smallest graph decides: n_lo for drawn graphs, else the cycle
    monkeypatch.setitem(lemmas.SCOPES, lemma_id, replace(lemmas.SCOPES[lemma_id], **change))

    def no_draws(*args):
        raise AssertionError("trials drawn before the sizes were checked")

    monkeypatch.setattr(lemmas, "_trials", no_draws)
    with pytest.raises(ValueError, match=message):
        lemmas.run_lemma(lemma_id, TRIALS, 0)


def relabeled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_is_cycle_on_every_labeled_graph_up_to_six_vertices():
    for n in range(7):
        hits = 0
        for bits in range(1 << n * (n - 1) // 2):
            g = from_pair_bits(n, bits)
            want = naive_is_cycle(g)
            assert lemmas._is_cycle(g) == want
            hits += want
        # (n-1)!/2 labeled n-cycles
        assert hits == (0 if n < 3 else len(list(permutations(range(n - 1)))) // 2)


@pytest.mark.parametrize("n", [7, 8])
def test_is_cycle_on_relabeled_cycles(n):
    rng = random.Random(n)
    two_cycles = disjoint_union(cycle(3), cycle(n - 3))
    for _ in range(50):
        perm = list(range(n))
        rng.shuffle(perm)
        for g, want in ((cycle(n), True), (two_cycles, False)):
            h = relabeled(g, perm)
            assert lemmas._is_cycle(h) == naive_is_cycle(h) == want
        chord = relabeled(Graph(n, list(cycle(n).edges()) + [(0, 2)]), perm)
        assert not lemmas._is_cycle(chord) and not naive_is_cycle(chord)
