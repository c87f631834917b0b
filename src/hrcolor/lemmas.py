"""Randomized trial suites for the small-graph disjunction facts.

Each suite id binds a graph scope, a palette rule, a hold-condition size,
and a resistance size; the underlying claim is that the disjunction
(hold condition fails) OR (not resistant) holds for every coloring in
scope, so a single surviving counterexample would falsify the source
result. Trials are reproducible from (seed, trials): draws happen in a
fixed order (size, edges, palette, density flag, color memberships).

The hold condition reads colors only, so each trial is settled from its
colors first. A trial that leaves some palette color on no vertex is
settled by one OR of its masks: no `a_hr` vertices hold the palette, so it
passes the hold test, and no part left by any attack holds it either, so
it is not resistant and the disjunction holds; the report counts these
trials as `palette_short`. When some `a_hr` vertices hold the whole
palette, the disjunction holds and the trial's graph is never built. Only
a full-palette trial that passes the hold test builds its graph from the
drawn bits (or takes the suite's fixed cycle) and runs the resistance
scan. The report counts the trials that passed the hold test, palette-short
ones included, as `resistance_checked`. The suite's sizes are checked once
per run, against its smallest graph.

The size, palette and sparse-membership draws are exact replays of
`randint` and `random()` through `getrandbits` (see `_trials`), so the
trial stream is the one the documented draw order gives.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import or_
from typing import Iterator

from .checker import _below, _check_attack_size, _first_cover, _scan
from .coloring import Multicoloring
from .graph import Graph, component_masks, cycle, from_pair_bits
from .record import Record


class LemmaScope(Record):
    lemma_id: int
    description: str
    fixed_cycle: int | None  # when set, every trial uses this cycle graph
    n_lo: int
    n_hi: int
    excluded_cycle: int | None  # resample when the draw is this cycle
    k_lo: int
    k_hi: int
    a_hr: int
    r: int


SCOPES: dict[int, LemmaScope] = {
    4: LemmaScope(4, "graphs on at most 7 vertices other than the 7-cycle, any palette up to 8",
                  None, 3, 7, 7, 1, 8, 3, 1),
    5: LemmaScope(5, "the 7-cycle with 6 colors",
                  7, 7, 7, None, 6, 6, 3, 1),
    7: LemmaScope(7, "graphs on at most 8 vertices other than the 8-cycle, any palette up to 9",
                  None, 4, 8, 8, 1, 9, 4, 1),
    9: LemmaScope(9, "the 8-cycle with 9 colors",
                  8, 8, 8, None, 9, 9, 4, 1),
    10: LemmaScope(10, "graphs on at most 8 vertices with 9 colors",
                   None, 4, 8, None, 9, 9, 4, 1),
    11: LemmaScope(11, "graphs on at most 12 vertices with 9 colors",
                   None, 4, 12, None, 9, 9, 4, 2),
    12: LemmaScope(12, "graphs on at most 16 vertices with 9 colors",
                   None, 4, 16, None, 9, 9, 4, 3),
}

LEMMA_IDS = tuple(sorted(SCOPES))


class Violation(Record):
    """A replayable counterexample to a suite's disjunction."""

    trial_index: int
    graph: Graph
    coloring: Multicoloring
    a_hr: int
    r: int


class LemmaRunReport(Record):
    lemma_id: int
    trials: int
    seed: int
    violations: int
    first_violation: Violation | None
    resistance_checked: int  # trials that passed the hold test
    palette_short: int  # of those, trials with a palette color on no vertex


def _is_cycle(g: Graph) -> bool:
    """Connected and 2-regular, i.e. the cycle on its vertex count."""
    closed = g.closed_masks
    if any(m.bit_count() != 3 for m in closed):
        return False
    return len(component_masks(closed, g.full_mask)) == 1


# `random()` builds a double from two outputs x, y as
# ((x >> 5) * 2**26 + (y >> 6)) / 2**53, so `random() < 1/4` iff x < 2**30
# and `random() < 3/4` iff x < 3 * 2**30: x's top byte is below 64 or 192.
# Each table maps that byte to the ASCII digit of the membership.
_SPARSE = bytes(48 + (b < 64) for b in range(256))
_DENSE = bytes(48 + (b < 192) for b in range(256))


def _trials(
    scope: LemmaScope, rng: random.Random, trials: int
) -> Iterator[tuple[int, int | None, int, list[int]]]:
    """Each trial's draws as (n, edge bits, palette size, color masks).

    The bits are the graph's pairs in `from_pair_bits` order, or None for a
    suite on its fixed cycle. An excluded cycle is redrawn; since every
    n-cycle has exactly n edges, only a draw of that size with n bits set
    is built to test it.

    The draws are those of `randint` for the size and the palette, and of
    n * k calls `random() < density` (vertex by vertex, color by color) for
    the memberships at density 1/4 or 3/4, replayed exactly through
    `getrandbits`: the memberships come from one block of 2 * n * k
    outputs, least significant first, of which each pair's first output's
    top byte decides. A fixed palette (k_lo = k_hi) draws nothing, as in
    the reference replay in `tests/test_lemmas.py`, although
    `randint(k, k)` would still take an output from the generator.
    """
    getrandbits = rng.getrandbits
    n_span = scope.n_hi - scope.n_lo + 1
    k_span = scope.k_hi - scope.k_lo + 1
    # `_below` of an empty range would draw forever where randint raises
    assert n_span >= 1 and k_span >= 1, "empty size or palette range"
    for _ in range(trials):
        if scope.fixed_cycle is not None:
            n, bits = scope.fixed_cycle, None
        else:
            while True:
                n = scope.n_lo + _below(getrandbits, n_span)
                bits = getrandbits(n * (n - 1) // 2)
                if not (n == scope.excluded_cycle and bits.bit_count() == n
                        and _is_cycle(from_pair_bits(n, bits))):
                    break
        k = scope.k_lo if k_span == 1 else scope.k_lo + _below(getrandbits, k_span)
        # one in ten trials probes sparse and dense colorings
        if rng.random() < 0.1:
            table = _SPARSE if rng.random() < 0.5 else _DENSE
            tops = getrandbits(64 * n * k).to_bytes(8 * n * k, "little")[3::8]
            member = int(tops.translate(table)[::-1], 2)
            word = (1 << k) - 1
            masks = [member >> v * k & word for v in range(n)]
        else:
            masks = [getrandbits(k) for _ in range(n)]
        yield n, bits, k, masks


def run_lemma(lemma_id: int, trials: int, seed: int) -> LemmaRunReport:
    """Run `trials` seeded random instances in the suite's scope and count
    violations of the disjunction; the first one is kept for replay."""
    if lemma_id not in SCOPES:
        raise ValueError(
            f"unknown lemma id {lemma_id}; valid ids: {', '.join(map(str, LEMMA_IDS))}"
        )
    if trials < 1:
        raise ValueError("trials must be at least 1")
    scope = SCOPES[lemma_id]
    # every trial graph has at least this many vertices
    smallest = scope.n_lo if scope.fixed_cycle is None else scope.fixed_cycle
    if scope.k_lo < 1:
        raise ValueError("palette must contain at least one color")
    _check_attack_size(smallest, scope.a_hr)
    _check_attack_size(smallest, scope.r)
    fixed = None if scope.fixed_cycle is None else cycle(scope.fixed_cycle)
    a_hr, r = scope.a_hr, scope.r
    violations = 0
    scanned = 0
    short = 0
    first: Violation | None = None
    for t, (n, bits, k, masks) in enumerate(_trials(scope, random.Random(seed), trials)):
        full = (1 << k) - 1
        if reduce(or_, masks) != full:
            # a color on no vertex: no a_hr vertices hold the palette, and
            # no part after any attack does, so the disjunction holds
            short += 1
            continue
        # a covering set fails the hold condition, so the trial holds
        if _first_cover(masks, full, a_hr) is not None:
            continue
        scanned += 1
        g = fixed if bits is None else from_pair_bits(n, bits)
        kappa = Multicoloring(k, masks)
        if _scan(g, kappa, r) is None:  # resistant too: the disjunction fails
            violations += 1
            if first is None:
                first = Violation(t, g, kappa, a_hr, r)
    return LemmaRunReport(
        lemma_id=lemma_id,
        trials=trials,
        seed=seed,
        violations=violations,
        first_violation=first,
        resistance_checked=scanned + short,
        palette_short=short,
    )
