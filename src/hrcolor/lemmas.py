"""Randomized trial suites for the small-graph disjunction facts.

Each suite id binds a graph scope, a palette rule, a hold-condition size,
and a resistance size; the underlying claim is that the disjunction
(hold condition fails) OR (not resistant) holds for every coloring in
scope, so a single surviving counterexample would falsify the source
result. Trials are reproducible from (seed, trials): draws happen in a
fixed order (size, edges, palette, density flag, color memberships).

The hold condition reads colors only, so each trial is settled from its
colors first: when some `a_hr` vertices hold the whole palette, the
disjunction holds and the trial's graph is never built. Only a trial that
passes the hold test builds its graph from the drawn bits (or takes the
suite's fixed cycle) and runs the resistance scan; the report counts these
trials as `resistance_checked`. The suite's sizes are checked once per
run, against its smallest graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .checker import _check_attack_size, _first_cover, _scan
from .coloring import Multicoloring
from .graph import Graph, component_masks, cycle, from_pair_bits


@dataclass(frozen=True, slots=True)
class LemmaScope:
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


@dataclass(frozen=True, slots=True)
class Violation:
    """A replayable counterexample to a suite's disjunction."""

    trial_index: int
    graph: Graph
    coloring: Multicoloring
    a_hr: int
    r: int


@dataclass(frozen=True, slots=True)
class LemmaRunReport:
    lemma_id: int
    trials: int
    seed: int
    violations: int
    first_violation: Violation | None
    resistance_checked: int  # trials that passed the hold test


def _is_cycle(g: Graph) -> bool:
    """Connected and 2-regular, i.e. the cycle on its vertex count."""
    closed = g.closed_masks
    if any(m.bit_count() != 3 for m in closed):
        return False
    return len(component_masks(closed, g.full_mask)) == 1


def _random_masks(rng: random.Random, n: int, k: int, density: float) -> list[int]:
    if density == 0.5:
        return [rng.getrandbits(k) for _ in range(n)]
    masks = []
    for _ in range(n):
        m = 0
        for c in range(k):
            if rng.random() < density:
                m |= 1 << c
        masks.append(m)
    return masks


def _trials(
    scope: LemmaScope, rng: random.Random, trials: int
) -> Iterator[tuple[int, int | None, int, list[int]]]:
    """Each trial's draws as (n, edge bits, palette size, color masks).

    The bits are the graph's pairs in `from_pair_bits` order, or None for a
    suite on its fixed cycle. An excluded cycle is redrawn; since every
    n-cycle has exactly n edges, only a draw of that size with n bits set
    is built to test it.
    """
    for _ in range(trials):
        if scope.fixed_cycle is not None:
            n, bits = scope.fixed_cycle, None
        else:
            while True:
                n = rng.randint(scope.n_lo, scope.n_hi)
                bits = rng.getrandbits(n * (n - 1) // 2)
                if not (n == scope.excluded_cycle and bits.bit_count() == n
                        and _is_cycle(from_pair_bits(n, bits))):
                    break
        k = scope.k_lo if scope.k_lo == scope.k_hi else rng.randint(scope.k_lo, scope.k_hi)
        # one in ten trials probes sparse and dense colorings
        if rng.random() < 0.1:
            density = 0.25 if rng.random() < 0.5 else 0.75
        else:
            density = 0.5
        yield n, bits, k, _random_masks(rng, n, k, density)


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
    checked = 0
    first: Violation | None = None
    for t, (n, bits, k, masks) in enumerate(_trials(scope, random.Random(seed), trials)):
        # a covering set fails the hold condition, so the trial holds
        if _first_cover(masks, (1 << k) - 1, a_hr) is not None:
            continue
        checked += 1
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
        resistance_checked=checked,
    )
