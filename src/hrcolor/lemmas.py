"""Randomized trial suites for the small-graph disjunction facts.

Each suite id binds a graph scope, a palette rule, a hold-condition size,
and a resistance size; the underlying claim is that the disjunction
(hold condition fails) OR (not resistant) holds for every coloring in
scope, so a single surviving counterexample would falsify the source
result. Trials are reproducible from (seed, trials): draws happen in a
fixed order (size, edges, palette, density flag, color memberships).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checker import lemma_disjunction
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


def _is_cycle(g: Graph) -> bool:
    """Connected and 2-regular, i.e. the cycle on its vertex count."""
    closed = g.closed_masks
    if any(m.bit_count() != 3 for m in closed):
        return False
    return len(component_masks(closed, g.full_mask)) == 1


def _random_coloring(rng: random.Random, n: int, k: int, density: float) -> Multicoloring:
    if density == 0.5:
        return Multicoloring(k, [rng.getrandbits(k) for _ in range(n)])
    masks = []
    for _ in range(n):
        m = 0
        for c in range(k):
            if rng.random() < density:
                m |= 1 << c
        masks.append(m)
    return Multicoloring(k, masks)


def _sample_instance(
    scope: LemmaScope, rng: random.Random, fixed: Graph | None
) -> tuple[Graph, Multicoloring]:
    """One trial's draws; `fixed` is the suite's cycle, or None to draw a graph."""
    g = fixed
    while g is None:
        n = rng.randint(scope.n_lo, scope.n_hi)
        g = from_pair_bits(n, rng.getrandbits(n * (n - 1) // 2))
        if n == scope.excluded_cycle and _is_cycle(g):
            g = None
    k = scope.k_lo if scope.k_lo == scope.k_hi else rng.randint(scope.k_lo, scope.k_hi)
    # one in ten trials probes sparse and dense colorings
    if rng.random() < 0.1:
        density = 0.25 if rng.random() < 0.5 else 0.75
    else:
        density = 0.5
    kappa = _random_coloring(rng, g.n, k, density)
    return g, kappa


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
    rng = random.Random(seed)
    fixed = None if scope.fixed_cycle is None else cycle(scope.fixed_cycle)
    violations = 0
    first: Violation | None = None
    for t in range(trials):
        g, kappa = _sample_instance(scope, rng, fixed)
        if not lemma_disjunction(g, kappa, scope.a_hr, scope.r):
            violations += 1
            if first is None:
                first = Violation(t, g, kappa, scope.a_hr, scope.r)
    return LemmaRunReport(
        lemma_id=lemma_id,
        trials=trials,
        seed=seed,
        violations=violations,
        first_violation=first,
    )
