"""Exhaustive and sampled verification of resistant multicolorings.

An attack by a set A of exactly `a` vertices removes A together with all
its neighbors. A coloring is `a`-resistant when every attack leaves some
connected component holding all palette colors, and it satisfies the hold
condition ("hr") when no `a` vertices jointly hold all colors. Both checks
enumerate attack sets in ascending lexicographic order, so reported
witnesses are the smallest failing sets.

The exhaustive scan is a prefix-OR walk: each (a-1)-vertex prefix, in
lexicographic order, ORs its closed-neighborhood and color masks once and
is extended by every larger last vertex, so sets still come in rank
order. Resistance needs one full-color connected part per attack, not
whole components, so the single flood fill `_full_color_part` stops at the
first BFS level whose colors reach the palette and returns the part it
flooded. An attack whose removed mask misses the last part returned leaves
that part whole and passes with no fill; otherwise a per-scan memo of
removed masks known to leave a full-color component skips repeated fills.
Sampling reuses the last part the same way. Each attack gets the same
verdict as from a full flood fill, so witnesses, examined counts, sampled
counts and the thread pool's contiguous rank partition are those of a
plain scan.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .coloring import Multicoloring
from .graph import Graph, VertexSet

_Found = tuple[int, tuple[int, ...]]  # (attack index, attack vertices)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Joint verdict of the hold condition and resistance for one attack size.

    Witnesses are present exactly for the failing condition and are the
    lexicographically smallest failing attack sets. `attack_sets_examined`
    is the number of sets a sequential scan needs to settle both verdicts:
    the full count C(n, a) whenever either condition holds, and one past
    the later of the two first failures when both fail.
    """

    hr_holds: bool
    hr_witness: VertexSet | None
    resistant: bool
    resistance_witness: VertexSet | None
    attack_sets_examined: int

    def __post_init__(self) -> None:
        if self.hr_holds == (self.hr_witness is not None):
            raise ValueError("hr witness must be present exactly on failure")
        if self.resistant == (self.resistance_witness is not None):
            raise ValueError("resistance witness must be present exactly on failure")

    @property
    def highly_resistant(self) -> bool:
        return self.hr_holds and self.resistant


@dataclass(frozen=True, slots=True)
class SampleReport:
    """Outcome of a seeded random sample of attack sets.

    Replaying with the same seed, trial count, and worker policy reproduces
    the report exactly; reported first failures are re-verified genuine
    counterexamples.
    """

    trials: int
    hr_failures: int
    resistance_failures: int
    first_hr_failure: VertexSet | None
    first_resistance_failure: VertexSet | None
    seed: int
    workers: int

    def __post_init__(self) -> None:
        if not 0 <= self.hr_failures <= self.trials:
            raise ValueError("hr failure count out of range")
        if not 0 <= self.resistance_failures <= self.trials:
            raise ValueError("resistance failure count out of range")
        if (self.hr_failures > 0) != (self.first_hr_failure is not None):
            raise ValueError("first hr failure must be present exactly when counted")
        if (self.resistance_failures > 0) != (self.first_resistance_failure is not None):
            raise ValueError(
                "first resistance failure must be present exactly when counted"
            )


def _validate(g: Graph, kappa: Multicoloring, a: int) -> None:
    if len(kappa) != g.n:
        raise ValueError(
            f"coloring has {len(kappa)} entries for a graph on {g.n} vertices"
        )
    if kappa.palette_size < 1:
        raise ValueError("palette must contain at least one color")
    if not 1 <= a <= g.n:
        raise ValueError(f"attack size must satisfy 1 <= a <= {g.n}, got {a}")


def _full_color_part(
    closed: tuple[int, ...],
    colors: tuple[int, ...],
    full: int,
    survivors: int,
) -> int:
    """A connected set of `survivors` whose color union is the whole palette
    `full`, as a mask, or 0 when no component of the graph induced on
    `survivors` has every color.

    Each component is flooded level by level and the fill returns at the
    first level where the colors reach `full`, so the part is the vertices
    flooded so far: connected, but not always a whole component.
    """
    rem = survivors
    while rem:
        frontier = rem & -rem
        comp = 0
        cu = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                u = b.bit_length() - 1
                nxt |= closed[u]
                cu |= colors[u]
                f ^= b
            if cu == full:
                return comp
            frontier = nxt & survivors & ~comp
        rem &= ~comp
    return 0


def _scan_range(
    closed: tuple[int, ...],
    colors: tuple[int, ...],
    full: int,
    all_mask: int,
    n: int,
    a: int,
    start: int,
    stop: int,
    want_hr: bool,
    want_res: bool,
) -> tuple[_Found | None, _Found | None]:
    """Scan attack sets with ranks in [start, stop) and return the first
    hold-condition failure and the first resistance failure in that range.

    Prefix blocks (see the module docstring) wholly outside the range are
    skipped and the two end blocks clipped. An attack passes resistance
    without a fill when its removed mask misses `part`, the last full-color
    part a fill returned (-1 forces the first fill), or is in `passing`,
    the removed masks known to leave a full-color component; a failing mask
    needs no entry, since the first failure settles resistance. Stops early
    once every wanted failure kind has been seen.
    """
    hr_first: _Found | None = None
    res_first: _Found | None = None
    need_hr = want_hr
    need_res = want_res
    passing: set[int] = set()
    part = -1
    end = 0  # rank one past the current block
    # a prefix ending in n-1 has no larger last vertex
    for prefix in combinations(range(n - 1), a - 1):
        lo = prefix[-1] + 1 if prefix else 0
        begin, end = end, end + n - lo
        if end <= start:
            continue
        if begin >= stop:
            break
        prefix_rm = 0
        prefix_cm = 0
        for u in prefix:
            prefix_rm |= closed[u]
            prefix_cm |= colors[u]
        base = begin - lo  # rank of the set ending in v is base + v
        first = lo if begin >= start else start - base
        for v in range(first, n if end <= stop else stop - base):
            if need_hr and prefix_cm | colors[v] == full:
                hr_first = (base + v, (*prefix, v))
                need_hr = False
                if not need_res:
                    return hr_first, res_first
            if need_res:
                rm = prefix_rm | closed[v]
                if rm & part and rm not in passing:
                    found = _full_color_part(closed, colors, full, all_mask & ~rm)
                    if found:
                        part = found
                        passing.add(rm)
                    else:
                        res_first = (base + v, (*prefix, v))
                        need_res = False
                        if not need_hr:
                            return hr_first, res_first
    return hr_first, res_first


def _scan_attacks(
    g: Graph,
    kappa: Multicoloring,
    a: int,
    threads: int,
    want_hr: bool,
    want_res: bool,
) -> tuple[_Found | None, _Found | None, int]:
    """Enumerate all C(n, a) attack sets, optionally split over a thread pool.

    The split is a fixed contiguous partition by rank and results are
    min-reduced, so verdicts and witnesses do not depend on the thread count.
    """
    n = g.n
    closed = g.closed_masks
    colors = kappa.masks
    full = (1 << kappa.palette_size) - 1
    all_mask = g.full_mask
    total = comb(n, a)
    threads = max(1, min(threads, total))
    if threads == 1:
        hr_first, res_first = _scan_range(
            closed, colors, full, all_mask, n, a, 0, total, want_hr, want_res
        )
        return hr_first, res_first, total

    bounds = [total * i // threads for i in range(threads + 1)]

    def run(i: int) -> tuple[_Found | None, _Found | None]:
        return _scan_range(
            closed, colors, full, all_mask, n, a,
            bounds[i], bounds[i + 1], want_hr, want_res,
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, range(threads)))
    hr_hits = [p[0] for p in parts if p[0] is not None]
    res_hits = [p[1] for p in parts if p[1] is not None]
    hr_first = min(hr_hits, key=lambda t: t[0]) if hr_hits else None
    res_first = min(res_hits, key=lambda t: t[0]) if res_hits else None
    return hr_first, res_first, total


def check_hr(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> tuple[bool, VertexSet | None]:
    """Check that no set of exactly `a` vertices holds every palette color.

    Returns (True, None) on success, else (False, smallest covering set).
    """
    _validate(g, kappa, a)
    hr_first, _, _ = _scan_attacks(g, kappa, a, threads, True, False)
    if hr_first is None:
        return True, None
    return False, VertexSet.from_vertices(hr_first[1], g.n)


def check_resistant(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> tuple[bool, VertexSet | None]:
    """Check that every attack of `a` vertices leaves a full-color component.

    Returns (True, None) on success, else (False, smallest failing attack).
    """
    _validate(g, kappa, a)
    _, res_first, _ = _scan_attacks(g, kappa, a, threads, False, True)
    if res_first is None:
        return True, None
    return False, VertexSet.from_vertices(res_first[1], g.n)


def check_highly(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> CheckReport:
    """Run both conditions over one enumeration pass and report witnesses."""
    _validate(g, kappa, a)
    hr_first, res_first, total = _scan_attacks(g, kappa, a, threads, True, True)
    if hr_first is not None and res_first is not None:
        examined = max(hr_first[0], res_first[0]) + 1
    else:
        examined = total
    return CheckReport(
        hr_holds=hr_first is None,
        hr_witness=None if hr_first is None else VertexSet.from_vertices(hr_first[1], g.n),
        resistant=res_first is None,
        resistance_witness=(
            None if res_first is None else VertexSet.from_vertices(res_first[1], g.n)
        ),
        attack_sets_examined=examined,
    )


def lemma_disjunction(g: Graph, kappa: Multicoloring, a_hr: int, r: int) -> bool:
    """True when the hold condition fails at size `a_hr` or the coloring is
    not `r`-resistant.

    This is the executable shape shared by the small-graph structure facts:
    each of them asserts the disjunction for every coloring in its scope.
    """
    _validate(g, kappa, a_hr)
    _validate(g, kappa, r)
    hr_ok, _ = check_hr(g, kappa, a_hr)
    if not hr_ok:
        return True
    res_ok, _ = check_resistant(g, kappa, r)
    return not res_ok


def substream_seed(seed: int, worker: int) -> int:
    """Deterministic 64-bit child seed for a (seed, worker index) pair."""
    digest = hashlib.sha256(f"{seed}:{worker}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_check(
    g: Graph,
    kappa: Multicoloring,
    a: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> SampleReport:
    """Sample `trials` attack sets uniformly with a seeded generator.

    Sampling uses the Mersenne Twister (random.Random). Trials are split
    across `workers` deterministic substreams, worker i drawing from a
    generator seeded by substream_seed(seed, i), so a report is reproduced
    exactly by its recorded (seed, trials, workers). Any reported failure
    is re-verified against the definition before the report is returned,
    and a failure that does not replay raises RuntimeError.
    """
    _validate(g, kappa, a)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = g.n
    closed = g.closed_masks
    colors = kappa.masks
    full = (1 << kappa.palette_size) - 1
    all_mask = g.full_mask
    base, extra = divmod(trials, workers)

    hr_failures = 0
    res_failures = 0
    first_hr: tuple[int, ...] | None = None
    first_res: tuple[int, ...] | None = None
    part = -1  # as in _scan_range
    population = range(n)
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        sample = random.Random(substream_seed(seed, w)).sample
        for _ in range(count):
            attack = sample(population, a)
            cm = 0
            rm = 0
            for u in attack:
                cm |= colors[u]
                rm |= closed[u]
            if cm == full:
                hr_failures += 1
                if first_hr is None:
                    first_hr = tuple(sorted(attack))
            if rm & part:
                found = _full_color_part(closed, colors, full, all_mask & ~rm)
                if found:
                    part = found
                else:
                    res_failures += 1
                    if first_res is None:
                        first_res = tuple(sorted(attack))
    if first_hr is not None:
        cm = 0
        for u in first_hr:
            cm |= colors[u]
        if cm != full:
            raise RuntimeError(f"sampled hold failure {first_hr} does not hold every color")
    if first_res is not None:
        removed = g.closed_neighborhood_set(VertexSet.from_vertices(first_res, n))
        if _full_color_part(closed, colors, full, all_mask & ~removed.mask):
            raise RuntimeError(
                f"sampled resistance failure {first_res} leaves a full-color component"
            )
    return SampleReport(
        trials=trials,
        hr_failures=hr_failures,
        resistance_failures=res_failures,
        first_hr_failure=(
            None if first_hr is None else VertexSet.from_vertices(first_hr, n)
        ),
        first_resistance_failure=(
            None if first_res is None else VertexSet.from_vertices(first_res, n)
        ),
        seed=seed,
        workers=workers,
    )
