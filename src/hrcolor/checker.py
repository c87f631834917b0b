"""Exhaustive and sampled verification of resistant multicolorings.

An attack by a set A of exactly `a` vertices removes A together with all
its neighbors. A coloring is `a`-resistant when every attack leaves some
connected component holding all palette colors, and it satisfies the hold
condition ("hr") when no `a` vertices jointly hold all colors. Both checks
enumerate attack sets in ascending lexicographic order, so reported
witnesses are the smallest failing sets.

The exhaustive scans are prefix-OR walks: each (a-1)-vertex prefix, in
lexicographic order, ORs its masks once and is extended by every larger
last vertex, so sets still come in rank order. The hold condition depends
on the colors alone, so `_first_cover` walks color masks only and never
reads the graph; the resistance scan `_scan` ORs closed-neighborhood
masks, and in its fused mode (`check_highly`) color masks on the same
pass. Resistance needs one full-color connected part per attack, not
whole components, so the single flood fill `_full_color_part` stops at the
first BFS level whose colors reach the palette and returns the part it
flooded. An attack whose removed mask misses the part the last resisted
attack left whole passes with no further work; otherwise the scan looks
through its short list of recent full-color parts, and fills only when
the attack hits every one of them. Any connected full-color set that
survives proves the attack resisted, so each attack gets the same verdict
as from a full flood fill, and witnesses and examined counts are those of
a plain scan.

Sampling draws each attack as a bit mask straight from the substream's
`getrandbits`, replaying `random.Random.sample(range(n), a)` draw for
draw, and reuses full-color parts the same way, so sampled counts and
first failures are those of a plain loop over `random.Random.sample`.

Scans are sequential: under CPython's GIL a thread pool gains no speed.
`check_hr` and `check_resistant` still accept a `threads` keyword and
ignore it, because the benchmark's tracer (`bench/tracing.py`) passes it
when it re-times the two halves of a fused scan; it goes when the
benchmark stops passing it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb, log
from typing import Sequence

from .coloring import Multicoloring
from .graph import Graph, VertexSet

_Found = tuple[int, tuple[int, ...]]  # (attack index, attack vertices)

# full-color parts a scan or a sample keeps for reuse; a full list costs up
# to one AND per part on each attack that hits the last part used
_RECENT_PARTS = 16


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

    Replaying with the same seed, trial count, and substream count
    (`workers`) reproduces the report exactly; reported first failures are
    re-verified genuine counterexamples.
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


def _check_attack_size(n: int, a: int) -> None:
    """Refuse an attack size outside 1..n; `search` checks with this too."""
    if not 1 <= a <= n:
        raise ValueError(f"attack size must satisfy 1 <= a <= {n}, got {a}")


def _validate(g: Graph, kappa: Multicoloring, a: int) -> None:
    """Check the coloring against the graph, then the attack size."""
    if len(kappa) != g.n:
        raise ValueError(
            f"coloring has {len(kappa)} entries for a graph on {g.n} vertices"
        )
    if kappa.palette_size < 1:
        raise ValueError("palette must contain at least one color")
    _check_attack_size(g.n, a)


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


def _first_cover(colors: Sequence[int], full: int, a: int) -> tuple[int, ...] | None:
    """The first set of `a` vertices in rank order whose color masks
    together hold the whole palette `full`, or None when no `a` vertices do.

    The hold condition reads colors only, never the graph. Each (a-1)-vertex
    prefix ORs its masks once and is extended by every larger last vertex,
    so sets come in rank order as in `_scan`.
    """
    n = len(colors)
    for prefix in combinations(range(n - 1), a - 1):
        lo = prefix[-1] + 1 if prefix else 0
        cm = 0
        for u in prefix:
            cm |= colors[u]
        for v in range(lo, n):
            if cm | colors[v] == full:
                return (*prefix, v)
    return None


def _scan(
    g: Graph, kappa: Multicoloring, a: int, fused: bool
) -> tuple[_Found | None, _Found | None]:
    """Scan all C(n, a) attack sets in rank order and return the first
    hold-condition failure (None unless `fused`) and the first resistance
    failure.

    An attack passes resistance without further work when its removed mask
    misses `part`, the full-color part the last resisted attack left whole
    (-1 forces the first fill). Otherwise the first part in `parts` that the
    mask misses becomes `part`, and only a mask that hits every listed part
    is flooded. `parts` holds the parts the fills returned, most recent
    first, at most `_RECENT_PARTS` of them; each is a connected full-color
    set, so any attack that misses one resists. Stops early once every
    wanted failure kind has been seen. The fused mode tests the hold
    condition on the same pass, so `check_highly` can count the sets a
    sequential scan needs to settle both verdicts.
    """
    n = g.n
    closed = g.closed_masks
    colors = kappa.masks
    full = (1 << kappa.palette_size) - 1
    all_mask = g.full_mask
    hr_first: _Found | None = None
    res_first: _Found | None = None
    need_hr = fused
    need_res = True
    parts: list[int] = []
    part = -1
    begin = 0  # rank of the first set extending the current prefix
    # a prefix ending in n-1 has no larger last vertex
    for prefix in combinations(range(n - 1), a - 1):
        lo = prefix[-1] + 1 if prefix else 0
        base = begin - lo  # rank of the set ending in v is base + v
        begin += n - lo
        prefix_rm = 0
        prefix_cm = 0
        for u in prefix:
            prefix_rm |= closed[u]
            prefix_cm |= colors[u]
        for v in range(lo, n):
            if need_hr and prefix_cm | colors[v] == full:
                hr_first = (base + v, (*prefix, v))
                need_hr = False
                if not need_res:
                    return hr_first, res_first
            if need_res:
                rm = prefix_rm | closed[v]
                if rm & part:
                    for p in parts:
                        if not rm & p:
                            part = p
                            break
                    else:
                        found = _full_color_part(closed, colors, full, all_mask & ~rm)
                        if found:
                            part = found
                            parts.insert(0, found)
                            del parts[_RECENT_PARTS:]
                        else:
                            res_first = (base + v, (*prefix, v))
                            need_res = False
                            if not need_hr:
                                return hr_first, res_first
    return hr_first, res_first


def check_hr(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> tuple[bool, VertexSet | None]:
    """Check that no set of exactly `a` vertices holds every palette color.

    Returns (True, None) on success, else (False, smallest covering set).
    `threads` is ignored (see the module docstring).
    """
    _validate(g, kappa, a)
    cover = _first_cover(kappa.masks, (1 << kappa.palette_size) - 1, a)
    if cover is None:
        return True, None
    return False, VertexSet.from_vertices(cover, g.n)


def check_resistant(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> tuple[bool, VertexSet | None]:
    """Check that every attack of `a` vertices leaves a full-color component.

    Returns (True, None) on success, else (False, smallest failing attack).
    `threads` is ignored, as in `check_hr`.
    """
    _validate(g, kappa, a)
    _, res_first = _scan(g, kappa, a, False)
    if res_first is None:
        return True, None
    return False, VertexSet.from_vertices(res_first[1], g.n)


def check_highly(g: Graph, kappa: Multicoloring, a: int) -> CheckReport:
    """Run both conditions over one enumeration pass and report witnesses."""
    _validate(g, kappa, a)
    hr_first, res_first = _scan(g, kappa, a, True)
    if hr_first is not None and res_first is not None:
        examined = max(hr_first[0], res_first[0]) + 1
    else:
        examined = comb(g.n, a)
    return CheckReport(
        hr_holds=hr_first is None,
        hr_witness=None if hr_first is None else VertexSet.from_vertices(hr_first[1], g.n),
        resistant=res_first is None,
        resistance_witness=(
            None if res_first is None else VertexSet.from_vertices(res_first[1], g.n)
        ),
        attack_sets_examined=examined,
    )


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

    Each attack is the set `random.Random.sample(range(n), a)` would
    return, drawn as a bit mask straight from the substream's `getrandbits`:
    by the same pool swaps on small populations, by the same rejection of
    repeated vertices on larger ones, and with each index drawn as
    `_randbelow` draws it. Resistance reuses one list of full-color parts
    as `_scan` does.
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
    # random.sample swaps in a pool list up to this many vertices and
    # rejects repeats on a set above it
    setsize = 21 + (4 ** ceil(log(a * 3, 4)) if a > 5 else 0)
    pooled = n <= setsize
    width = n.bit_length()  # _randbelow(n) draws this many bits at a time
    pool_draws = [(n - i, (n - i).bit_length()) for i in range(a)]
    vertices = list(range(n))

    hr_failures = 0
    res_failures = 0
    first_hr = 0  # attack masks; 0 until a failure is seen
    first_res = 0
    parts: list[int] = []
    part = -1  # as in _scan
    # substreams at index >= trials draw nothing
    for w in range(min(workers, trials)):
        count = base + (1 if w < extra else 0)
        getrandbits = random.Random(substream_seed(seed, w)).getrandbits
        for _ in range(count):
            attack = 0
            cm = 0
            rm = 0
            if pooled:
                pool = vertices[:]
                for size, bits in pool_draws:
                    j = getrandbits(bits)
                    while j >= size:
                        j = getrandbits(bits)
                    u = pool[j]
                    pool[j] = pool[size - 1]
                    attack |= 1 << u
                    cm |= colors[u]
                    rm |= closed[u]
            else:
                for _ in range(a):
                    u = getrandbits(width)
                    while u >= n or attack >> u & 1:
                        u = getrandbits(width)
                    attack |= 1 << u
                    cm |= colors[u]
                    rm |= closed[u]
            if cm == full:
                hr_failures += 1
                if not first_hr:
                    first_hr = attack
            if rm & part:
                for p in parts:
                    if not rm & p:
                        part = p
                        break
                else:
                    found = _full_color_part(closed, colors, full, all_mask & ~rm)
                    if found:
                        part = found
                        parts.insert(0, found)
                        del parts[_RECENT_PARTS:]
                    else:
                        res_failures += 1
                        if not first_res:
                            first_res = attack
    hr_set = VertexSet(first_hr, n) if first_hr else None
    res_set = VertexSet(first_res, n) if first_res else None
    if hr_set is not None:
        cm = 0
        for u in hr_set:
            cm |= colors[u]
        if cm != full:
            raise RuntimeError(
                f"sampled hold failure {hr_set.vertices()} does not hold every color"
            )
    if res_set is not None:
        removed = g.closed_neighborhood_set(res_set)
        if _full_color_part(closed, colors, full, all_mask & ~removed.mask):
            raise RuntimeError(
                f"sampled resistance failure {res_set.vertices()} "
                "leaves a full-color component"
            )
    return SampleReport(
        trials=trials,
        hr_failures=hr_failures,
        resistance_failures=res_failures,
        first_hr_failure=hr_set,
        first_resistance_failure=res_set,
        seed=seed,
        workers=workers,
    )
