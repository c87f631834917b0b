"""Exhaustive and sampled verification of resistant multicolorings.

An attack by a set A of exactly `a` vertices removes A together with all
its neighbors. A coloring is `a`-resistant when every attack leaves some
connected component holding all palette colors, and it satisfies the hold
condition ("hr") when no `a` vertices jointly hold all colors. Both checks
report the first failing set in ascending lexicographic (rank) order, so
witnesses are the smallest failing sets.

The hold condition depends on the colors alone, so `_first_cover` reads
color masks only and never the graph. It searches vertex prefixes depth
first in rank order, and a prefix's state is (s, c): s vertices still to
choose from its tail lo..n-1, and the union c of its masks. Whether s
tail vertices complete c to the palette depends on the state and the
tail alone, so the search keeps failed[(s, c)], the least lo from which
the state has failed, and skips a prefix in a failed state whose tail
starts there or later: its tail is a subset. Only failing prefixes are
skipped, so the first cover found is the rank-first one. Colorings that
repeat masks, as the paper's constructions do, have few states, and
paper-21 at a = 4 enters far fewer prefixes than its C(21, 4) = 5,985
sets. The search is skipped when k > a * max|κ(v)|, since `a` vertices
then hold at most a * max|κ(v)| < k colors between them.

Resistance needs one full-color connected part per attack, not whole
components, so the single flood fill `_fill` stops at the first BFS
level whose colors reach the palette and returns the part P it flooded.
Any such part that an attack leaves whole proves the attack resisted.
Closed neighborhoods are symmetric, so a vertex removes part of P (hits
P) iff it lies in N[P], the union of closed[u] over u in P; the fill ORs
exactly these masks to find each next level, so it returns N[P] with P
and nothing ORs them again. `_full_color_part` runs the fill on each
component of the survivors, and the packing below from each start
vertex. The walk `_walk` visits attack prefixes depth first in rank
order and keeps the N[P] of the last `_RECENT_PARTS` parts its fills
returned. Take a prefix with s attackers still to add, all from its tail
lo..n-1, and call a kept part unhit when no attacker of the prefix hits
it. The walk skips every attack below the prefix when

* (a) some unhit P has N[P] ∩ tail empty: no attacker still to come can
  hit P; or
* (b) more than s unhit parts have pairwise disjoint N[P]: each attacker
  still to come lies in at most one of these sets, so s of them hit at
  most s of these parts and leave one whole;

and at the last attacker it tries only the tail vertices that lie in the
N[P] of every unhit part, since any other vertex leaves an unhit part
whole. Every skipped attack therefore leaves a full-color part whole and
is resisted. Every attack the walk does reach hits every kept part and is
flooded, in rank order, so the first failure it finds is the first
failing attack of a plain scan over all C(n, a) sets.

These rules use one fact about a part P: an attack that misses N[P]
leaves P whole, inside one surviving component. So they hold for any
part test that a connected superset of a passing part also passes, and
`_walk` takes the test as a flood function on closed-neighborhood masks
that returns a passing part with its N[P]. Two tests use it, and both
pass on such supersets: "holds every color", which the resistance walk
`_scan` floods with `_full_color_part`, since a superset holds every
color its subset holds; and "has more than a vertices", which
`search.blocking_attack` floods with `_large`, since a superset is at
least as large. `_large` runs `_fill` with a palette that no part
reaches, so each fill floods a whole component and returns its N[P].

Rule (b) also applies at the empty prefix, before any attack is walked
or sampled: a + 1 connected full-color parts with pairwise disjoint N[P]
prove a-resistance outright, since each attacker lies in at most one
N[P]. The walk finds such parts only as fills of attacks it floods, and
its parts may overlap, so `_packing` picks them up front instead, with
small N[P]: it runs `_fill` from start vertices most colors first, then
fewest neighbors first, and takes N[N[P]] out of the free vertices after
each part P. `_scan` tries it after counting the full-color components and
before the component rounds below (or, on a connected graph, before the
whole-graph walk), and returns None when it finds more than `a` parts.
So clique-partition:a at a <= its design size, settled by its a + 1
cliques, never runs it; nor does any check whose full-color components
have no room for more than `a` parts between them (see `_scan`), as on
all of the paper's constructions.

A graph of two or more components is first settled component by
component. Let κ on component H_i be b-resistant for every b <= ρ_i and
no larger b, with ρ_i = -1 when H_i lacks a color (0 attackers already
leave it no full-color part). Resistance only weakens as attackers are
added, so this is well defined. Then κ is a-resistant on G iff
Σ(ρ_i + 1) >= a + 1: ρ_i + 1 attackers inside each H_i leave no full-color
part anywhere, and an a-attack, which puts fewer than ρ_i + 1 of them in
some H_i when the sum exceeds a, leaves a full-color part there. `_scan`
counts 1 for each full-color component and, when the packing falls short,
raises the count round by round, walking each component's relabelled
masks with b = 1, 2, ... attackers, and returns None as soon as the count
passes `a`. Only a coloring that is not `a`-resistant, or a connected
graph that the packing does not settle, reaches the whole-graph walk,
which finds the rank-first witness.

`check_highly` reports the hold test's and the walk's witnesses, and as
`attack_sets_examined` the count a sequential scan needs to settle both
verdicts, computed from the witnesses' ranks; sets the walk skips or
never reaches are counted all the same.

Sampling replays `random.Random.sample(range(n), a)` on the substream's
`getrandbits`, so sampled counts and first failures are those of a plain
loop over `random.Random.sample`. For n < 256 the draws come in blocks,
cut and filtered in C; a trial ORs one packed word per vertex; and the
sampler keeps its parts in a ring of slots like the walk's. An attack A
leaves a part P whole iff A ∩ N[P] is empty, so a trial floods only when
it hits every kept part (see `sample_check`). The ring starts with the
first min(a + 1, `_RECENT_PARTS`) parts of the packing, so when the
packing has a + 1 parts no trial floods at all. Every part, from a trial
or the packing, enters the ring with the N[P] that its fill returned.

Checks are sequential: under CPython's GIL a thread pool gains no speed.
`check_hr` and `check_resistant` still accept a `threads` keyword and
ignore it, because the benchmark's tracer (`bench/tracing.py`) passes it
when it re-times the two halves of `check_highly`; it goes when the
benchmark stops passing it.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import chain
from math import ceil, comb, log
from typing import Callable, Iterable, Iterator, Sequence

from .coloring import Multicoloring
from .graph import Graph, VertexSet, _bits, component_masks
from .record import Record

# parts the walk or a sample keeps for reuse, one per slot of a
# ring; the walk pays one memo entry per distinct set of unhit slots
_RECENT_PARTS = 16
# Mersenne Twister outputs a sampler draws at a time for n < 256: 4 KB
_BLOCK_WORDS = 1024


class CheckReport(Record):
    """Joint verdict of the hold condition and resistance for one attack size.

    Witnesses are present exactly for the failing condition and are the
    lexicographically smallest failing attack sets. `attack_sets_examined`
    is the number of sets a sequential scan needs to settle both verdicts:
    the full count C(n, a) whenever either condition holds, and one past
    the later of the two first failures when both fail. It is not the
    number of sets the checker touched: the resistance walk skips whole
    subtrees of attacks, and the hold test may be settled by a bound.
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


class SampleReport(Record):
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


def _fill(
    closed: tuple[int, ...], colors: tuple[int, ...], full: int, region: int, frontier: int
) -> tuple[int, int]:
    """Grow a connected part P of `region` from the vertices `frontier`,
    level by level, until its colors reach the palette `full`, and return
    (P, N[P]) as masks.

    N[P], the union of closed[u] over u in P, is what the fill ORs to find
    each next level, so it costs nothing more. When no level reaches
    `full`, the fill has flooded the whole component C of `frontier` in
    `region`, and it returns (0, N[C]); N[C] ∩ region is C.
    """
    part = reach = cu = 0
    while frontier:
        part |= frontier
        while frontier:
            b = frontier & -frontier
            u = b.bit_length() - 1
            reach |= closed[u]
            cu |= colors[u]
            frontier ^= b
        if cu == full:
            return part, reach
        frontier = reach & region & ~part
    return 0, reach


def _full_color_part(
    closed: tuple[int, ...], colors: tuple[int, ...], full: int, survivors: int
) -> tuple[int, int]:
    """A connected set P of `survivors` whose color union is the whole
    palette `full`, and N[P], as masks; or (0, 0) when no component of the
    graph induced on `survivors` has every color.

    `_fill` runs on each component in turn, from its lowest vertex, so P is
    the vertices flooded up to the first level where the colors reach
    `full`: connected, but not always a whole component.
    """
    rem = survivors
    while rem:
        part, reach = _fill(closed, colors, full, survivors, rem & -rem)
        if part:
            return part, reach
        rem &= ~reach
    return 0, 0


def _packing(
    closed: tuple[int, ...], colors: tuple[int, ...], full: int, limit: int
) -> list[tuple[int, int]]:
    """Up to `limit` connected parts P, each with its N[P], as masks, that
    each hold the whole palette `full` and whose N[P] are pairwise
    disjoint, so that more than a of them prove a-resistance (rule (b) at
    the empty prefix; see the module docstring).

    Start vertices are tried most colors first, then fewest neighbors
    first, then in ascending order, so that parts and their N[P] come out
    small. Each start runs `_fill` over the free vertices. A part P takes
    N[N[P]] out of the free vertices, so no later part comes within
    distance 2 of it. A fill that falls short has flooded a whole free
    component, and none of its vertices is tried again.
    """
    n = len(closed)
    free = starts = (1 << n) - 1
    parts: list[tuple[int, int]] = []
    for v in sorted(
        range(n), key=lambda u: (-colors[u].bit_count(), closed[u].bit_count())
    ):
        if not starts:  # no vertex is left that could start a part
            break
        if not starts >> v & 1:
            continue
        part, reach = _fill(closed, colors, full, free, 1 << v)
        if not part:  # the free component of v holds no full-color part
            starts &= ~reach
            continue
        parts.append((part, reach))
        if len(parts) == limit:
            break
        while reach:
            b = reach & -reach
            free &= ~closed[b.bit_length() - 1]
            reach ^= b
        starts &= free
    return parts


def _large(closed: tuple[int, ...], a: int, survivors: int) -> tuple[int, int]:
    """The first component C of the `survivors` mask with more than `a`
    vertices, and N[C], or (0, 0): the part test of `search.blocking_attack`
    and sweeps. Each component is flooded whole: `_fill` runs with the
    closed masks as colors and the palette -1, which no union of masks
    equals."""
    rem = survivors
    while rem:
        reach = _fill(closed, closed, -1, survivors, rem & -rem)[1]
        comp = reach & survivors
        if comp.bit_count() > a:
            return comp, reach
        rem &= ~comp
    return 0, 0


def _first_cover(colors: Sequence[int], full: int, a: int) -> tuple[int, ...] | None:
    """The first set of `a` vertices in rank order whose color masks
    together hold the whole palette `full`, or None when no `a` vertices do.

    A depth-first search over prefixes in rank order, on arrays indexed by
    depth, that skips a prefix whose state (s vertices to add, union c)
    failed from a tail start at or before its own (see the module
    docstring); the memo gains one entry per failing prefix, so it never
    outgrows the prefixes entered. The first prefix 0..a-2 and its tail
    are tried before anything is set up: most of the lemma suites' calls
    find their cover there.
    """
    n = len(colors)
    if a > n:
        return None
    cm = 0
    for u in range(a - 1):
        cm |= colors[u]
    for v in range(a - 1, n):
        if cm | colors[v] == full:
            return (*range(a - 1), v)
    if a == 1:
        return None
    failed = {(1, cm): a - 1}  # (s, c) -> the least tail start it failed from
    unions = [0] * a  # unions[j]: the union of the first j vertices chosen
    picks = [0] * a  # picks[j]: the vertex chosen at depth j
    j = 0  # the depth of the prefix being extended
    v = -1  # the last vertex tried after it
    while True:
        v += 1
        s = a - j
        if v > n - s:  # every extension failed: so does the prefix
            if not j:
                return None
            j -= 1
            v = picks[j]
            failed[s, unions[j + 1]] = v + 1
            continue
        c = unions[j] | colors[v]
        if failed.get((s - 1, c), n) <= v + 1:
            continue
        if s == 2:
            for w in range(v + 1, n):
                if c | colors[w] == full:
                    return (*picks[:j], v, w)
            failed[1, c] = v + 1
            continue
        picks[j] = v
        j += 1
        unions[j] = c


def _rank(attack: Sequence[int], n: int) -> int:
    """Rank of the sorted `attack` among the len(attack)-sets of range(n) in
    lexicographic order: C(n, a) - 1 less the sets that come after it, which
    agree with it up to some position i and hold a larger vertex there."""
    a = len(attack)
    return comb(n, a) - 1 - sum(comb(n - 1 - v, a - i) for i, v in enumerate(attack))


def _cover(kappa: Multicoloring, a: int) -> tuple[int, ...] | None:
    """`_first_cover` on the coloring, skipped when no `a` vertices can hold
    all k colors because each holds at most max|κ(v)| of them."""
    k = kappa.palette_size
    if k > a * max(m.bit_count() for m in kappa.masks):
        return None
    return _first_cover(kappa.masks, (1 << k) - 1, a)


def _fill_slot(nbhd: list[int], marks: list[int], i: int, bit: int, reach: int) -> None:
    """Put a full-color part whose N[P] is `reach` in slot i of a ring:
    flip `bit` in the marks of the vertices that join or leave the slot's
    N[P], so each vertex's marks hold the slots it hits, and store `reach`
    in nbhd[i]."""
    for u in _bits(nbhd[i] ^ reach):
        marks[u] ^= bit
    nbhd[i] = reach


def _scan(g: Graph, kappa: Multicoloring, a: int) -> tuple[int, ...] | None:
    """The first attack in rank order that leaves no full-color part, or
    None when the coloring is `a`-resistant.

    Three tests that prove resistance run before any attack is walked,
    cheapest first: more than `a` full-color components; a packing
    (`_packing`) of more than `a` full-color parts with pairwise disjoint
    N[P]; and, on a graph of two or more components, the component rounds
    (`_components_resist`). Only when all three fall short does `_walk`
    with the full-color flood run on the whole graph, which finds the
    rank-first failing attack.

    The packing is skipped when the full-color components have no room
    for more than `a` parts. A part P holds every color, so it has at
    least ceil(k / max|κ(v)|) vertices; when a component of m vertices
    holds two or more parts, none of them is the whole component, so each
    N[P] has at least one vertex more than P, and their N[P] are
    disjoint: such a component holds at most
    max(1, m // (1 + ceil(k / max|κ(v)|))) parts. On the paper's
    constructions every component holds at most one.
    """
    closed = g.closed_masks
    colors = kappa.masks
    k = kappa.palette_size
    full = (1 << k) - 1
    comps = component_masks(closed, g.full_mask)
    counted = []  # the vertices of each full-color component
    for comp in comps:
        vs = [*_bits(comp)]
        cu = 0
        for u in vs:
            cu |= colors[u]
        if cu == full:
            counted.append(vs)
    if len(counted) > a:
        return None
    if counted:
        room = 1 + ceil(k / max(map(int.bit_count, colors)))  # least |N[P]|
        if (
            sum(max(1, len(vs) // room) for vs in counted) > a
            and len(_packing(closed, colors, full, a + 1)) > a
        ):
            return None
    if len(comps) > 1 and _components_resist(closed, colors, full, counted, a):
        return None
    return _walk(closed, a, partial(_full_color_part, closed, colors, full))


def _components_resist(
    closed: tuple[int, ...],
    colors: tuple[int, ...],
    full: int,
    counted: list[list[int]],
    a: int,
) -> bool:
    """Whether the components make the coloring `a`-resistant, that is,
    Σ(ρ_i + 1) >= a + 1 (see the module docstring), given the vertices of
    the full-color components, `counted`, and that there are at most `a`
    of them.

    Each full-color component counts 1 for ρ_i >= 0. Then rounds
    b = 1, 2, ... walk each component still counting with `b` attackers:
    one that resists counts 1 more, one that fails stops counting, and one
    of m vertices stops after b = m - 1, since m attackers remove it.
    Returns True once the count passes `a`, False when no component is
    left counting below it.
    """
    total = len(counted)
    # relabelled when first walked, since a round can end at any component
    walks: Iterable[tuple[tuple[int, ...], Callable[[int], int]]] = (
        _induced(closed, colors, full, vs) for vs in counted if len(vs) > 1
    )
    b = 1
    while True:
        left = []
        for sub, flood in walks:
            if _walk(sub, b, flood) is None:
                total += 1
                if total > a:
                    return True
                if len(sub) > b + 1:
                    left.append((sub, flood))
        if not left:
            return False
        walks = left
        b += 1


def _induced(
    closed: tuple[int, ...], colors: tuple[int, ...], full: int, vs: list[int]
) -> tuple[tuple[int, ...], Callable[[int], int]]:
    """The closed masks of the component `vs` (ascending), with vs[i]
    relabelled i, and its full-color flood. A component's closed
    neighborhoods lie inside it, so each relabels bit by bit."""
    relabel = {1 << u: 1 << i for i, u in enumerate(vs)}
    sub = []
    for u in vs:
        m = closed[u]
        x = 0
        while m:
            b = m & -m
            x |= relabel[b]
            m ^= b
        sub.append(x)
    masks = tuple(sub)
    return masks, partial(_full_color_part, masks, tuple(colors[u] for u in vs), full)


def _walk(
    closed: tuple[int, ...], a: int, flood: Callable[[int], tuple[int, int]]
) -> tuple[int, ...] | None:
    """The first attack in rank order, on the graph with these closed
    neighborhoods, whose survivors hold no part, or None when every attack
    leaves one.

    `flood(survivors)` returns (P, N[P]): a connected set P of the
    `survivors` mask that passes the walk's part test, and its closed
    neighborhood, which the flood has ORed to grow P; or P = 0 when no
    component of the survivors passes it. Any connected superset of a
    passing part must pass too, so that an attack that misses the N[P] of
    a kept part P leaves a passing component and is rightly skipped (see
    the module docstring).

    A depth-first walk over attack prefixes in rank order, on an explicit
    stack, that skips what the module docstring's rules allow (`bound`).
    The walk keeps the N[P] of the last `_RECENT_PARTS` parts its fills
    returned in a ring of slots (`_fill_slot`), and for each vertex the
    slots whose N[P] holds it, so adding an attacker updates a prefix's
    unhit slots with one AND. A new part is unhit by every prefix on the
    stack, since the attack that found it misses it. Each prefix is
    bounded again before each next attacker, so parts found below it
    count at once.
    The walk starts with no part kept, so its first leaf, the attack
    0..a-1, is always flooded.
    """
    n = len(closed)
    all_mask = (1 << n) - 1
    nbhd = [0] * _RECENT_PARTS  # N[P] of the part P in each slot
    hits = [0] * n  # the slots whose N[P] holds each vertex
    fills = 0  # parts found so far; the next goes to slot fills % _RECENT_PARTS
    # unhit slots -> (the AND of their N[P], the least over them of the
    # last vertex in N[P], and how many of them a greedy pass finds with
    # pairwise disjoint N[P]); between two fills every prefix is bounded
    # again before each next attacker, mostly with the same unhit slots
    memo: dict[int, tuple[int, int, int]] = {}
    # per prefix on the stack: its removed mask, its unhit slots and the
    # last vertex tried after it
    stack: list[list[int]] = []

    def keep(reach: int) -> None:
        """Put the part whose N[P] is `reach` in the oldest slot."""
        nonlocal fills
        i = fills % _RECENT_PARTS
        bit = 1 << i
        _fill_slot(nbhd, hits, i, bit, reach)
        for frame in stack:  # every prefix on the stack leaves the part whole
            frame[1] |= bit
        fills += 1
        memo.clear()

    def bound(unhit: int, lo: int, s: int) -> tuple[int, int]:
        """(hi, cand) for a prefix with these unhit slots, tail lo..n-1 and
        s attackers to add: only a next attacker up to hi can lead to an
        attack that hits every unhit part (hi < lo skips the prefix), and
        when s = 1 only one in `cand` can."""
        got = memo.get(unhit)
        if got is None:
            both = all_mask
            low = n
            used = packed = 0
            for i in _bits(unhit):
                reach = nbhd[i]
                both &= reach
                low = min(low, reach.bit_length() - 1)  # the last vertex that hits P
                if not reach & used:
                    used |= reach
                    packed += 1
            got = memo[unhit] = both, low, packed
        both, low, packed = got
        if packed > s:
            return -1, 0
        return min(low, n - s), both & (all_mask >> lo << lo)

    rm, unhit, lo = 0, 0, 0  # the prefix to enter: the empty one
    while True:
        s = a - len(stack)
        if s == 1:
            cand = bound(unhit, lo, 1)[1]
            for v in _bits(cand):
                if cand >> v & 1:  # no part found at an earlier v misses it
                    part, reach = flood(all_mask & ~(rm | closed[v]))
                    if not part:
                        return (*(frame[2] for frame in stack), v)
                    keep(reach)
                    cand &= reach
        else:
            stack.append([rm, unhit, lo - 1])
        while stack:
            frame = stack[-1]
            rm, unhit, v = frame
            v += 1
            if v <= bound(unhit, v, a - len(stack) + 1)[0]:
                break
            stack.pop()
        else:
            return None
        frame[2] = v
        rm |= closed[v]
        unhit &= ~hits[v]
        lo = v + 1


def check_hr(
    g: Graph, kappa: Multicoloring, a: int, *, threads: int = 1
) -> tuple[bool, VertexSet | None]:
    """Check that no set of exactly `a` vertices holds every palette color.

    Returns (True, None) on success, else (False, smallest covering set).
    `threads` is ignored (see the module docstring).
    """
    _validate(g, kappa, a)
    cover = _cover(kappa, a)
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
    failing = _scan(g, kappa, a)
    if failing is None:
        return True, None
    return False, VertexSet.from_vertices(failing, g.n)


def check_highly(g: Graph, kappa: Multicoloring, a: int) -> CheckReport:
    """Run the hold test and the resistance walk and report witnesses."""
    _validate(g, kappa, a)
    n = g.n
    cover = _cover(kappa, a)
    failing = _scan(g, kappa, a)
    if cover is not None and failing is not None:
        examined = max(_rank(cover, n), _rank(failing, n)) + 1
    else:
        examined = comb(n, a)
    # positional, once per op: a keyword call binds through Record._bind
    return CheckReport(
        cover is None,
        None if cover is None else VertexSet.from_vertices(cover, n),
        failing is None,
        None if failing is None else VertexSet.from_vertices(failing, n),
        examined,
    )


def substream_seed(seed: int, worker: int) -> int:
    """Deterministic 64-bit child seed for a (seed, worker index) pair."""
    import hashlib  # here, not at the top: only `check --sample` needs it

    digest = hashlib.sha256(f"{seed}:{worker}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _below(getrandbits: Callable[[int], int], span: int) -> int:
    """`randrange(span)` exactly as CPython draws it: `getrandbits` of
    span's bit length, drawn again until the value is below span."""
    width = span.bit_length()
    r = getrandbits(width)
    while r >= span:
        r = getrandbits(width)
    return r


def _pooled_draws(getrandbits: Callable[[int], int], n: int, a: int) -> Iterator[int]:
    """The vertices of successive `random.Random.sample(range(n), a)` calls
    on a population small enough to be swapped in a pool list: each index
    is drawn as `_randbelow` draws it (`_below`) and its vertex leaves the
    pool."""
    vertices = list(range(n))
    while True:
        pool = vertices[:]
        for size in range(n, n - a, -1):
            j = _below(getrandbits, size)
            yield pool[j]
            pool[j] = pool[size - 1]


@cache
def _top_bits(width: int) -> bytes:
    """The table that maps a byte to its top `width` bits."""
    return bytes(b >> 8 - width for b in range(256))


def _vertex_stream(getrandbits: Callable[[int], int], n: int, a: int) -> Iterator[int]:
    """The vertices that successive `random.Random.sample(range(n), a)`
    calls draw from `getrandbits`, repeats included where they are
    rejected (see `sample_check`)."""
    # random.sample swaps in a pool list up to this many vertices and
    # rejects repeats on a set above it
    if n <= 21 + (4 ** ceil(log(a * 3, 4)) if a > 5 else 0):
        return _pooled_draws(getrandbits, n, a)
    width = n.bit_length()  # _randbelow(n) draws this many bits at a time
    if width > 8:
        return filter(n.__gt__, iter(partial(getrandbits, width), -1))
    table = _top_bits(width)
    too_big = bytes(range(n << 8 - width, 256))

    def block() -> bytes:
        words = getrandbits(32 * _BLOCK_WORDS).to_bytes(4 * _BLOCK_WORDS, "little")
        return words[3::4].translate(table, too_big)

    return chain.from_iterable(iter(block, None))


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
    return, drawn from one stream of vertices per substream
    (`_vertex_stream`): a trial takes vertices from it, skipping repeats,
    until it has `a` of them. On populations too large for random.sample's
    pool each vertex is a `_randbelow(n)` draw of w = n.bit_length() bits.
    CPython's `getrandbits(w)` for w <= 32 is the top w bits of one 32-bit
    output, and `getrandbits(32 * m)` is m outputs, least significant
    first; so for n < 256 the stream draws `_BLOCK_WORDS` outputs at once,
    keeps each one's top byte, and shifts them and drops the values >= n
    with one `bytes.translate`. Drawing past the last trial changes nothing,
    since each substream's generator is private.

    Each vertex has one packed word: its own bit, its colors, and the
    slots of the kept parts it hits. A trial ORs the words of its vertices,
    so a repeat changes nothing and the hold test reads the color bits.
    Like `_walk`, the sampler keeps the N[P] of the last `_RECENT_PARTS`
    full-color parts it found in a ring of slots. An attack A leaves P
    whole iff A ∩ N[P] is empty (equivalently, P ∩ N[A] is empty, as
    closed neighborhoods are symmetric), so an attack with an unhit slot
    is resisted without a fill. A fill moves only the vertices that join
    or leave the new slot's N[P], which `_full_color_part` returns with
    the part. Before the first draw the ring is seeded with the first
    min(a + 1, `_RECENT_PARTS`) parts of `_packing`, with the N[P] it
    returns; these are pairwise disjoint, so with a + 1 of them every
    `a`-attack leaves one whole and no trial floods, and with fewer a
    trial floods only when it hits every seeded part.
    """
    _validate(g, kappa, a)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = g.n
    closed = g.closed_masks
    colors = kappa.masks
    k = kappa.palette_size
    full = (1 << k) - 1
    all_mask = g.full_mask
    base, extra = divmod(trials, workers)
    # a trial's word: its colors in bits 0..k-1, the slots it hits above
    # them and its attack mask from bit `shift` on
    shift = k + _RECENT_PARTS
    packed = [1 << shift + u | c for u, c in enumerate(colors)]  # slots join at fills
    nbhd = [0] * _RECENT_PARTS  # N[P] of the full-color part P in each slot
    live = 0  # the filled slots
    # the ring starts with a packing: with a + 1 parts no trial floods
    seeds = _packing(closed, colors, full, min(a + 1, _RECENT_PARTS))
    for i, (_, reach) in enumerate(seeds):
        _fill_slot(nbhd, packed, i, 1 << k + i, reach)
        live |= 1 << k + i
    fills = len(seeds)  # parts kept so far; the next goes to slot fills % _RECENT_PARTS

    hr_failures = 0
    res_failures = 0
    first_hr = 0  # attack masks; 0 until a failure is seen
    first_res = 0
    # substreams at index >= trials draw nothing
    for w in range(min(workers, trials)):
        left = base + (1 if w < extra else 0)
        stream = _vertex_stream(random.Random(substream_seed(seed, w)).getrandbits, n, a)
        x = 0
        need = a
        for u in stream:
            if (y := x | packed[u]) == x:  # u is drawn again: its own bit is set
                continue
            x = y
            need -= 1
            if need:
                continue
            if x & full == full:
                hr_failures += 1
                if not first_hr:
                    first_hr = x >> shift
            if x & live == live:  # the attack hits every kept part
                rm = 0
                for v in _bits(x >> shift):
                    rm |= closed[v]
                part, reach = _full_color_part(closed, colors, full, all_mask & ~rm)
                if part:
                    i = fills % _RECENT_PARTS
                    _fill_slot(nbhd, packed, i, 1 << k + i, reach)
                    live |= 1 << k + i
                    fills += 1
                else:
                    res_failures += 1
                    if not first_res:
                        first_res = x >> shift
            left -= 1
            if not left:
                break
            x = 0
            need = a
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
        if _full_color_part(closed, colors, full, all_mask & ~removed.mask)[0]:
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
