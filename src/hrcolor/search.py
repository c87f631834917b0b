"""Existence search for highly resistant multicolorings.

Colorings are enumerated as nondecreasing sequences of color-class masks,
which visits exactly one representative per color-class multiset and so
breaks the k! color-permutation symmetry. Branches die when some attack
provably cannot be served: a full-color component must intersect every
class, so once every surviving component of some attack misses a decided
class, no completion can work. Each candidate class is tested with ANDs
against per-depth masks, not by building a coloring:

- Resistance: a class m meets some component of an attack's list iff it
  meets the union of that list, so m is viable iff it meets every union.
- Hold: with k-1 classes decided, let `cover` hold the vertices v that
  lie in some a-set meeting all of them. Some a-set holds all k colors iff
  it meets all k classes, that is iff the last class m meets such an
  a-set, that is iff m & cover != 0. An a-set S that holds v meets every
  decided class iff S - {v} meets the classes that miss v, so v is in
  `cover` iff no class misses v or some a-1 vertices meet all that do:
  the checker's hold test `_first_cover`, run on the color masks of those
  classes. `_hold_cover` builds `cover` once each time the search reaches
  the last class.

The one leaf that passes both tests is confirmed by the exhaustive checker,
so a SAT witness always replays through it.

Existence over all palettes has an exact test (blocker duality, Edmonds &
Fulkerson 1970): g admits some highly a-resistant multicoloring iff every
a-attack leaves a surviving component with more than a vertices.

- Only if: a full-color component of at most a vertices, padded to
  exactly a vertices, would hold every color.
- If: the complement coloring works. It has one color per a-set X, whose
  class is every vertex outside X. An a-set Y misses its own color, and a
  component holds every color iff it lies inside no a-set.

Duplicating a class keeps both conditions, so a graph that passes the test
admits a coloring for every large enough palette and one that fails it
admits none. `blocking_attack` returns the first attack that fails the
test: it is the checker's attack walk with the part test "has more than
a vertices" (`checker._large`).
`_attack_lists` is the search's one blocked test. It asks `blocking_attack`
first, and a blocked graph is unsat with 0 nodes at every palette size,
its attacks never listed. On any other graph it lists the attacks once,
dropping components of at most a vertices, which can never hold every
color. `decide` builds this set-up per call; `min_colors` and sweeps
build it once per graph and search every palette size on it.

A sweep over the 2^C(n,2) labeled graphs settles most of them in bulk.
Almost every graph is blocked by its first attack 0..a-1 (all but 8 of
1,024 at n = 5, a = 2, and every one at n = 6, a = 3), and whether it is
depends only on the vertices that 0..a-1 reach and the edges among the
rest. `_open_graphs` groups the graphs by those two parts and floods each
pair once, and only the graphs that it leaves open are built and take the
set-up above. When n - a <= a the first attack leaves at most a vertices,
so every graph is blocked and none is built.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations
from typing import Iterator, Sequence

from . import constructions
from .checker import _check_attack_size, _first_cover, _large, _walk, check_highly
from .codec import MAX_COLORS
from .coloring import Multicoloring, from_class_masks
from .graph import Graph, component_masks, from_pair_bits
from .record import Record

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Largest n accepted by exhaustive_nonexistence; the sweep enumerates all
#: 2^C(n,2) labeled graphs.
MAX_NONEXISTENCE_N = 6


class Decision(Record):
    """Search outcome for one (graph, a, k) question.

    `nodes_expanded` counts class-choice candidates examined; UNKNOWN is
    returned exactly when that count would pass the budget. UNSAT means the
    canonical space was exhausted, or, with 0 nodes whatever the budget,
    that no search was needed: k <= a forces a covering attack set, or some
    attack leaves only components of at most a vertices, so no palette
    works at all.
    """

    outcome: str
    witness: Multicoloring | None
    nodes_expanded: int
    budget: int

    def __post_init__(self) -> None:
        if self.outcome not in (SAT, UNSAT, UNKNOWN):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if (self.outcome == SAT) != (self.witness is not None):
            raise ValueError("witness must be present exactly for sat outcomes")


class MinColorsResult(Record):
    """Smallest working palette size in [a+1, k_max], if the scan settled it."""

    status: str  # "found" | "none" | "unknown"
    value: int | None
    trail: tuple[tuple[int, Decision], ...]


class NonexistenceSummary(Record):
    """Aggregate verdict of a labeled-graph sweep at one attack size.

    `every_palette` is set when every graph has a blocking attack, so the
    all-unsat verdict holds for every palette size, not only up to k_max.
    """

    outcome: str  # "all-unsat" | "found-sat" | "unknown"
    n: int
    a: int
    k_max: int
    budget: int
    graphs_total: int
    graphs_examined: int
    sat_graph: Graph | None
    sat_k: int | None
    sat_witness: Multicoloring | None
    unknown_count: int
    nodes_expanded: int
    every_palette: bool


class KEntry(Record):
    """One row of the minimum-color table.

    `value` is the minimum color count for the row's n range, None with
    `infinite` set when no graph of that size works for any palette, and
    None without `infinite` when the artifact leaves the value open.
    """

    attackers: int
    n_lo: int
    n_hi: int | None
    value: int | None
    infinite: bool
    proven_by: tuple[str, ...]
    instance_name: str | None = None
    note: str = ""


def blocking_attack(g: Graph, a: int) -> tuple[int, ...] | None:
    """The first attack in rank order whose surviving components all have
    at most `a` vertices, or None.

    Such an attack shows that g admits no highly a-resistant multicoloring
    for any palette; when there is none, the complement coloring is one.
    The attacks are walked by `checker._walk`, whose flood `checker._large`
    returns the first surviving component of more than `a` vertices.
    """
    _check_attack_size(g.n, a)
    closed = g.closed_masks
    return _walk(closed, a, partial(_large, closed, a))


def _ors(lists: list[Sequence[int]]) -> list[int]:
    """The union of each attack list's components, distinct and smallest
    first: a class meets some component of a list iff it meets the union."""
    out = set()
    for comps in lists:
        u = 0
        for c in comps:
            u |= c
        out.add(u)
    return sorted(out, key=int.bit_count)


#: A search's palette-independent set-up, built by `_attack_lists`.
_Setup = list[tuple[int, ...]] | None


def _attack_lists(g: Graph, a: int) -> _Setup:
    """The set-up of a search on g at attack size a, which no palette size
    changes: None when `blocking_attack` finds an attack, and otherwise the
    distinct lists of each attack's surviving components of more than `a`
    vertices, in rank order. The hold test needs no a-sets: `_hold_cover`
    reads only the decided classes.

    This is the search's one blocked test: a blocked graph admits no
    palette, and its attacks are never listed.
    """
    if blocking_attack(g, a) is not None:
        return None
    # a component of at most `a` vertices padded to exactly `a` would hold
    # every color, so it never serves an attack. Only distinct lists are
    # kept: identical lists impose identical constraints
    closed = g.closed_masks
    all_mask = g.full_mask
    seen: dict[tuple[int, ...], None] = {}
    for attack in combinations(range(g.n), a):
        rm = 0
        for u in attack:
            rm |= closed[u]
        comps = component_masks(closed, all_mask & ~rm)
        seen.setdefault(tuple(c for c in comps if c.bit_count() > a), None)
    return list(seen)


def _hold_cover(n: int, classes: list[int], a: int) -> int:
    """The mask of the vertices that lie in some a-set meeting every class
    of the nonempty list `classes`; n >= a.

    An a-set S that holds v meets every class iff S - {v} meets the classes
    that miss v. So v is in the mask iff no class misses v, or
    `checker._first_cover` finds a - 1 vertices whose color masks, cut to
    those classes, hold them all. v's own cut mask is 0, so v never counts
    among the a - 1, and n >= a leaves enough other vertices for S. The
    answer depends on v's color mask alone, so each distinct mask is tested
    once.
    """
    held = from_class_masks(n, len(classes), classes).masks
    full = (1 << len(classes)) - 1
    cover = 0
    for h in set(held):
        miss = full & ~h
        if not miss or a > 1 and _first_cover([c & miss for c in held], miss, a - 1):
            cover |= sum(1 << v for v, x in enumerate(held) if x == h)
    return cover


def _search(g: Graph, a: int, k: int, budget: int, attacks: _Setup) -> Decision:
    """`decide` on the set-up `_attack_lists(g, a)`, for a k > a; a blocked
    graph (None) is UNSAT with 0 nodes."""
    if attacks is None:
        return Decision(UNSAT, None, 0, budget)
    # depth-first over nondecreasing class sequences, with an explicit stack
    # so that the depth, up to k, is not bounded by Python's recursion limit:
    # `chosen` holds the classes decided so far, and `levels[d]` the attack
    # lists that survive the first d of them and their unions
    limit = 1 << g.n
    nodes = 0
    chosen: list[int] = []
    levels = [(attacks, _ors(attacks))]
    lo = 1
    while True:
        lists, ors = levels[-1]
        leaf = len(chosen) == k - 1
        cover = _hold_cover(g.n, chosen, a) if leaf else 0
        for m in range(lo, limit):
            if nodes >= budget:
                return Decision(UNKNOWN, None, nodes, budget)
            nodes += 1
            # m must keep the hold condition and meet every list's union
            if m & cover or not all(u & m for u in ors):
                continue
            if not leaf:
                break
            kappa = from_class_masks(g.n, k, [*chosen, m])
            if check_highly(g, kappa, a).highly_resistant:
                return Decision(SAT, kappa, nodes, budget)
        else:
            if not chosen:
                return Decision(UNSAT, None, nodes, budget)
            levels.pop()
            lo = chosen.pop() + 1
            continue
        if chosen and m == chosen[-1]:
            # every kept component already meets m, so the level is the
            # same; sharing it keeps a deep palette's memory flat
            levels.append(levels[-1])
        else:
            lists = [[c for c in comps if c & m] for comps in lists]
            levels.append((lists, _ors(lists)))
        chosen.append(m)
        lo = m


def decide(g: Graph, a: int, k: int, budget: int) -> Decision:
    """Decide whether g admits a highly a-resistant k-multicoloring.

    Classes are chosen in nondecreasing mask order and must be nonempty
    (an unused color can never appear in a surviving component). A branch
    is cut as soon as some attack has no surviving component of more than
    `a` vertices intersecting all decided classes. Each candidate class is
    tested against the unions of the attack lists and, for the last class,
    against `cover`, as the module docstring proves. The filtered lists are
    built only when the search descends, and `cover` once each time it
    reaches the last class, by `_hold_cover` from the decided classes
    alone. The one leaf that passes both tests is confirmed with
    check_highly, so a SAT witness always replays through the checker.
    The palette size k is at most `MAX_COLORS`, the codec's limit, so that
    a SAT witness is a document it accepts.

    For k > a the search runs on `_attack_lists(g, a)`, the one blocked
    test: a graph that `blocking_attack` finds blocked admits no palette,
    so it is UNSAT with 0 nodes and its attacks are never listed. The
    budget counts nodes only. It does not bound the set-up: on any other
    graph one pass over the C(n, a) attacks builds the attack lists before
    the first node, so that clique_partition(5) at a = 5 takes over a
    second to return UNKNOWN at budget 0. `min_colors` and sweeps
    build the set-up once per graph and share it across palette sizes.
    """
    _check_attack_size(g.n, a)
    if k < 1:
        raise ValueError("palette size must be at least 1")
    if k > MAX_COLORS:
        raise ValueError(f"palette size must be at most {MAX_COLORS}, got {k}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    # k <= a: resistance forces every color onto some vertex, and then one
    # vertex per color padded to exactly `a` covers the whole palette
    if k <= a:
        return Decision(UNSAT, None, 0, budget)
    return _search(g, a, k, budget, _attack_lists(g, a))


def _check_scan(a: int, k_max: int, budget: int) -> None:
    """The palette range and budget checks of `min_colors` and sweeps."""
    if k_max < a + 1:
        raise ValueError("k_max must be at least a + 1")
    if k_max > MAX_COLORS:
        raise ValueError(f"k_max must be at most {MAX_COLORS}, got {k_max}")
    if budget < 0:
        raise ValueError("budget must be non-negative")


def _scan_palettes(g: Graph, a: int, k_max: int, budget: int, setup: _Setup) -> MinColorsResult:
    """`min_colors` on the set-up `_attack_lists(g, a)`."""
    trail: list[tuple[int, Decision]] = []
    unknown_seen = False
    for k in range(a + 1, k_max + 1):
        d = _search(g, a, k, budget, setup)
        trail.append((k, d))
        if d.outcome == SAT:
            if unknown_seen:
                return MinColorsResult("unknown", None, tuple(trail))
            return MinColorsResult("found", k, tuple(trail))
        if d.outcome == UNKNOWN:
            unknown_seen = True
    status = "unknown" if unknown_seen else "none"
    return MinColorsResult(status, None, tuple(trail))


def min_colors(g: Graph, a: int, k_max: int, budget: int = 10**6) -> MinColorsResult:
    """Scan k = a+1 .. k_max for the smallest SAT palette.

    Reports "none" when every k is UNSAT and "unknown" when some UNKNOWN
    precedes the first SAT, since minimality is then unsettled. The
    attack lists are built once and searched for every k; k_max is at
    most `MAX_COLORS`, as `decide`'s k is.
    """
    _check_attack_size(g.n, a)
    _check_scan(a, k_max, budget)
    return _scan_palettes(g, a, k_max, budget, _attack_lists(g, a))


def _open_graphs(n: int, a: int) -> Iterator[int]:
    """The `from_pair_bits` strings on n vertices, ascending, whose first
    attack 0..a-1 leaves a component of more than `a` vertices.

    The pairs (u, v) with u < a are the lowest `low` bits, lo, so bits =
    lo | hi << low. The first attack leaves a..n-1 minus t, the vertices
    that lo joins to 0..a-1, and every edge among them comes from hi. So
    the lo values are grouped by t once, and each hi is flooded once per
    distinct t, on the masks of the graph that hi alone builds. When
    n - a <= a no group is open, and nothing is built.

    The graphs left out are settled without being built or walked (1,016
    of the 1,024 graphs on 5 vertices at a = 2), so every walk a sweep
    makes passes the first attack.
    """
    if n - a <= a:
        return
    low = a * n - a * (a + 1) // 2
    ts = [0]  # ts[lo] = t, built one pair at a time
    for u in range(a):
        for v in range(u + 1, n):
            bit = 1 << v if v >= a else 0
            ts += [t | bit for t in ts]
    groups: dict[int, list[int]] = {}
    for lo, t in enumerate(ts):
        groups.setdefault(t, []).append(lo)
    rest = (1 << n) - (1 << a)
    for hi in range(1 << n * (n - 1) // 2 - low):
        closed = from_pair_bits(n, hi << low).closed_masks
        open_los = [los for t, los in groups.items() if _large(closed, a, rest & ~t)[0]]
        for lo in sorted(chain.from_iterable(open_los)):
            yield lo | hi << low


def exhaustive_nonexistence(
    n: int, a: int, k_max: int, budget: int = 10**6
) -> NonexistenceSummary:
    """Sweep every labeled graph on n vertices for a highly a-resistant
    coloring with k in [a+1, k_max] colors.

    A graph with a blocking attack admits no palette at all and is skipped.
    Graphs blocked by the first attack are skipped in bulk, without being
    built (`_open_graphs`); the others are built in ascending order and
    take `_attack_lists`, whose blocked test covers the later attacks. On
    the unblocked ones the attack lists are built once and searched for
    each k as `min_colors` does, and the sweep stops at the first SAT
    instance, so `graphs_examined` counts the skipped graphs below it.
    The all-unsat verdict certifies every palette when every graph was
    blocked (`every_palette`), and palettes up to k_max otherwise
    (palettes below a+1 are impossible outright).
    """
    if n < 1:
        raise ValueError(f"vertex count n must be at least 1, got {n}")
    if n > MAX_NONEXISTENCE_N:
        raise ValueError(
            f"labeled-graph sweeps are limited to n <= {MAX_NONEXISTENCE_N}, got {n}"
        )
    _check_attack_size(n, a)
    _check_scan(a, k_max, budget)
    total = 1 << n * (n - 1) // 2
    nodes = 0
    unknown_count = 0
    every_palette = True
    sat = None  # (graphs examined, graph, k, witness) at the first SAT
    for bits in _open_graphs(n, a):
        g = from_pair_bits(n, bits)
        setup = _attack_lists(g, a)
        if setup is None:
            continue
        every_palette = False
        trail = _scan_palettes(g, a, k_max, budget, setup).trail
        nodes += sum(d.nodes_expanded for _, d in trail)
        unknown_count += sum(d.outcome == UNKNOWN for _, d in trail)
        k, d = trail[-1]
        if d.outcome == SAT:
            sat = bits + 1, g, k, d.witness
            break
    examined, sat_graph, sat_k, sat_witness = sat or (total, None, None, None)
    return NonexistenceSummary(
        outcome="found-sat" if sat else "unknown" if unknown_count else "all-unsat",
        n=n, a=a, k_max=k_max, budget=budget,
        graphs_total=total,
        graphs_examined=examined,
        sat_graph=sat_graph, sat_k=sat_k, sat_witness=sat_witness,
        unknown_count=unknown_count,
        nodes_expanded=nodes,
        every_palette=every_palette,
    )


def k_table(max_a: int = 4) -> list[KEntry]:
    """The known minimum-color rows for attack sizes up to max_a (<= 4).

    Construction-backed rows name a catalog instance that realizes the
    value. The paper-14 and paper-21 rows also cite the source, since
    their constructions prove only the upper bound. Infinite rows for
    sizes beyond the labeled sweep limit rest on the cited source.
    """
    if not 1 <= max_a <= 4:
        raise ValueError("the table covers attack sizes 1..4")
    rows = [
        KEntry(1, 1, 3, None, True, ("exhaustive-search", "paper-citation"),
               note="sweeps certify every palette for n <= 3"),
        KEntry(1, 4, None, 2, False, ("construction",), "clique-partition:1"),
        KEntry(2, 1, 8, None, True, ("paper-citation",)),
        KEntry(2, 9, None, 3, False, ("construction",), "clique-partition:2"),
        KEntry(3, 1, 13, None, True, ("paper-citation",)),
        KEntry(3, 14, 15, 7, False, ("construction", "paper-citation"), "paper-14"),
        KEntry(3, 16, None, 4, False, ("construction",), "clique-partition:3"),
        KEntry(4, 1, 20, None, True, ("paper-citation",)),
        KEntry(4, 21, 21, 10, False, ("construction", "paper-citation"), "paper-21"),
        KEntry(4, 22, 24, None, False, (),
               note="between 5 and 10: k >= a+1, and paper-21 plus isolated vertices gives 10"),
        KEntry(4, 25, None, 5, False, ("construction",), "clique-partition:4"),
    ]
    return [row for row in rows if row.attackers <= max_a]


def certify_table_row(row: KEntry) -> bool:
    """Re-run the artifact-backed evidence for a table row.

    Construction rows re-check their instance exhaustively; the a=1
    infinite row re-runs the labeled sweeps for n = 1..3 at k_max 4, each
    of which must end all-unsat for every palette (`every_palette`), not
    only for palettes up to 4. Citation-only rows pass vacuously.
    """
    if row.instance_name is not None:
        inst = constructions.instance(row.instance_name)
        rep = check_highly(inst.graph, inst.coloring, inst.attackers)
        if not rep.highly_resistant:
            return False
        if row.value is not None and inst.palette_size != row.value:
            return False
    if "exhaustive-search" in row.proven_by:
        hi = row.n_hi if row.n_hi is not None else MAX_NONEXISTENCE_N
        for n in range(max(row.attackers, row.n_lo), hi + 1):
            summary = exhaustive_nonexistence(n, row.attackers, 4)
            if summary.outcome != "all-unsat" or not summary.every_palette:
                return False
    return True
