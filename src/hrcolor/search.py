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
- Hold: with k-1 classes decided, let `cover` be the union of the a-sets
  that meet all of them. Some a-set holds all k colors iff it meets all k
  classes, that is iff the last class m meets such an a-set, that is iff
  m & cover != 0.

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
test. `decide` answers such graphs unsat with 0 nodes, and it drops
components of at most a vertices, which can never hold every color, from
the search's attack lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from . import constructions
from .checker import _check_attack_size, check_highly
from .coloring import Multicoloring, from_class_masks
from .graph import Graph, component_masks, from_pair_bits

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Largest n accepted by exhaustive_nonexistence; the sweep enumerates all
#: 2^C(n,2) labeled graphs.
MAX_NONEXISTENCE_N = 6


@dataclass(frozen=True, slots=True)
class Decision:
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


@dataclass(frozen=True, slots=True)
class MinColorsResult:
    """Smallest working palette size in [a+1, k_max], if the scan settled it."""

    status: str  # "found" | "none" | "unknown"
    value: int | None
    trail: tuple[tuple[int, Decision], ...]


@dataclass(frozen=True, slots=True)
class NonexistenceSummary:
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


@dataclass(frozen=True, slots=True)
class KEntry:
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


def _attack_component_masks(g: Graph, a: int) -> Iterator[list[int]]:
    """For every attack set in rank order, the masks of the surviving
    components; resistance requires some component to intersect every class.

    A generator, so that a caller can stop at the first attack it needs.
    """
    closed = g.closed_masks
    all_mask = g.full_mask
    for attack in combinations(range(g.n), a):
        rm = 0
        for u in attack:
            rm |= closed[u]
        yield component_masks(closed, all_mask & ~rm)


def blocking_attack(g: Graph, a: int) -> tuple[int, ...] | None:
    """The first attack in rank order whose surviving components all have
    at most `a` vertices, or None.

    Such an attack shows that g admits no highly a-resistant multicoloring
    for any palette; when there is none, the complement coloring is one.
    """
    _check_attack_size(g.n, a)
    attacks = combinations(range(g.n), a)
    for attack, comps in zip(attacks, _attack_component_masks(g, a)):
        if all(c.bit_count() <= a for c in comps):
            return attack
    return None


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


def decide(g: Graph, a: int, k: int, budget: int) -> Decision:
    """Decide whether g admits a highly a-resistant k-multicoloring.

    Classes are chosen in nondecreasing mask order and must be nonempty
    (an unused color can never appear in a surviving component). A branch
    is cut as soon as some attack has no surviving component of more than
    `a` vertices intersecting all decided classes. Each candidate class is
    tested against the unions of the attack lists and, for the last class,
    against `cover`, as the module docstring proves; the filtered lists
    are built only when the search descends. The one leaf that passes both
    tests is confirmed with check_highly, so a SAT witness always replays
    through the checker.
    """
    _check_attack_size(g.n, a)
    if k < 1:
        raise ValueError("palette size must be at least 1")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if k <= a:
        # Resistance forces every color onto some vertex, and then one
        # vertex per color padded to exactly `a` covers the whole palette.
        return Decision(UNSAT, None, 0, budget)
    # a component of at most `a` vertices padded to exactly `a` would hold
    # every color, so it never serves an attack; an attack left with no
    # larger component blocks every palette. Only distinct lists are kept:
    # identical lists impose identical constraints
    seen: dict[tuple[int, ...], None] = {}
    for comps in _attack_component_masks(g, a):
        large = tuple(c for c in comps if c.bit_count() > a)
        if not large:
            return Decision(UNSAT, None, 0, budget)
        seen.setdefault(large, None)
    attacks = list(seen)
    a_sets = [sum(1 << u for u in s) for s in combinations(range(g.n), a)]

    # depth-first over nondecreasing class sequences, with an explicit stack
    # so that the depth, up to k, is not bounded by Python's recursion limit:
    # `chosen` holds the classes decided so far, and `levels[d]` the attack
    # lists that survive the first d of them, their unions, and the a-sets
    # that meet all d
    limit = 1 << g.n
    nodes = 0
    chosen: list[int] = []
    levels = [(attacks, _ors(attacks), a_sets)]
    lo = 1
    while True:
        lists, ors, holding = levels[-1]
        leaf = len(chosen) == k - 1
        cover = 0
        if leaf:
            for s in holding:
                cover |= s
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
        chosen.append(m)
        lists = [[c for c in comps if c & m] for comps in lists]
        levels.append((lists, _ors(lists), [s for s in holding if s & m]))
        lo = m


def min_colors(g: Graph, a: int, k_max: int, budget: int = 10**6) -> MinColorsResult:
    """Scan k = a+1 .. k_max for the smallest SAT palette.

    Reports "none" when every k is UNSAT and "unknown" when some UNKNOWN
    precedes the first SAT, since minimality is then unsettled.
    """
    _check_attack_size(g.n, a)
    if k_max < a + 1:
        raise ValueError("k_max must be at least a + 1")
    trail: list[tuple[int, Decision]] = []
    unknown_seen = False
    for k in range(a + 1, k_max + 1):
        d = decide(g, a, k, budget)
        trail.append((k, d))
        if d.outcome == SAT:
            if unknown_seen:
                return MinColorsResult("unknown", None, tuple(trail))
            return MinColorsResult("found", k, tuple(trail))
        if d.outcome == UNKNOWN:
            unknown_seen = True
    status = "unknown" if unknown_seen else "none"
    return MinColorsResult(status, None, tuple(trail))


def exhaustive_nonexistence(
    n: int, a: int, k_max: int, budget: int = 10**6
) -> NonexistenceSummary:
    """Sweep every labeled graph on n vertices for a highly a-resistant
    coloring with k in [a+1, k_max] colors.

    A graph with a blocking attack admits no palette at all and is skipped;
    decide runs on the others and the sweep stops at the first SAT
    instance. The all-unsat verdict certifies every palette when every
    graph was blocked (`every_palette`), and palettes up to k_max otherwise
    (palettes below a+1 are impossible outright).
    """
    if n < 1:
        raise ValueError(f"vertex count n must be at least 1, got {n}")
    if n > MAX_NONEXISTENCE_N:
        raise ValueError(
            f"labeled-graph sweeps are limited to n <= {MAX_NONEXISTENCE_N}, got {n}"
        )
    _check_attack_size(n, a)
    if k_max < a + 1:
        raise ValueError("k_max must be at least a + 1")
    # checked here too: a sweep whose graphs are all blocked never calls decide
    if budget < 0:
        raise ValueError("budget must be non-negative")
    total = 1 << n * (n - 1) // 2
    nodes = 0
    unknown_count = 0
    every_palette = True
    for bits in range(total):
        g = from_pair_bits(n, bits)
        if blocking_attack(g, a) is not None:
            continue
        every_palette = False
        for k in range(a + 1, k_max + 1):
            d = decide(g, a, k, budget)
            nodes += d.nodes_expanded
            if d.outcome == SAT:
                return NonexistenceSummary(
                    outcome="found-sat",
                    n=n, a=a, k_max=k_max, budget=budget,
                    graphs_total=total,
                    graphs_examined=bits + 1,
                    sat_graph=g, sat_k=k, sat_witness=d.witness,
                    unknown_count=unknown_count,
                    nodes_expanded=nodes,
                    every_palette=False,
                )
            if d.outcome == UNKNOWN:
                unknown_count += 1
    return NonexistenceSummary(
        outcome="unknown" if unknown_count else "all-unsat",
        n=n, a=a, k_max=k_max, budget=budget,
        graphs_total=total,
        graphs_examined=total,
        sat_graph=None, sat_k=None, sat_witness=None,
        unknown_count=unknown_count,
        nodes_expanded=nodes,
        every_palette=every_palette,
    )


def k_table(max_a: int = 4) -> list[KEntry]:
    """The known minimum-color rows for attack sizes up to max_a (<= 4).

    Construction-backed rows name a catalog instance that realizes the
    value; infinite rows for sizes beyond the labeled sweep limit rest on
    the cited source.
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
        KEntry(3, 14, 15, 7, False, ("construction",), "paper-14"),
        KEntry(3, 16, None, 4, False, ("construction",), "clique-partition:3"),
        KEntry(4, 1, 20, None, True, ("paper-citation",)),
        KEntry(4, 21, 21, 10, False, ("construction",), "paper-21"),
        KEntry(4, 22, None, None, False, (),
               note="at most 10 by adding isolated vertices to the 21-vertex instance"),
    ]
    return [row for row in rows if row.attackers <= max_a]


def certify_table_row(row: KEntry, *, k_max: int = 4, budget: int = 10**6) -> bool:
    """Re-run the artifact-backed evidence for a table row.

    Construction rows re-check their instance exhaustively; the a=1
    infinite row re-runs the labeled sweeps for n = 1..3, each of which
    must end all-unsat for every palette (`every_palette`), not only for
    palettes up to `k_max`. Citation-only rows pass vacuously.
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
            summary = exhaustive_nonexistence(n, row.attackers, k_max, budget)
            if summary.outcome != "all-unsat" or not summary.every_palette:
                return False
    return True
